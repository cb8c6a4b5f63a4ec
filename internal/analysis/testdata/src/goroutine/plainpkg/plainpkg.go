// Package plainpkg is outside the deterministic set, so goroutines are its
// business: the check stays silent here.
package plainpkg

func spawn(f func()) {
	go f()
}
