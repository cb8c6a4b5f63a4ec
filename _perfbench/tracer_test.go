package main

import (
	"sync"
	"testing"

	"rollrec/internal/trace"
)

// TestKindTracerConcurrent drives one tracer from several goroutines, as
// the sharded kernel's shard goroutines do, and checks that no event or
// span time is lost. Run it with -race.
func TestKindTracerConcurrent(t *testing.T) {
	const workers, perWorker = 4, 2000
	kt := newKindTracer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(proc int32) {
			defer wg.Done()
			for i := int64(0); i < perWorker; i++ {
				kt.Instant(i, proc, trace.EvSend, trace.Tag{})
				ref := kt.Begin(i, proc, trace.EvReplay, trace.Tag{})
				kt.End(ref, i+3)
				kt.Span(i, 5, proc, trace.EvStorageWrite, trace.Tag{})
			}
		}(int32(w))
	}
	wg.Wait()

	const n = workers * perWorker
	for kind, want := range map[string]int64{trace.EvSend: n, trace.EvReplay: n, trace.EvStorageWrite: n} {
		if got := kt.count[kind]; got != want {
			t.Errorf("count[%s] = %d, want %d", kind, got, want)
		}
	}
	if got := kt.vtime[trace.EvReplay]; got != 3*n {
		t.Errorf("vtime[replay] = %d, want %d", got, 3*n)
	}
	if got := kt.vtime[trace.EvStorageWrite]; got != 5*n {
		t.Errorf("vtime[storage-write] = %d, want %d", got, 5*n)
	}
	if len(kt.open) != 0 {
		t.Errorf("%d spans left open", len(kt.open))
	}
}

// TestTailIndex checks the percentile that leaves at least ten samples
// beyond it.
func TestTailIndex(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{10000, 9989}, // p99.9: 10 samples beyond
		{4577, 4530},  // p99
		{500, 449},    // p90
		{30, 14},      // p50
		{5, 2},        // too few for any: p50
	} {
		if got := tailIndex(c.n); got != c.want {
			t.Errorf("tailIndex(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
