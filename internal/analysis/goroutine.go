package analysis

import "go/ast"

// Goroutine bans go statements in the deterministic packages. The simulator
// runs every process as a single-threaded event handler on the virtual
// clock; a goroutine inside protocol code would race the event loop and make
// replay depend on the Go scheduler. Packages outside the deterministic set
// (and test files, which are never loaded here) may use goroutines.
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc:  "no go statements in sim-driven packages",
	Run:  runGoroutine,
}

func runGoroutine(pass *Pass) {
	if !detPackages[pass.Pkg.Name] {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"go statement in deterministic package %s schedules work outside the event loop",
					pass.Pkg.Name)
			}
			return true
		})
	}
}
