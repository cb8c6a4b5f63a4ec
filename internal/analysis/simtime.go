package analysis

import (
	"go/ast"
	"go/types"
)

// wallClock lists the package-level time functions that read or schedule
// against the machine's real clock. time.Duration arithmetic and constants
// stay legal everywhere — only observing the wall clock is restricted.
var wallClock = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// SimTime enforces the virtual-clock discipline: the discrete-event
// simulator owns time (DESIGN S1), so protocol and simulator code must get
// "now" and timers from node.Env, never from the time package. Test files
// are exempt by construction (they are never loaded).
var SimTime = &Analyzer{
	Name: "simtime",
	Doc:  "wall-clock time.* calls break deterministic replay",
	Run:  runSimTime,
}

func runSimTime(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.Info.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != "time" || !wallClock[sel.Sel.Name] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock; sim-driven code must use the virtual clock (node.Env.Now/After)",
				sel.Sel.Name)
			return true
		})
	}
}
