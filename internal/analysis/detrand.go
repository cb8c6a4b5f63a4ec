package analysis

import (
	"go/ast"
	"go/types"
)

// detRandAllowed names the math/rand identifiers that are safe to reference:
// the constructors and types used to build explicitly seeded streams. Every
// other selector on the package is a top-level convenience function backed
// by the process-global, entropy-seeded source.
var detRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	"Rand":      true,
	"Source":    true,
	"Source64":  true,
	"Zipf":      true,
}

// DetRand enforces seeded-stream discipline: simulations must be replayable
// from a Config.Seed, so randomness has to flow through *rand.Rand values
// constructed with rand.New(rand.NewSource(seed)) and threaded from
// internal/sim. The global functions
// (rand.Intn, rand.Float64, ...) draw from a shared source seeded from
// entropy and are banned outside test files.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "global math/rand functions are entropy-seeded; use seeded *rand.Rand streams",
	Run:  runDetRand,
}

func runDetRand(pass *Pass) {
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
			if !ok {
				return true
			}
			if path := pn.Imported().Path(); path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			if detRandAllowed[sel.Sel.Name] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"global math/rand.%s draws from the process-wide entropy-seeded source; thread a seeded *rand.Rand from the sim config instead",
				sel.Sel.Name)
			return true
		})
	}
}
