package experiments

import "context"

// Experiment is one entry of the evaluation index: an id, a one-line
// description, and the function that regenerates its table.
type Experiment struct {
	ID   string
	Desc string
	Run  func(context.Context, int64) Table
}

// Index lists every experiment of the evaluation (DESIGN.md §3) in run
// order. cmd/experiments, All, and the root package read this one table.
var Index = []Experiment{
	{"E1", "single failure (paper §5, first experiment)", E1},
	{"E2", "second failure during recovery (paper §5, second experiment)", E2},
	{"D1", "scale sweep: blocked time vs n", D1},
	{"D2", "stable-storage latency sweep", D2},
	{"D3", "recovery communication counts", D3},
	{"D4", "failure-free overhead vs f", D4},
	{"D5", "recovery-time breakdown", D5},
	{"D6", "intrusion by recovery style", D6},
	{"D7", "network latency sweep", D7},
	{"D8", "analytical cost model vs simulation", D8},
	{"D9", "message logging vs coordinated checkpointing", D9},
	{"D10", "orphans: FBL vs optimistic logging", D10},
	{"D11", "output-commit latency across styles", D11},
	{"D12", "open-loop traffic: offered load x style x crash", D12},
}

// All runs every experiment in index order, stopping early (with the
// tables produced so far) when ctx is done.
func All(ctx context.Context, seed int64) []Table {
	var out []Table
	for _, e := range Index {
		if ctx.Err() != nil {
			break
		}
		out = append(out, e.Run(ctx, seed))
	}
	return out
}
