package experiments

import (
	"context"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/recovery"
	"rollrec/internal/wire"
)

// D10 puts the paper's §6 taxonomy on one table: optimistic logging is
// cheap in failure-free operation but lets live processes become ORPHANS
// of a failure (they roll back and lose work); the FBL family with the
// paper's recovery algorithm pays causal piggybacking up front and, at
// failure time, touches nobody.
func D10(ctx context.Context, seed int64) Table {
	t := Table{
		ID:      "D10",
		Title:   "orphans: FBL vs optimistic logging (single failure, n=8)",
		Columns: []string{"design", "orphaned lives", "deliveries lost (orphans)", "ff piggyback bytes/msg", "victim recovery"},
		Notes: []string{
			"paper §6: optimistic protocols risk 'processes that survive failures becoming orphans';",
			"FBL's determinants at f+1 hosts make the orphan count structurally zero",
		},
	}

	// FBL + the paper's non-blocking recovery.
	spec := PaperSpec(recovery.NonBlocking, seed)
	spec.Crashes = failure.Plan{{At: 10 * time.Second, Proc: 3}}
	r := MustRun(ctx, spec)
	if ctx.Err() != nil {
		return t
	}
	var appMsgs, piggyBytes int64
	for i := 0; i < spec.N; i++ {
		m := r.C.Metrics(ids.ProcID(i))
		appMsgs += m.MsgsSent[uint8(wire.KindApp)]
		piggyBytes += m.PiggybackBytes
	}
	if appMsgs == 0 {
		appMsgs = 1
	}
	t.AddRow("fbl (f=2) + nonblocking", 0, 0,
		float64(piggyBytes)/float64(appMsgs), r.Victim(3).Total())

	// Optimistic logging with asynchronous receiver-side logs. Its
	// failure-free dependency-tracking cost is the dv piggyback: a fixed
	// (8B index + 4B epoch) per process per message.
	o := runRow(ctx, comparator(spec, cluster.FamilyOptimistic))
	if ctx.Err() != nil {
		return t
	}
	t.AddRow("optimistic (Strom–Yemini style)", o.C.Orphans(), o.C.Lost(),
		float64(12*spec.N), o.Victim(3).Total())
	return t
}
