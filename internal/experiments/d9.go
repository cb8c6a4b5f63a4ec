package experiments

import (
	"context"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/recovery"
)

// D9 compares the paper's protocol family against the classic alternative
// its related work contrasts it with: coordinated checkpointing
// (Chandy–Lamport snapshots [6]) with global rollback. Message logging
// confines a failure's cost to the failed process; a coordinated protocol
// makes every process roll back and redo work, and stalls every live
// process for a stable-storage restore.
func D9(ctx context.Context, seed int64) Table {
	t := Table{
		ID:      "D9",
		Title:   "message logging vs coordinated checkpointing (single failure, n=8)",
		Columns: []string{"design", "victim recovery", "live blocked (mean)", "deliveries redone (cluster)", "ff storage writes"},
		Notes: []string{
			"'deliveries redone' counts work re-executed after the failure: only the victim's replay",
			"under logging, everyone's lost suffix under coordinated rollback",
		},
	}

	// Message logging with the paper's non-blocking recovery, then
	// coordinated checkpointing with global rollback on the same scenario.
	spec := PaperSpec(recovery.NonBlocking, seed)
	spec.Crashes = failure.Plan{{At: 10 * time.Second, Proc: 3}}
	for _, row := range []struct {
		design string
		spec   Spec
	}{
		{"fbl + nonblocking recovery", spec},
		{"coordinated (Chandy–Lamport)", comparator(spec, cluster.FamilyCoordinated)},
	} {
		r := runRow(ctx, row.spec)
		if ctx.Err() != nil {
			return t
		}
		mean, _ := r.LiveBlocked()
		var ffWrites, delivered int64
		for i := 0; i < spec.N; i++ {
			m := r.C.Metrics(ids.ProcID(i))
			ffWrites += m.StorageWrites
			delivered += m.Delivered
		}
		// Logging redoes only the victim's replay; a coordinated rollback
		// discards every process's suffix since the snapshot.
		redone := r.C.Lost()
		if isFBL(row.spec.Family) {
			redone = max(r.C.Metrics(3).Delivered-int64(r.C.Proc(3).RSN()), 0)
		}
		// Sanity: the comparison is meaningless if the cluster never
		// resumed.
		if delivered == 0 {
			panic("experiments: " + row.design + " run made no progress")
		}
		t.AddRow(row.design, r.Victim(3).Total(), mean, redone, ffWrites)
	}
	return t
}
