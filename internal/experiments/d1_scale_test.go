package experiments

import (
	"context"
	"testing"
	"time"

	"rollrec/internal/failure"
	"rollrec/internal/recovery"
	"rollrec/internal/workload"
)

// d1ScaleSpec is the D1 n=1024 cell with a shortened horizon: same
// scheduler (4 shards), same fanout, same slowed gossip cadence — the CI
// smoke shape for the scale sweep. The crash lands before the first
// checkpoint completes, so the victim recovers by whole-history replay;
// 18 s leaves it room to finish (detect ~7 s, restart, gather, ~4 s of
// replayed work).
func d1ScaleSpec(shards int) Spec {
	spec := PaperSpec(recovery.NonBlocking, 1)
	spec.N = 1024
	spec.Shards = shards
	spec.Fanout = 8
	spec.App = workload.NewRandomPeer(1, 1_000_000, 256, int64(10*time.Millisecond))
	spec.Crashes = failure.Plan{{At: 4 * time.Second, Proc: 1}}
	spec.Horizon = 18 * time.Second
	return spec
}

// TestD1Scale1024 smoke-runs the sweep's largest cell at 1 and 4 shards:
// both runs must be consistent, complete the victim's recovery, block no
// live process, and agree exactly on every readout — the n=1024 analogue
// of the sharded golden-trace gate, at the cost of two runs instead of
// three.
func TestD1Scale1024(t *testing.T) {
	if testing.Short() {
		t.Skip("n=1024 cell is a long test")
	}
	// run keeps only the readouts the comparison needs, so the 1-shard
	// cluster can be collected before the 4-shard run builds its own.
	type readout struct {
		digests []uint64
		victim  time.Duration
		events  int64
	}
	run := func(shards int) readout {
		r := MustRun(context.Background(), d1ScaleSpec(shards))
		if r.Victim(1).Total() <= 0 {
			t.Fatalf("shards=%d: victim recorded no recovery", shards)
		}
		if mean, _ := r.LiveBlocked(); mean != 0 {
			t.Fatalf("shards=%d: nonblocking style blocked live processes for %v (mean)", shards, mean)
		}
		return readout{digests: r.C.Digests(), victim: r.Victim(1).Total(), events: r.Events}
	}
	r1 := run(1)
	r4 := run(4)
	for i := range r1.digests {
		if r1.digests[i] != r4.digests[i] {
			t.Fatalf("digest of proc %d differs across shard counts: %#x vs %#x", i, r1.digests[i], r4.digests[i])
		}
	}
	if r1.victim != r4.victim {
		t.Fatalf("victim recovery differs across shard counts: %v vs %v", r1.victim, r4.victim)
	}
	if r1.events != r4.events {
		t.Fatalf("event counts differ across shard counts: %d vs %d", r1.events, r4.events)
	}
}
