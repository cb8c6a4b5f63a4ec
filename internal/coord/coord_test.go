package coord

import (
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/sim"
	"rollrec/internal/workload"
)

// harness wires n coordinated-checkpointing processes onto the simulator.
type harness struct {
	k         *sim.Kernel
	n         int
	rollbacks []rollbackEvent
	crashes   int
}

type rollbackEvent struct {
	proc  ids.ProcID
	epoch uint32
	lost  int64
}

func fastHW() node.Hardware {
	hw := node.Profile1995()
	hw.WatchdogDetect = 300 * time.Millisecond
	hw.RestartDelay = 50 * time.Millisecond
	hw.SuspectAfter = 400 * time.Millisecond
	hw.HeartbeatEvery = 50 * time.Millisecond
	hw.CPUMsgCost = 50 * time.Microsecond
	hw.CPUByteCost = 0
	hw.Disk.Latency = 2 * time.Millisecond
	hw.Disk.ReadBandwidth = 50e6
	hw.Disk.WriteBandwidth = 50e6
	return hw
}

func newHarness(t *testing.T, n int, seed int64, app workload.Factory) *harness {
	t.Helper()
	h := &harness{n: n}
	h.k = sim.New(sim.Config{Seed: seed, HW: fastHW()})
	par := Params{
		N:             n,
		App:           app,
		SnapshotEvery: 300 * time.Millisecond,
		StatePad:      4 << 10,
		Hooks: Hooks{
			OnRollback: func(p ids.ProcID, epoch uint32, lost int64) {
				h.rollbacks = append(h.rollbacks, rollbackEvent{p, epoch, lost})
			},
		},
	}
	for i := 0; i < n; i++ {
		h.k.AddNode(ids.ProcID(i), New(par))
	}
	h.k.Boot()
	return h
}

func (h *harness) proc(i ids.ProcID) *Process {
	p, _ := h.k.ProcOf(i).(*Process)
	return p
}

func (h *harness) digests() []uint64 {
	out := make([]uint64, h.n)
	for i := 0; i < h.n; i++ {
		if p := h.proc(ids.ProcID(i)); p != nil {
			out[i] = p.app.Digest()
		}
	}
	return out
}

// crashAt schedules a crash and records that the run must observe its
// cluster-wide rollback before it counts as settled.
func (h *harness) crashAt(at time.Duration, p ids.ProcID) {
	h.crashes++
	h.k.CrashAt(at, p)
}

func (h *harness) allDone() bool {
	// Every scheduled crash forces a rollback at every process.
	if len(h.rollbacks) < h.crashes*h.n {
		return false
	}
	for i := 0; i < h.n; i++ {
		p := h.proc(ids.ProcID(i))
		if p == nil || !p.app.Done() {
			return false
		}
	}
	return true
}

func (h *harness) runUntilDone(t *testing.T, horizon time.Duration) {
	t.Helper()
	for d := time.Second; d <= horizon; d += time.Second {
		h.k.Run(d)
		if h.allDone() {
			return
		}
	}
	for i := 0; i < h.n; i++ {
		if p := h.proc(ids.ProcID(i)); p != nil {
			t.Logf("p%d epoch=%d delivered=%d committed=%d", i, p.epoch, p.delivered, p.committedID)
		}
	}
	t.Fatal("coordinated cluster did not finish")
}

func TestFailureFreeSnapshotsCommit(t *testing.T) {
	h := newHarness(t, 4, 1, workload.NewTokenRing(8000, 32, int64(time.Millisecond)))
	h.runUntilDone(t, 60*time.Second)
	p := h.proc(0)
	if p.committedID == 0 {
		t.Fatal("no snapshot ever committed")
	}
	if len(h.rollbacks) != 0 {
		t.Fatalf("failure-free run rolled back: %v", h.rollbacks)
	}
}

func TestGlobalRollbackOnCrash(t *testing.T) {
	// Golden failure-free run for the final state.
	g := newHarness(t, 4, 2, workload.NewTokenRing(8000, 32, int64(time.Millisecond)))
	g.runUntilDone(t, 60*time.Second)

	h := newHarness(t, 4, 2, workload.NewTokenRing(8000, 32, int64(time.Millisecond)))
	h.crashAt(1500*time.Millisecond, 2)
	h.runUntilDone(t, 120*time.Second)

	// EVERY process must have rolled back — the defining cost of
	// coordinated checkpointing.
	seen := map[ids.ProcID]bool{}
	for _, r := range h.rollbacks {
		seen[r.proc] = true
	}
	if len(seen) != 4 {
		t.Fatalf("rollbacks hit %d processes, want all 4: %v", len(seen), h.rollbacks)
	}
	// The ring is one causal chain: the post-rollback re-execution must
	// reach the identical final state.
	gd, hd := g.digests(), h.digests()
	for i := range gd {
		if gd[i] != hd[i] {
			t.Errorf("process %d digest %#x, want golden %#x", i, hd[i], gd[i])
		}
	}
	// Live processes paid a restore stall.
	blockedSomewhere := false
	for i := 0; i < 4; i++ {
		if ids.ProcID(i) == 2 {
			continue
		}
		if h.k.Metrics(ids.ProcID(i)).BlockedTotal() > 0 {
			blockedSomewhere = true
		}
	}
	if !blockedSomewhere {
		t.Fatal("live processes must stall for the restore during a global rollback")
	}
}

func TestCrashBeforeFirstSnapshot(t *testing.T) {
	g := newHarness(t, 3, 3, workload.NewTokenRing(6000, 32, int64(time.Millisecond)))
	g.runUntilDone(t, 60*time.Second)

	h := newHarness(t, 3, 3, workload.NewTokenRing(6000, 32, int64(time.Millisecond)))
	h.crashAt(100*time.Millisecond, 1) // before any snapshot commits
	h.runUntilDone(t, 120*time.Second)
	gd, hd := g.digests(), h.digests()
	for i := range gd {
		if gd[i] != hd[i] {
			t.Errorf("process %d digest %#x, want golden %#x", i, hd[i], gd[i])
		}
	}
}

func TestCrashOfInitiator(t *testing.T) {
	g := newHarness(t, 4, 4, workload.NewTokenRing(8000, 32, int64(time.Millisecond)))
	g.runUntilDone(t, 60*time.Second)

	h := newHarness(t, 4, 4, workload.NewTokenRing(8000, 32, int64(time.Millisecond)))
	h.crashAt(1400*time.Millisecond, 0) // the snapshot initiator itself
	h.runUntilDone(t, 120*time.Second)
	gd, hd := g.digests(), h.digests()
	for i := range gd {
		if gd[i] != hd[i] {
			t.Errorf("process %d digest %#x, want golden %#x", i, hd[i], gd[i])
		}
	}
	// Snapshots must resume after the initiator's recovery.
	if p := h.proc(0); p.committedID == 0 {
		t.Fatal("snapshots never resumed after initiator crash")
	}
}

func TestRepeatedCrashes(t *testing.T) {
	g := newHarness(t, 4, 5, workload.NewTokenRing(9000, 32, int64(time.Millisecond)))
	g.runUntilDone(t, 120*time.Second)

	h := newHarness(t, 4, 5, workload.NewTokenRing(9000, 32, int64(time.Millisecond)))
	h.crashAt(800*time.Millisecond, 2)
	h.crashAt(2600*time.Millisecond, 3)
	h.runUntilDone(t, 240*time.Second)
	gd, hd := g.digests(), h.digests()
	for i := range gd {
		if gd[i] != hd[i] {
			t.Errorf("process %d digest %#x, want golden %#x", i, hd[i], gd[i])
		}
	}
}

// TestOverlappingCrashesBeforeFirstSnapshot pins the epoch-collision fix the
// schedule explorer (internal/explore) found: two processes crashing with
// overlapping outages before any snapshot commits each restart knowing only
// a stale epoch. Under naive epoch+1 allocation both recoveries pick the
// same number, the later broadcast is fenced as stale everywhere, and the
// channel state the second crash destroyed (the ring token) is never
// re-created — the cluster stalls forever. The mod-n epoch allocation plus
// the stale-restarter relay must recover both restart orderings. A process
// that crashes again after its first restart, still before any snapshot
// commits, finds only the epoch record that restart wrote (snapshot id 0)
// and must restart from scratch again rather than look for snapshot 0.
func TestOverlappingCrashesBeforeFirstSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name     string
		first    ids.ProcID
		second   ids.ProcID
		secondAt time.Duration
	}{
		// Low id restarts first: the second restarter's higher residue wins
		// directly. High id first: the second broadcast arrives stale and
		// must be relayed by a live peer.
		{"low-then-high", 0, 1, 25 * time.Millisecond},
		{"high-then-low", 1, 0, 25 * time.Millisecond},
		{"same-twice", 1, 1, 400 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newHarness(t, 3, 7, workload.NewTokenRing(6000, 32, int64(time.Millisecond)))
			g.runUntilDone(t, 60*time.Second)

			h := newHarness(t, 3, 7, workload.NewTokenRing(6000, 32, int64(time.Millisecond)))
			h.k.CrashAt(20*time.Millisecond, tc.first)
			h.k.CrashAt(tc.secondAt, tc.second)
			// Relays make the per-crash rollback count vary; only require
			// completion and the golden final state.
			h.crashes = 0
			h.runUntilDone(t, 120*time.Second)
			gd, hd := g.digests(), h.digests()
			for i := range gd {
				if gd[i] != hd[i] {
					t.Errorf("process %d digest %#x, want golden %#x", i, hd[i], gd[i])
				}
			}
		})
	}
}

func TestLostWorkIsClusterWide(t *testing.T) {
	h := newHarness(t, 4, 6, workload.NewTokenRing(9000, 32, int64(time.Millisecond)))
	h.crashAt(2*time.Second, 1)
	h.runUntilDone(t, 240*time.Second)
	// Every process lost work, not just the crashed one — the contrast
	// with message logging, where only the victim replays.
	var victims int
	for _, r := range h.rollbacks {
		if r.lost > 0 {
			victims++
		}
	}
	if victims < 3 {
		t.Fatalf("only %d processes lost work; a global rollback wastes everyone's", victims)
	}
}
