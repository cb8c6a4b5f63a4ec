package cluster

import (
	"testing"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
	"rollrec/internal/workload"
)

// fastHW shrinks all timeouts so integration tests cover many virtual
// seconds cheaply while preserving the 1995 profile's structure.
func fastHW() node.Hardware {
	hw := node.Profile1995()
	hw.WatchdogDetect = 300 * time.Millisecond
	hw.RestartDelay = 50 * time.Millisecond
	hw.SuspectAfter = 400 * time.Millisecond
	hw.HeartbeatEvery = 50 * time.Millisecond
	hw.Disk.Latency = 2 * time.Millisecond
	hw.Disk.ReadBandwidth = 50e6
	hw.Disk.WriteBandwidth = 50e6
	return hw
}

func ringConfig(style recovery.Style, seed int64) Config {
	return Config{
		N:               4,
		F:               2,
		Seed:            seed,
		HW:              fastHW(),
		Style:           style,
		App:             workload.NewTokenRing(400, 64, int64(100*time.Microsecond)),
		CheckpointEvery: 500 * time.Millisecond,
		StatePad:        4 << 10,
	}
}

func mustCheck(t *testing.T, c *Cluster) {
	t.Helper()
	for _, err := range c.Check() {
		t.Error(err)
	}
}

func TestFailureFreeRing(t *testing.T) {
	c := New(ringConfig(recovery.NonBlocking, 1))
	if !c.RunUntilDone(time.Second, 60*time.Second) {
		t.Fatal("ring did not complete")
	}
	mustCheck(t, c)
	// Every process delivered roughly maxHops/n tokens.
	var total int64
	for i := 0; i < 4; i++ {
		total += c.Metrics(ids.ProcID(i)).Delivered
	}
	if total != 400 {
		t.Fatalf("total deliveries = %d, want 400", total)
	}
}

// goldenDigest runs the failure-free execution and returns the final ring
// accumulator, which any correct failure run must reproduce exactly.
func goldenDigest(t *testing.T, seed int64) []uint64 {
	t.Helper()
	c := New(ringConfig(recovery.NonBlocking, seed))
	if !c.RunUntilDone(time.Second, 60*time.Second) {
		t.Fatal("golden run did not complete")
	}
	return c.Digests()
}

func TestDeterminism(t *testing.T) {
	a := goldenDigest(t, 7)
	b := goldenDigest(t, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverged at process %d", i)
		}
	}
}

func TestSingleFailureRecovery(t *testing.T) {
	for _, style := range []recovery.Style{recovery.NonBlocking, recovery.Blocking} {
		t.Run(style.String(), func(t *testing.T) {
			golden := goldenDigest(t, 11)
			c := New(ringConfig(style, 11))
			c.Crash(2*time.Second, 1)
			if !c.RunUntilDone(time.Second, 120*time.Second) {
				t.Fatal("ring did not complete after crash")
			}
			mustCheck(t, c)
			// The ring is one causal chain: the recovered execution must
			// reach the identical final state.
			got := c.Digests()
			for i := range golden {
				if got[i] != golden[i] {
					t.Errorf("process %d digest %#x, want golden %#x", i, got[i], golden[i])
				}
			}
			tr := c.Metrics(1).CurrentRecovery()
			if tr == nil || tr.Total() == 0 {
				t.Fatal("no completed recovery trace")
			}
		})
	}
}

// TestLargeClusterBeyondOldCap runs a 96-process cluster — beyond the 64
// the kernel was capped at before the flat-heap scheduler — through a
// crash and recovery, and checks the recovered execution reproduces the
// failure-free digests. Holder bitsets, the wire codec, and the
// determinant tables are all width-agnostic; this pins that no hidden
// 64-bit assumption crept back in.
func TestLargeClusterBeyondOldCap(t *testing.T) {
	const n = 96
	large := func(seed int64) Config {
		cfg := ringConfig(recovery.NonBlocking, seed)
		cfg.N = n
		cfg.F = 1
		// The fastHW 1995-style CPU cost (1 ms per delivery) cannot sustain
		// full-mesh heartbeats at n=96 — 95 heartbeats per period would cost
		// more CPU than the period — so the large cluster runs on modern
		// per-message costs and a slower heartbeat.
		cfg.HW.CPUMsgCost = 5 * time.Microsecond
		cfg.HW.CPUByteCost = 0
		cfg.HW.HeartbeatEvery = 250 * time.Millisecond
		cfg.HW.SuspectAfter = time.Second
		return cfg
	}
	golden := New(large(5))
	if !golden.RunUntilDone(time.Second, 120*time.Second) {
		t.Fatal("failure-free large ring did not complete")
	}
	mustCheck(t, golden)

	c := New(large(5))
	c.Crash(2*time.Second, 17)
	if !c.RunUntilDone(time.Second, 240*time.Second) {
		t.Fatal("large ring did not complete after crash")
	}
	mustCheck(t, c)
	want, got := golden.Digests(), c.Digests()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("process %d digest %#x, want golden %#x", i, got[i], want[i])
		}
	}
	if tr := c.Metrics(17).CurrentRecovery(); tr == nil || tr.Total() == 0 {
		t.Fatal("no completed recovery trace for the victim")
	}
}

func TestBlockingStyleBlocksLives(t *testing.T) {
	c := New(ringConfig(recovery.Blocking, 13))
	c.Crash(2*time.Second, 1)
	if !c.RunUntilDone(time.Second, 120*time.Second) {
		t.Fatal("did not complete")
	}
	if errs := c.Check(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	var blocked time.Duration
	for i := 0; i < 4; i++ {
		if ids.ProcID(i) == 1 {
			continue
		}
		blocked += c.Metrics(ids.ProcID(i)).BlockedTotal()
	}
	if blocked == 0 {
		t.Fatal("blocking style produced zero live blocked time")
	}
	// And the nonblocking run of the same schedule blocks nobody (checked
	// inside Check for NonBlocking, asserted explicitly here).
	c2 := New(ringConfig(recovery.NonBlocking, 13))
	c2.Crash(2*time.Second, 1)
	if !c2.RunUntilDone(time.Second, 120*time.Second) {
		t.Fatal("nonblocking run did not complete")
	}
	mustCheck(t, c2)
}

// TestSettledAfterRedundantCrash: a plan that crashes a process again while
// it is still down schedules two crashes, but the kernel applies only one.
// Once both have fired, Settled must compare recoveries against the crash
// applied, as Check does, rather than against the plan length.
func TestSettledAfterRedundantCrash(t *testing.T) {
	c := New(ringConfig(recovery.NonBlocking, 1))
	c.Crash(300*time.Millisecond, 1)
	c.Crash(310*time.Millisecond, 1)
	if !c.RunUntilDone(time.Second, 60*time.Second) {
		t.Fatalf("never settled: done=%v applied=%d recovered=%d",
			c.AllDone(), c.K.CrashesApplied(), c.LiveAgain())
	}
	if got := c.K.CrashesApplied(); got != 1 {
		t.Fatalf("%d crashes applied, want 1", got)
	}
	mustCheck(t, c)
}

// TestComparatorFamilies runs the token ring under coordinated
// checkpointing and optimistic logging with one crash: each run settles,
// passes its family's check, and ends in the crash-free state.
func TestComparatorFamilies(t *testing.T) {
	for _, fam := range []Family{FamilyCoordinated, FamilyOptimistic} {
		cfg := ringConfig(recovery.NonBlocking, 1)
		cfg.Family = fam
		golden := New(cfg)
		if !golden.RunUntilDone(time.Second, 60*time.Second) {
			t.Fatalf("%s: golden run did not settle", fam)
		}
		c := New(cfg)
		c.Crash(300*time.Millisecond, 1)
		if !c.RunUntilDone(time.Second, 60*time.Second) {
			t.Fatalf("%s: crash run did not settle", fam)
		}
		mustCheck(t, c)
		want, got := golden.Digests(), c.Digests()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: proc %d digest %#x, crash-free %#x", fam, i, got[i], want[i])
			}
		}
		if c.Proc(0) != nil {
			t.Errorf("%s: Proc returned an FBL instance", fam)
		}
	}
}
