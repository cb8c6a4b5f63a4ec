package rollrec

import (
	"testing"
	"time"
)

// fastHardware shrinks every timeout so public-API tests run in
// milliseconds of wall time.
func fastHardware() Hardware {
	hw := Profile1995()
	hw.WatchdogDetect = 200 * time.Millisecond
	hw.RestartDelay = 50 * time.Millisecond
	hw.SuspectAfter = 300 * time.Millisecond
	hw.HeartbeatEvery = 50 * time.Millisecond
	hw.CPUMsgCost = 20 * time.Microsecond
	hw.CPUByteCost = 0
	hw.Disk.Latency = time.Millisecond
	hw.Disk.ReadBandwidth = 100e6
	hw.Disk.WriteBandwidth = 100e6
	return hw
}

// TestPublicAPIEndToEnd drives the documented quick-start flow: build a
// cluster, inject a failure, wait, check invariants, read the trace.
func TestPublicAPIEndToEnd(t *testing.T) {
	c := NewCluster(Config{
		N:               4,
		F:               2,
		Seed:            1,
		HW:              fastHardware(),
		Style:           NonBlocking,
		App:             TokenRing(800, 32, int64(500*time.Microsecond)),
		CheckpointEvery: 300 * time.Millisecond,
		StatePad:        8 << 10,
	})
	c.Crash(800*time.Millisecond, 1)
	if !c.RunUntilDone(500*time.Millisecond, time.Minute) {
		t.Fatal("cluster did not settle")
	}
	if errs := c.Check(); len(errs) != 0 {
		t.Fatalf("invariants violated: %v", errs)
	}
	tr := c.Metrics(1).CurrentRecovery()
	if tr == nil || tr.Total() == 0 {
		t.Fatal("recovery trace missing")
	}
	if c.Metrics(0).BlockedTotal() != 0 {
		t.Fatal("nonblocking style blocked a live process")
	}
}

func TestAllWorkloadFactoriesConstruct(t *testing.T) {
	for name, f := range map[string]AppFactory{
		"ring":   TokenRing(10, 0, 0),
		"gossip": Gossip(1, 5, 0, 0),
		"cs":     ClientServer(3, 0, 0),
	} {
		app := f(1, 4)
		if app == nil {
			t.Fatalf("%s: nil app", name)
		}
		if _, err := f(1, 4).Snapshot(), error(nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if Figure1(5)(2, 3) == nil {
		t.Fatal("figure1 factory failed")
	}
}

func TestProfilesExposed(t *testing.T) {
	if Profile1995().WatchdogDetect <= ProfileModern().WatchdogDetect {
		t.Fatal("1995 detection must be slower than modern")
	}
	if DefaultCheckpointEvery <= 0 {
		t.Fatal("default checkpoint interval must be positive")
	}
}

func TestPlanHelpersExposed(t *testing.T) {
	p := Plan{{At: 2 * time.Second, Proc: 1}, {At: time.Second, Proc: 0}}
	if s := p.Sorted(); s[0].Proc != 0 {
		t.Fatal("Plan.Sorted not working through the facade")
	}
	if p.MaxConcurrent(5*time.Second) != 2 {
		t.Fatal("Plan.MaxConcurrent not working through the facade")
	}
}
