package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/failure"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
	"rollrec/internal/workload"
)

func TestTableRendering(t *testing.T) {
	tab := Table{
		ID:      "T0",
		Title:   "demo",
		Columns: []string{"name", "dur", "count", "ratio"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("x", 34*time.Millisecond, 7, 0.5)
	tab.AddRow("longer-name", 4900*time.Millisecond, 100, 2.0)
	out := tab.String()
	for _, want := range []string{"T0 — demo", "34.0ms", "4.90s", "longer-name", "0.50", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header, separator, two rows, one note, plus title line.
	if len(lines) != 6 {
		t.Fatalf("rendered %d lines, want 6:\n%s", len(lines), out)
	}
}

func TestBreakdownOf(t *testing.T) {
	if b := BreakdownOf(nil); b.Total != 0 {
		t.Fatal("nil trace must give a zero breakdown")
	}
	tr := &metrics.RecoveryTrace{
		CrashedAt:   1000,
		RestartedAt: 4000,
		RestoredAt:  6000,
		GatheredAt:  7000,
		ReplayedAt:  9000,
	}
	b := BreakdownOf(tr)
	if b.DetectRestart != 3000 || b.Restore != 2000 || b.Gather != 1000 ||
		b.Replay != 2000 || b.Total != 8000 {
		t.Fatalf("breakdown = %+v", b)
	}
	if b := BreakdownOf(&metrics.RecoveryTrace{CrashedAt: 5}); b.Total != 0 {
		t.Fatal("incomplete trace must give zero breakdown")
	}
}

// fastSpec is a miniature experiment configuration so the package test
// exercises the full Run/MustRun/Victim/LiveBlocked path in milliseconds.
func fastSpec(style recovery.Style) Spec {
	hw := node.Profile1995()
	hw.WatchdogDetect = 200 * time.Millisecond
	hw.RestartDelay = 50 * time.Millisecond
	hw.SuspectAfter = 300 * time.Millisecond
	hw.HeartbeatEvery = 50 * time.Millisecond
	hw.CPUMsgCost = 50 * time.Microsecond
	hw.CPUByteCost = 0
	hw.Disk.Latency = time.Millisecond
	hw.Disk.ReadBandwidth = 100e6
	hw.Disk.WriteBandwidth = 100e6
	return Spec{
		Config: cluster.Config{
			N: 4, F: 2, Style: style, Seed: 3, HW: hw,
			App:             workload.NewRandomPeer(1, 1_000_000, 32, int64(200*time.Microsecond)),
			CheckpointEvery: 500 * time.Millisecond,
			StatePad:        8 << 10,
		},
		Crashes: failure.Plan{{At: time.Second, Proc: 1}},
		Horizon: 5 * time.Second,
	}
}

func TestRunCollectsVictimAndBlocked(t *testing.T) {
	r := MustRun(context.Background(), fastSpec(recovery.Blocking))
	tr := r.Victim(1)
	if tr == nil || tr.ReplayedAt == 0 {
		t.Fatal("victim trace incomplete")
	}
	mean, max := r.LiveBlocked()
	if mean == 0 || max < mean {
		t.Fatalf("blocked stats wrong: mean=%v max=%v", mean, max)
	}
	msgs, bytes := r.RecoveryTraffic()
	if msgs == 0 || bytes == 0 {
		t.Fatal("recovery traffic must be counted")
	}
}

func TestNonBlockingRunBlocksNobody(t *testing.T) {
	r := MustRun(context.Background(), fastSpec(recovery.NonBlocking))
	if mean, max := r.LiveBlocked(); mean != 0 || max != 0 {
		t.Fatalf("nonblocking run blocked lives: mean=%v max=%v", mean, max)
	}
}

// TestIndex: the index lists E1, E2, D1…D12 in order, and every entry,
// run with an already-cancelled context, returns promptly with a table
// whose ID matches its entry.
func TestIndex(t *testing.T) {
	want := []string{"E1", "E2"}
	for i := 1; i <= 12; i++ {
		want = append(want, fmt.Sprintf("D%d", i))
	}
	if len(Index) != len(want) {
		t.Fatalf("Index has %d entries, want %d", len(Index), len(want))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, e := range Index {
		if e.ID != want[i] {
			t.Errorf("Index[%d].ID = %s, want %s", i, e.ID, want[i])
		}
		if got := e.Run(ctx, 1).ID; got != e.ID {
			t.Errorf("%s returned a table with ID %q", e.ID, got)
		}
	}
}
