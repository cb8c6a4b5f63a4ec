package experiments

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/node"
)

// TestD11Deterministic runs the failure-free style trio twice at a short
// horizon and demands byte-identical ledger statistics: D11's tables must
// reproduce exactly for a given seed.
func TestD11Deterministic(t *testing.T) {
	render := func() string {
		var out string
		for _, row := range d11Rows(context.Background(), 1, node.Profile1995(), 0, 6*time.Second, false) {
			st := d11StatsOf(row.run().led)
			if st.committed == 0 {
				t.Errorf("%s: no outputs committed", row.style)
			}
			out += fmt.Sprintf("%s %d %d %v %v %v\n",
				row.style, st.total, st.committed, st.mean, st.p50, st.p99)
		}
		return out
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("two identical D11 runs disagree:\n--- first\n%s--- second\n%s", a, b)
	}
}

// TestD11StraddlersReleaseAfterRecovery is the failure-variant invariant:
// outputs requested before the server's crash but not yet committed may only
// commit once its recovery completes — never during the outage.
func TestD11StraddlersReleaseAfterRecovery(t *testing.T) {
	const crashAt = 3 * time.Second
	r := d11Cell(context.Background(), 1, node.Profile1995(), cluster.FamilyFBL, 2, crashAt, 12*time.Second, nil)
	if r.recoveryEnd <= crashAt {
		t.Fatalf("victim never recovered (recovery end %v)", r.recoveryEnd)
	}
	str := r.led.Straddling(int64(crashAt))
	if len(str) == 0 {
		t.Fatal("no outputs straddled the crash; the scenario lost its point")
	}
	released := 0
	for _, rec := range str {
		if !rec.Committed() {
			continue
		}
		released++
		if got := time.Duration(rec.CommittedAt); got < r.recoveryEnd {
			t.Errorf("output %d/%d committed at %v, before recovery ended at %v",
				rec.Proc, rec.Seq, got, r.recoveryEnd)
		}
	}
	if released == 0 {
		t.Fatal("no straddling output was ever released")
	}
}
