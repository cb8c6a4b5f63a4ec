package experiments

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/traffic"
	"rollrec/internal/workload"
)

// d12TestTraffic is the lighter cell the tests drive: same 2/2/4 topology
// as the experiment, well under its 250 req/s heavy cell so the suite
// stays fast.
func d12TestTraffic() workload.Traffic {
	tr := d12Base()
	tr.Load = 150
	return tr
}

// d12Pins are the FNV-64 hashes of each style's rendered row in
// TestD12Deterministic. A consistent behaviour change passes the run-twice
// comparison; these pins catch it.
var d12Pins = map[string]uint64{
	"fbl f=2 nonblocking": 0xc61ea9db640d41a3,
	"coordinated":         0x26326e89e2ecd9b9,
	"optimistic":          0x7ce414b585229397,
}

// TestD12Deterministic runs the failure-free style trio twice at a short
// horizon and demands identical tables: the open-loop engine must be a
// pure function of (seed, spec). Each style's row must also hash to its
// pinned value.
func TestD12Deterministic(t *testing.T) {
	tr := d12TestTraffic()
	rows := map[string]string{}
	render := func() string {
		var out string
		for _, row := range d12Rows(context.Background(), 1, tr, 0, 6*time.Second) {
			r := row.run()
			st := traffic.StatsPerTier(r.led, tr)
			cl := st[workload.TierClient]
			if cl.Committed == 0 {
				t.Errorf("%s: no client outputs committed", row.style)
			}
			if r.eng.Offered() == 0 {
				t.Errorf("%s: engine offered nothing", row.style)
			}
			line := fmt.Sprintf("%s %d %d %d %v %v %v\n",
				row.style, r.eng.Offered(), r.eng.Shed(), cl.Committed, cl.P50, cl.P99, cl.P999)
			rows[row.style] = line
			out += line
		}
		return out
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("two identical D12 runs disagree:\n--- first\n%s--- second\n%s", a, b)
	}
	for style, want := range d12Pins {
		if got := fnv64([]byte(rows[style])); got != want {
			t.Errorf("%s: row %q hashes to %#x, pinned %#x", style, rows[style], got, want)
		}
	}
	if len(rows) != len(d12Pins) {
		t.Errorf("%d styles rendered, %d pinned", len(rows), len(d12Pins))
	}
}

// TestD12CrashUnderLoadStraddlers is the failure-variant invariant under
// open-loop load: with a backend crashed mid-run, (a) the victim's
// straddling outputs release only after its recovery completes, and (b)
// user-visible releases stall — the client tier releases in admission
// order, so once a request's shard is stuck on the dead backend the
// release cursor freezes, and requests admitted before the crash come out
// only after recovery ends.
func TestD12CrashUnderLoadStraddlers(t *testing.T) {
	const crashAt = 3 * time.Second
	tr := d12TestTraffic()
	victim := d12Victim(tr)
	r := d12Cell(context.Background(), 1, cluster.FamilyFBL, tr, crashAt, 12*time.Second, nil)
	if r.recoveryEnd <= crashAt {
		t.Fatalf("victim never recovered (recovery end %v)", r.recoveryEnd)
	}
	victimStr := 0
	for _, rec := range r.led.Straddling(int64(crashAt)) {
		if rec.Proc != victim {
			continue
		}
		victimStr++
		if rec.Committed() && time.Duration(rec.CommittedAt) < r.recoveryEnd {
			t.Errorf("victim output %d/%d committed at %v, before recovery ended at %v",
				rec.Proc, rec.Seq, time.Duration(rec.CommittedAt), r.recoveryEnd)
		}
	}
	if victimStr == 0 {
		t.Error("no victim outputs straddled the crash; the scenario lost its point")
	}

	// The client-side ledger record opens at release time (the app requests
	// the output when the reply reaches the head of the admission queue),
	// so the stall shows up as a gap in RequestedAt: in-flight requests
	// drain within the grace window, then nothing releases until the
	// victim has recovered and the stuck shards replay.
	grace := int64(crashAt + 500*time.Millisecond)
	resumed := false
	for _, rec := range r.led.Records() {
		if tr.TierOf(rec.Proc) != workload.TierClient {
			continue
		}
		if rec.RequestedAt >= grace && rec.RequestedAt < int64(r.recoveryEnd) {
			t.Errorf("client %d released output %d at %v, inside the outage stall",
				rec.Proc, rec.Seq, time.Duration(rec.RequestedAt))
		}
		if rec.RequestedAt >= int64(r.recoveryEnd) && rec.Committed() {
			resumed = true
		}
	}
	if !resumed {
		t.Error("client releases never resumed after recovery")
	}
	if st := traffic.StatsPerTier(r.led, tr); st[workload.TierClient].Committed == 0 {
		t.Error("no client outputs committed at all")
	}
}

// d12TestTimelines samples the short crash cell (backend crash at 3 s,
// 12 s horizon) at the test load.
func d12TestTimelines(t *testing.T) []D12Timeline {
	t.Helper()
	return d12Timelines(context.Background(), 1, d12TestTraffic(),
		100*time.Millisecond, 3*time.Second, 12*time.Second)
}

// TestD12TimelinesDeterministic: two invocations of the sampled cells must
// export byte-identical JSON and CSV for every style (run under -cpu 1,4
// in CI: GOMAXPROCS must not leak into the series).
func TestD12TimelinesDeterministic(t *testing.T) {
	render := func() map[string][2][]byte {
		out := map[string][2][]byte{}
		for _, tl := range d12TestTimelines(t) {
			var j, c bytes.Buffer
			if err := tl.Export.Encode(&j); err != nil {
				t.Fatal(err)
			}
			if err := tl.Export.EncodeCSV(&c); err != nil {
				t.Fatal(err)
			}
			out[tl.Style] = [2][]byte{j.Bytes(), c.Bytes()}
		}
		return out
	}
	a, b := render(), render()
	for style, fa := range a {
		fb := b[style]
		if !bytes.Equal(fa[0], fb[0]) {
			t.Errorf("%s: JSON exports differ across identical runs", style)
		}
		if !bytes.Equal(fa[1], fb[1]) {
			t.Errorf("%s: CSV exports differ across identical runs", style)
		}
	}
}

// TestD12TimelinesTiered: D12 exports carry the v2 per-tier series — the
// tier partition in meta, per-tier in-flight gauges that are actually
// non-zero under load, and per-tier output windows with client-tier
// observations.
func TestD12TimelinesTiered(t *testing.T) {
	tr := d12TestTraffic()
	for _, tl := range d12TestTimelines(t) {
		e := tl.Export
		if got, want := fmt.Sprint(e.Meta.Tiers), fmt.Sprint(tr.TierSizes()); got != want {
			t.Errorf("%s: meta tiers %s, want %s", tl.Style, got, want)
			continue
		}
		sawInflight, sawClientDist := false, false
		for _, tk := range e.Ticks {
			if len(tk.InflightReq) != 3 || len(tk.TierOutput) != 3 {
				t.Errorf("%s: tick t=%v has %d/%d tier lanes, want 3/3",
					tl.Style, tk.TMS, len(tk.InflightReq), len(tk.TierOutput))
				break
			}
			if tk.InflightReq[workload.TierClient] > 0 {
				sawInflight = true
			}
			if tk.TierOutput[workload.TierClient].N > 0 {
				sawClientDist = true
			}
		}
		if !sawInflight {
			t.Errorf("%s: client tier never held an open request", tl.Style)
		}
		if !sawClientDist {
			t.Errorf("%s: client tier never recorded an output window", tl.Style)
		}
	}
}
