package experiments

import (
	"context"
	"fmt"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/output"
	"rollrec/internal/recovery"
	"rollrec/internal/timeline"
	"rollrec/internal/traffic"
	"rollrec/internal/workload"
)

// D12 drives the open-loop multi-tier traffic engine (DESIGN §12) against
// all three styles and reports what the user sees: the client tier's
// request-to-release percentiles under each style's output-commit rule.
// Open loop is the point — arrivals keep coming at the offered rate no
// matter what the cluster is doing, so commit stalls surface as tail
// latency and downtime surfaces as shed load, exactly as they would for
// an outside caller. The sweep crosses offered load x arrival process,
// and the failure variant crashes a backend mid-run to show the
// straddling requests riding out recovery.
func D12(ctx context.Context, seed int64) Table {
	t := Table{
		ID: "D12",
		Title: fmt.Sprintf("open-loop traffic: user-visible commit latency (n=%d, %d clients / %d frontends / %d backends, fan-out %d)",
			d12Base().N(), d12Base().Clients, d12Base().Frontends, d12Base().Backends, d12Base().FanOut),
		Columns: []string{
			"load", "arrival", "style", "crash", "offered", "shed", "released",
			"client p50", "client p99", "client p99.9",
		},
		Notes: []string{
			"released = client-tier outputs committed within the horizon; the client tier releases",
			"responses in admission order, so one straggling shard holds the line behind it — the",
			"open-loop p99.9 is where the styles' commit rules separate",
		},
	}

	const ffHorizon = 15 * time.Second
	base := d12Base()
	for _, load := range []int{100, 250} {
		tr := base
		tr.Load = load
		for _, row := range d12Rows(ctx, seed, tr, 0, ffHorizon) {
			r := row.run()
			if ctx.Err() != nil {
				return t
			}
			d12AddRow(&t, tr, row.style, "none", r)
		}
	}

	// Heavy tail: same offered load, bounded-Pareto gaps. Bursts pile
	// requests onto the same window, so the tail stretches with no change
	// in mean load.
	pareto := base
	pareto.Arrival = workload.ArrivalPareto
	for _, row := range d12Rows(ctx, seed, pareto, 0, ffHorizon) {
		r := row.run()
		if ctx.Err() != nil {
			return t
		}
		d12AddRow(&t, pareto, row.style, "none", r)
	}

	// Failure variant: crash a backend at t=10s under full load. Requests
	// whose shards straddle the crash release only after recovery ends.
	const crashAt = 10 * time.Second
	crash := base
	for _, row := range d12Rows(ctx, seed, crash, crashAt, 25*time.Second) {
		r := row.run()
		if ctx.Err() != nil {
			return t
		}
		d12AddRow(&t, crash, row.style, fmt.Sprintf("backend@%s", crashAt), r)
		t.Notes = append(t.Notes, d12StraddleNote(row.style, r, crashAt))
	}
	return t
}

// d12Base is the D12 topology: eight processes split 2/2/4 with fan-out 2,
// payloads padded like the D11 client–server. The load levels are set by
// the 1995 profile's per-message CPU cost (1 ms to send or receive), not
// by the 500 µs application work: each request costs a frontend about six
// message handlings, so the two frontends saturate near ~330 req/s before
// logging overhead. 100 req/s is the comfortable cell where the latency
// columns isolate the styles' commit rules; 250 req/s deliberately sits
// at the saturation knee, where open-loop queueing compounds them — the
// regime a closed-loop workload cannot produce at all.
func d12Base() workload.Traffic {
	return workload.Traffic{
		Clients:    2,
		Frontends:  2,
		Backends:   4,
		FanOut:     2,
		Load:       250,
		WorkPerHop: int64(500 * time.Microsecond),
		PayloadPad: 256,
	}
}

// d12Victim is the crash target: the last backend. Clients are excluded on
// FBL soundness grounds (see fbl.Process.Inject); a backend victim keeps
// the three styles' failure variants comparable.
func d12Victim(tr workload.Traffic) ids.ProcID { return ids.ProcID(tr.N() - 1) }

type d12Row struct {
	style string
	run   func() d12Run
}

// d12Rows enumerates one table block: the paper's FBL against the two
// alternative styles, all hosting the same traffic spec and seed.
func d12Rows(ctx context.Context, seed int64, tr workload.Traffic, crashAt, horizon time.Duration) []d12Row {
	row := func(style string, fam cluster.Family) d12Row {
		return d12Row{style, func() d12Run { return d12Cell(ctx, seed, fam, tr, crashAt, horizon, nil) }}
	}
	return []d12Row{
		row("fbl f=2 nonblocking", cluster.FamilyFBL),
		row("coordinated", cluster.FamilyCoordinated),
		row("optimistic", cluster.FamilyOptimistic),
	}
}

type d12Run struct {
	led *output.Ledger
	eng *traffic.Engine
	// recoveryEnd is the virtual instant the victim finished recovering
	// (0 without a crash).
	recoveryEnd time.Duration
}

func d12AddRow(t *Table, tr workload.Traffic, style, crash string, r d12Run) {
	st := traffic.StatsPerTier(r.led, tr)
	cl := st[workload.TierClient]
	t.AddRow(tr.Load, tr.Arrival, style, crash, r.eng.Offered(), r.eng.Shed(),
		cl.Committed, cl.P50, cl.P99, cl.P999)
}

func d12StraddleNote(style string, r d12Run, crashAt time.Duration) string {
	str := r.led.Straddling(int64(crashAt))
	released := 0
	var first time.Duration
	for _, rec := range str {
		if !rec.Committed() {
			continue
		}
		released++
		if c := time.Duration(rec.CommittedAt); first == 0 || c < first {
			first = c
		}
	}
	return fmt.Sprintf("%s crash: %d outputs straddled it (%d released after), %d arrivals shed; first release t=%s, recovery end t=%s",
		style, len(str), released, r.eng.Shed(), metrics.FmtDuration(first), metrics.FmtDuration(r.recoveryEnd))
}

// d12Cell hosts the traffic spec under one protocol family on the cluster
// harness: Spec.Traffic installs the app and Run attaches the engine. col,
// if non-nil, samples the run (see D12Timelines).
func d12Cell(ctx context.Context, seed int64, fam cluster.Family, tr workload.Traffic,
	crashAt, horizon time.Duration, col *timeline.Collector) d12Run {
	spec := comparator(PaperSpec(recovery.NonBlocking, seed), fam)
	spec.N = tr.N()
	spec.App = nil
	spec.Traffic = &tr
	spec.Horizon = horizon
	spec.TrackOutputs = true
	spec.Timeline = col
	if crashAt > 0 {
		spec.Crashes = failure.Plan{{At: crashAt, Proc: d12Victim(tr)}}
	}
	r := runRow(ctx, spec)
	return d12Run{led: r.C.Outputs(), eng: r.Traffic, recoveryEnd: r.recoveryEnd(d12Victim(tr))}
}

// D12Timeline is one style's sampled crash-under-load run.
type D12Timeline struct {
	Style  string
	Export *timeline.Export
}

// D12Timelines reruns the D12 failure variant (backend crash at crashAt
// under the experiment's full 250 req/s offered load; zero values select the
// experiment's 10 s / 25 s cell) under each style with a tiered timeline
// collector attached: the exports carry the per-tier in-flight and
// output-commit series on top of the usual lanes. Sampling is
// observation-only, so each run's event sequence is identical to its
// unsampled D12 counterpart.
func D12Timelines(ctx context.Context, seed int64, interval, crashAt, horizon time.Duration) []D12Timeline {
	if crashAt <= 0 {
		crashAt = 10 * time.Second
	}
	if horizon <= 0 {
		horizon = 25 * time.Second
	}
	return d12Timelines(ctx, seed, d12Base(), interval, crashAt, horizon)
}

// d12Timelines samples the crash variant of an arbitrary traffic spec (the
// tests use a lighter cell than the experiment's).
func d12Timelines(ctx context.Context, seed int64, tr workload.Traffic, interval, crashAt, horizon time.Duration) []D12Timeline {
	var out []D12Timeline
	for _, fam := range families {
		col := timeline.New(timeline.Config{
			Interval: interval,
			N:        tr.N(),
			Label:    "D12/" + string(fam) + " load=" + fmt.Sprint(tr.Load) + " crash@" + crashAt.String(),
			Tiers:    tr.TierSizes(),
		})
		d12Cell(ctx, seed, fam, tr, crashAt, horizon, col)
		out = append(out, D12Timeline{Style: string(fam), Export: col.Export()})
	}
	return out
}
