package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/failure"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/output"
	"rollrec/internal/recovery"
	"rollrec/internal/timeline"
	"rollrec/internal/workload"
)

// D11 measures the output-commit latency (DESIGN §10) each style imposes on
// a client–server workload: how long an externally-visible reply waits
// between the server producing it and the protocol's commit rule allowing
// its release. This is where the paper's thesis lands for applications: FBL
// satisfies the rule by replication (determinants at f+1 hosts, no stable-
// storage write on the path), coordinated checkpointing waits for the next
// committed snapshot, and optimistic logging waits for the causal past to
// flush. The failure variant crashes the server mid-run and shows that
// outputs straddling the crash are released only after recovery completes.
func D11(ctx context.Context, seed int64) Table {
	t := Table{
		ID:    "D11",
		Title: "output-commit latency across styles (client–server, n=8)",
		Columns: []string{
			"profile", "style", "crash", "outputs", "committed",
			"commit mean", "p50", "p99",
		},
		Notes: []string{
			"FBL commits when the antecedent determinants reach f+1 hosts — replication over the",
			"existing piggyback channel, no synchronous stable write; stability returns on the next",
			"exchange, so latency is a couple of network round trips (one fewer at f=1);",
			"coordinated waits for the snapshot period; optimistic for the causal past to flush",
		},
	}

	const ffHorizon = 15 * time.Second
	for _, prof := range []struct {
		name string
		hw   node.Hardware
	}{{"1995", node.Profile1995()}, {"modern", node.ProfileModern()}} {
		for _, row := range d11Rows(ctx, seed, prof.hw, 0, ffHorizon, true) {
			r := row.run()
			if ctx.Err() != nil {
				return t
			}
			st := d11StatsOf(r.led)
			t.AddRow(prof.name, row.style, "none", st.total, st.committed,
				st.mean, st.p50, st.p99)
		}
	}

	// Failure variant (era hardware): crash the server at t=10s. The ledger
	// keeps each straddling output's original request time, so its latency
	// spans the whole outage — released only once recovery completes.
	const crashAt = 10 * time.Second
	for _, row := range d11Rows(ctx, seed, node.Profile1995(), crashAt, 25*time.Second, false) {
		r := row.run()
		if ctx.Err() != nil {
			return t
		}
		st := d11StatsOf(r.led)
		t.AddRow("1995", row.style, "server@10s", st.total, st.committed,
			st.mean, st.p50, st.p99)
		t.Notes = append(t.Notes, d11StraddleNote(row.style, r, crashAt))
	}
	return t
}

type d11Row struct {
	style string
	run   func() d11Run
}

// d11Rows enumerates the style configurations of one table block. The f=1
// FBL row only earns its place in the failure-free block (it isolates the
// no-holder-feedback case); the failure block keeps to one run per style.
func d11Rows(ctx context.Context, seed int64, hw node.Hardware, crashAt, horizon time.Duration, withF1 bool) []d11Row {
	row := func(style string, fam cluster.Family, f int) d11Row {
		return d11Row{style, func() d11Run { return d11Cell(ctx, seed, hw, fam, f, crashAt, horizon, nil) }}
	}
	rows := []d11Row{row("fbl f=2 nonblocking", cluster.FamilyFBL, 2)}
	if withF1 {
		rows = append(rows, row("fbl f=1 nonblocking", cluster.FamilyFBL, 1))
	}
	return append(rows,
		row("coordinated", cluster.FamilyCoordinated, 2),
		row("optimistic", cluster.FamilyOptimistic, 2))
}

// d11App is the shared workload: every client pipelines requests at the
// server forever (K exceeds what any horizon can drain), the server's
// replies are the externally-visible outputs.
func d11App() workload.Factory {
	return workload.NewClientServer(1<<20, 256, int64(time.Millisecond))
}

type d11Run struct {
	led *output.Ledger
	// recoveryEnd is the virtual instant the victim finished recovering
	// (0 without a crash).
	recoveryEnd time.Duration
}

type d11Stats struct {
	total, committed int
	mean, p50, p99   time.Duration
}

// d11StatsOf reduces a ledger to the table's row quantities. Quantiles are
// exact (sorted deltas), not histogram-bucketed.
func d11StatsOf(l *output.Ledger) d11Stats {
	ds := l.Deltas()
	st := d11Stats{total: l.Total(), committed: len(ds)}
	if len(ds) == 0 {
		return st
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	st.mean = sum / time.Duration(len(ds))
	st.p50 = ds[(len(ds)-1)*50/100]
	st.p99 = ds[(len(ds)-1)*99/100]
	return st
}

func d11StraddleNote(style string, r d11Run, crashAt time.Duration) string {
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
	return fmt.Sprintf("%s crash: %d outputs straddled it (%d released after); first release t=%s, recovery end t=%s",
		style, len(str), released, metrics.FmtDuration(first), metrics.FmtDuration(r.recoveryEnd))
}

// d11Cell runs the D11 client–server cell under one protocol family
// through the cluster harness (which wires the ledger) and reads the run's
// ledger back. f is FBL's failure budget. col, if non-nil, samples the run
// (see D11Timelines).
func d11Cell(ctx context.Context, seed int64, hw node.Hardware, fam cluster.Family, f int,
	crashAt, horizon time.Duration, col *timeline.Collector) d11Run {
	spec := comparator(PaperSpec(recovery.NonBlocking, seed), fam)
	spec.HW = hw
	spec.F = f
	spec.App = d11App()
	spec.Horizon = horizon
	spec.TrackOutputs = true
	spec.Timeline = col
	if crashAt > 0 {
		spec.Crashes = failure.Plan{{At: crashAt, Proc: 0}}
	}
	r := runRow(ctx, spec)
	return d11Run{led: r.C.Outputs(), recoveryEnd: r.recoveryEnd(0)}
}
