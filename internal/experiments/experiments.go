// Package experiments reproduces the paper's evaluation (§5) and the
// derived sweeps its argument calls for. Each experiment returns a Table
// whose rows correspond to the quantities the paper reports; see DESIGN.md
// §3 for the experiment index and EXPERIMENTS.md for paper-vs-measured.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
	"rollrec/internal/timeline"
	"rollrec/internal/trace"
	"rollrec/internal/traffic"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// DefaultTracer, if non-nil, is attached to every run whose Spec carries no
// tracer of its own. The experiments CLI sets it to capture recovery-phase
// spans across a whole experiment.
var DefaultTracer trace.Tracer

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, stringifying the cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case time.Duration:
			row[i] = metrics.FmtDuration(v)
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i := range t.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", width[i]))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Spec describes one simulated run: the cluster it builds plus the crash
// plan, horizon, and optional sampler and traffic that drive it.
type Spec struct {
	// Config is the cluster under test. A nil Tracer falls back to
	// DefaultTracer on the classic kernel only: DefaultTracer is not safe
	// for shard goroutines, so an explicit Tracer on a sharded spec must be
	// concurrency-safe. Sharded specs (Shards > 0, required for the n=1024
	// cells) cannot host Timeline, TrackOutputs, or Traffic, which all need
	// the classic kernel's cluster-wide instants. TrackOutputs' ledger is
	// read back with Result.C.Outputs().
	cluster.Config
	Crashes failure.Plan
	Horizon time.Duration
	// Timeline, if non-nil, is attached to the run's cluster before events
	// flow: the kernel samples it at the collector's interval (DESIGN §11).
	// Sampling is observation-only — it changes no event ordering — so a
	// spec with a collector simulates the exact run it would without one.
	Timeline *timeline.Collector
	// Traffic, if non-nil, replaces App with the open-loop multi-tier
	// serving workload (DESIGN §12): Run hosts traffic.NewApp(*Traffic) and
	// attaches a traffic.Engine driving seeded arrivals at the client tier
	// until the horizon. The spec's N must equal Traffic.N(), and — because
	// FBL replay cannot regenerate injected arrivals — an FBL spec's crash
	// plan must not target the client tier; Run panics on either misuse.
	// Coordinated rollback discards injected arrivals with the rest of the
	// cut, and optimistic logging logs them, so neither has that limit.
	// Read the engine back via Result.Traffic.
	Traffic *workload.Traffic
}

// PaperSpec is the baseline configuration modeled on the paper's testbed:
// eight workstations, f = 2, ~1 MB process images, an active irregular
// workload, and era hardware. The experiments and the bench sweep harness
// both derive their scenarios from it, so the paper tables and the sweep
// snapshots can never drift apart.
func PaperSpec(style recovery.Style, seed int64) Spec {
	return Spec{
		Config: cluster.Config{
			N:     8,
			F:     2,
			Style: style,
			Seed:  seed,
			HW:    node.Profile1995(),
			// A long-TTL gossip keeps every process busy throughout the
			// run; one chain per process with ~1 ms of work per delivery
			// keeps the simulated message rate at roughly what the paper's
			// testbed could sustain.
			App:             workload.NewRandomPeer(1, 1_000_000, 256, int64(time.Millisecond)),
			CheckpointEvery: 4 * time.Second,
			StatePad:        1 << 20, // ~1 MB process state
		},
		Horizon: 25 * time.Second,
	}
}

// Result captures what the experiments read out of a finished run.
type Result struct {
	C    *cluster.Cluster
	Spec Spec
	// Errors are the cross-process invariant violations found after the
	// run (empty on a consistent run).
	Errors []error
	// Events is the number of simulator events processed — the
	// deterministic cost of simulating the scenario, independent of the
	// host's wall clock.
	Events int64
	// Traffic is the arrival engine of a Spec.Traffic run (offered /
	// admitted / shed readouts); nil otherwise.
	Traffic  *traffic.Engine
	recStart map[ids.ProcID]int64
}

// Run executes a spec to its horizon, or until ctx is done, and returns the
// collected result. On cancellation the returned Result covers the prefix
// of virtual time that ran (its invariants are NOT checked — a cut-short
// run is consistent but incomplete) and the error is ctx's.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	cfg := spec.Config
	if cfg.Tracer == nil && cfg.Shards == 0 {
		cfg.Tracer = DefaultTracer
	}
	if spec.Traffic != nil {
		if spec.Shards > 0 {
			panic("experiments: Traffic needs the classic kernel (Shards=0); " +
				"open-loop injection has no cross-shard ordering")
		}
		if spec.Traffic.N() != spec.N {
			panic(fmt.Sprintf("experiments: traffic topology needs n=%d, spec has n=%d",
				spec.Traffic.N(), spec.N))
		}
		for _, cr := range spec.Crashes {
			if isFBL(spec.Family) && spec.Traffic.TierOf(cr.Proc) == workload.TierClient {
				panic(fmt.Sprintf("experiments: crash plan targets client %d; "+
					"FBL replay cannot regenerate injected arrivals", cr.Proc))
			}
		}
		cfg.App = traffic.NewApp(*spec.Traffic)
	}
	c := cluster.New(cfg)
	if spec.Timeline != nil {
		c.AttachTimeline(spec.Timeline)
	}
	c.ApplyPlan(spec.Crashes)
	var eng *traffic.Engine
	if spec.Traffic != nil {
		eng = traffic.NewEngine(*spec.Traffic, spec.Seed)
		eng.Attach(traffic.Host{At: c.K.At, Inject: c.Inject}, spec.Horizon)
	}
	events, err := c.RunContext(ctx, spec.Horizon)
	r := &Result{C: c, Spec: spec, Events: events, Traffic: eng}
	if err != nil {
		return r, err
	}
	r.Errors = c.Check()
	return r, nil
}

// isFBL reports whether fam selects the FBL family (the zero Family does).
func isFBL(fam cluster.Family) bool { return fam == "" || fam == cluster.FamilyFBL }

// MustRun panics on invariant violations — experiments must only report
// numbers from consistent runs. A ctx-cancelled run returns its partial
// result unchecked; callers bail out via ctx.Err().
func MustRun(ctx context.Context, spec Spec) *Result {
	r, err := Run(ctx, spec)
	if err != nil {
		return r
	}
	// The gossip workload never reports Done, so liveness errors about the
	// workload itself do not occur; any error here is a real violation.
	if len(r.Errors) > 0 {
		panic(fmt.Sprintf("experiments: inconsistent run: %v", r.Errors[0]))
	}
	return r
}

// runRow runs one row of a cross-family comparison. FBL rows go through
// MustRun. The comparator families' Check also demands a finished
// workload, which the experiments' open-ended workloads never reach, so
// their rows report the run without it.
func runRow(ctx context.Context, spec Spec) *Result {
	if isFBL(spec.Family) {
		return MustRun(ctx, spec)
	}
	r, _ := Run(ctx, spec)
	return r
}

// comparator re-targets spec at another protocol family with the knobs the
// cross-family experiments (D9–D12) give it. Coordinated checkpointing
// snapshots at the FBL checkpoint period with the same image size;
// optimistic logging flushes its log every 500 ms with a 4 KiB pad.
func comparator(spec Spec, fam cluster.Family) Spec {
	spec.Family = fam
	if fam == cluster.FamilyOptimistic {
		spec.CheckpointEvery = 500 * time.Millisecond
		spec.StatePad = 4 << 10
	}
	return spec
}

// Victim returns the recovery trace of process p's last recovery.
func (r *Result) Victim(p ids.ProcID) *metrics.RecoveryTrace {
	return r.C.Metrics(p).CurrentRecovery()
}

// recoveryEnd returns the virtual instant p finished its last recovery, or
// 0 when p never crashed or never finished.
func (r *Result) recoveryEnd(p ids.ProcID) time.Duration {
	if tr := r.Victim(p); tr != nil && tr.ReplayedAt != 0 {
		return time.Duration(tr.ReplayedAt)
	}
	return 0
}

// LiveBlocked returns mean and max blocked time over the processes that
// never crashed.
func (r *Result) LiveBlocked() (mean, max time.Duration) {
	crashed := map[ids.ProcID]bool{}
	for _, cr := range r.Spec.Crashes {
		crashed[cr.Proc] = true
	}
	var lives []int
	for i := 0; i < r.Spec.N; i++ {
		if !crashed[ids.ProcID(i)] {
			lives = append(lives, i)
		}
	}
	procs := make([]*metrics.Proc, r.Spec.N)
	for i := 0; i < r.Spec.N; i++ {
		procs[i] = r.C.Metrics(ids.ProcID(i))
	}
	return metrics.Cluster{Procs: procs}.MeanBlocked(lives)
}

// recoveryKinds are the control messages attributable to the recovery
// algorithm itself (heartbeats and checkpoint notices are background).
var recoveryKinds = []wire.Kind{
	wire.KindRecoveryAnnounce, wire.KindIncRequest, wire.KindIncReply,
	wire.KindDepRequest, wire.KindDepReply, wire.KindRecoveryData,
	wire.KindRecoveryComplete, wire.KindReplayRequest, wire.KindRecovered,
}

// RecoveryTraffic sums the recovery-protocol control messages and bytes
// sent by all processes over the whole run.
func (r *Result) RecoveryTraffic() (msgs, bytes int64) {
	for i := 0; i < r.Spec.N; i++ {
		m := r.C.Metrics(ids.ProcID(i))
		for _, k := range recoveryKinds {
			msgs += m.MsgsSent[uint8(k)]
			bytes += m.BytesSent[uint8(k)]
		}
	}
	return msgs, bytes
}

// Breakdown splits a recovery trace into the phases the paper discusses.
type Breakdown struct {
	DetectRestart time.Duration // crash → process image back up
	Restore       time.Duration // stable-storage read of the checkpoint
	Gather        time.Duration // recovery protocol to depinfo in hand
	Replay        time.Duration // re-execution
	Total         time.Duration
}

// BreakdownOf converts a trace.
func BreakdownOf(tr *metrics.RecoveryTrace) Breakdown {
	if tr == nil || tr.ReplayedAt == 0 {
		return Breakdown{}
	}
	return Breakdown{
		DetectRestart: time.Duration(tr.RestartedAt - tr.CrashedAt),
		Restore:       time.Duration(tr.RestoredAt - tr.RestartedAt),
		Gather:        time.Duration(tr.GatheredAt - tr.RestoredAt),
		Replay:        time.Duration(tr.ReplayedAt - tr.GatheredAt),
		Total:         time.Duration(tr.ReplayedAt - tr.CrashedAt),
	}
}
