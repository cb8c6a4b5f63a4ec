// Package cluster wires n protocol processes of one recovery family, their
// workload, a crash plan, and a runtime together, and checks the end-state
// invariants. The family is the paper's FBL logging (Family FamilyFBL, the
// default) or one of the two designs it is compared against: coordinated
// checkpointing and optimistic logging. For FBL the checks are the
// cross-process invariants the paper's proofs promise (§4): safety (no
// orphans), liveness (every recovery completes), and exactly-once
// delivery; the comparator families get a liveness check.
package cluster

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"rollrec/internal/coord"
	"rollrec/internal/failure"
	"rollrec/internal/fbl"
	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/optimistic"
	"rollrec/internal/output"
	"rollrec/internal/recovery"
	"rollrec/internal/sim"
	"rollrec/internal/timeline"
	"rollrec/internal/trace"
	"rollrec/internal/workload"
)

// Family selects the recovery protocol family a cluster hosts.
type Family string

const (
	// FamilyFBL is the paper's family-based message logging (internal/fbl)
	// under any of its recovery styles. The zero Family selects it.
	FamilyFBL Family = "fbl"
	// FamilyCoordinated is Chandy–Lamport coordinated checkpointing with
	// global rollback (internal/coord).
	FamilyCoordinated Family = "coordinated"
	// FamilyOptimistic is optimistic message logging with asynchronous
	// receiver-side logs (internal/optimistic).
	FamilyOptimistic Family = "optimistic"
)

// Config describes a simulated cluster.
type Config struct {
	// Family selects the protocol family (zero: FamilyFBL). F, Style and
	// Fanout only apply to FBL.
	Family Family
	// N is the number of application processes (2..MaxProcs).
	N int
	// F is the failure budget; F >= N selects the f = n instance.
	F int
	// Seed drives all randomness.
	Seed int64
	// HW is the hardware cost model (defaults to Profile1995).
	HW node.Hardware
	// Style selects the recovery algorithm variant.
	Style recovery.Style
	// App builds each process's application.
	App workload.Factory
	// CheckpointEvery is the family's periodic commit: the FBL checkpoint
	// interval, the coordinated snapshot period, or the optimistic
	// log-flush period. The optimistic family's retransmission retry
	// period is derived from HW instead: 4 heartbeat periods.
	CheckpointEvery time.Duration
	// StatePad models the process image size (bytes added per checkpoint,
	// snapshot, or optimistic log flush).
	StatePad int
	// Trace, if non-nil, receives event trace lines.
	Trace io.Writer
	// Tracer, if non-nil, records structured events and recovery-phase
	// spans (see internal/trace). Nil disables structured tracing. With
	// Shards > 0 the tracer is invoked from shard goroutines and must be
	// safe for concurrent use (merge lanes per process; see the sharded
	// golden-trace test for the canonical pattern).
	Tracer trace.Tracer
	// Shards > 0 runs the cluster on the sharded conservative-window
	// scheduler (DESIGN §2) with that many shards instead of the classic
	// single-heap kernel. Sharded runs also switch the kernel's busy-node
	// backlog to the FIFO defer queue, so their event interleaving differs
	// from the classic kernel's (each mode pins its own golden hash);
	// per-process behavior is byte-identical across shard counts. Mutually
	// exclusive with Trace, TrackOutputs, and AttachTimeline.
	Shards int
	// Fanout > 0 selects the ring-based dissemination protocol mode with
	// that fanout degree (see fbl.Params.Fanout); 0 is the paper's literal
	// all-peers broadcast.
	Fanout int
	// TrackOutputs wires the output-commit ledger (DESIGN §10) into every
	// process. Off by default: tracking also changes the piggyback policy
	// (holder knowledge travels one hop past the stability threshold), so
	// runs without externally-visible output keep byte-identical traces.
	TrackOutputs bool
}

// MaxProcs bounds the cluster size. Holder sets, the wire codec, and the
// determinant tables are all width-agnostic (multi-word bitsets, tagged
// adaptive holder encodings, length-prefixed arrays), so this is a sanity
// cap on sweep cost rather than a structural limit; the sharded
// conservative-window scheduler and the fanout protocol mode keep n=1024
// tractable (see DESIGN.md §2, §5).
const MaxProcs = 1024

// ValidateN checks a cluster size against MaxProcs. Every entry point that
// accepts an n — cluster construction and the bench sweep axes — funnels
// through this one helper so the limit and its message cannot drift apart.
func ValidateN(n int) error {
	if n < 2 || n > MaxProcs {
		return fmt.Errorf("cluster size n=%d out of range [2,%d]", n, MaxProcs)
	}
	return nil
}

type sendInfo struct {
	to   ids.ProcID
	hash uint64
}

type deliverInfo struct {
	msg  ids.MsgID
	hash uint64
}

// Cluster is a running simulation plus its invariant-checking observers.
type Cluster struct {
	cfg  Config
	K    sim.Runtime
	outs *output.Ledger

	// mu serializes the protocol hooks: under the sharded scheduler they
	// fire from per-shard goroutines, and violations/liveAgain span
	// processes. The per-process timelines are only ever touched by their
	// own process's hook, but one lock for all hook state is cheap and
	// removes the reasoning burden.
	mu sync.Mutex

	// Harness-side timelines of the FBL family (survive crashes; truncated
	// on OnLive).
	sends      []map[ids.SSN]sendInfo    // per sender: ssn → send record
	deliveries []map[ids.RSN]deliverInfo // per receiver: rsn → delivery
	seen       []map[ids.MsgID]ids.RSN   // per receiver: fast duplicate check
	violations []string
	liveAgain  int

	// The latest virtual instant and the step boundary past which every
	// scheduled crash has fired (see Settled).
	crashAtEnd   time.Duration
	crashStepEnd int64

	// Rollback accounting of the comparator families (see Lost, Orphans).
	lost     int64
	orphaned []bool
}

// host is what every family's process exposes to the harness.
type host interface {
	App() workload.App
	Inject(payload []byte) bool
}

var (
	_ host = (*fbl.Process)(nil)
	_ host = (*coord.Process)(nil)
	_ host = (*optimistic.Process)(nil)
)

// New builds and boots a cluster.
func New(cfg Config) *Cluster {
	if err := ValidateN(cfg.N); err != nil {
		panic("cluster: " + err.Error())
	}
	if cfg.F < 1 {
		cfg.F = 1
	}
	if cfg.HW == (node.Hardware{}) {
		cfg.HW = node.Profile1995()
	}
	if cfg.Family == "" {
		cfg.Family = FamilyFBL
	}
	c := &Cluster{cfg: cfg}

	simCfg := sim.Config{Seed: cfg.Seed, HW: cfg.HW, Trace: cfg.Trace, Tracer: cfg.Tracer}
	if cfg.Shards > 0 {
		if cfg.Trace != nil {
			panic("cluster: Trace (text event log) requires the classic kernel; shard goroutines would interleave lines")
		}
		if cfg.TrackOutputs {
			panic("cluster: TrackOutputs requires the classic kernel (Shards=0); the ledger is not shard-safe")
		}
		simCfg.FIFODefer = true
		c.K = sim.NewSharded(simCfg, cfg.Shards)
	} else {
		c.K = sim.New(simCfg)
	}
	c.outs = output.NewLedger(cfg.N)
	var outs output.Sink
	if cfg.TrackOutputs {
		c.outs.SetTracer(trace.OrNop(cfg.Tracer))
		c.outs.SetMetrics(c.K.Metrics)
		outs = c.outs
	}
	app := workload.Seeded(cfg.App, cfg.Seed)
	var factory node.Factory
	switch cfg.Family {
	case FamilyFBL:
		c.sends = make([]map[ids.SSN]sendInfo, cfg.N)
		c.deliveries = make([]map[ids.RSN]deliverInfo, cfg.N)
		c.seen = make([]map[ids.MsgID]ids.RSN, cfg.N)
		for i := 0; i < cfg.N; i++ {
			c.sends[i] = make(map[ids.SSN]sendInfo)
			c.deliveries[i] = make(map[ids.RSN]deliverInfo)
			c.seen[i] = make(map[ids.MsgID]ids.RSN)
		}
		factory = fbl.New(fbl.Params{
			N:               cfg.N,
			F:               cfg.F,
			Fanout:          cfg.Fanout,
			App:             app,
			Style:           cfg.Style,
			CheckpointEvery: cfg.CheckpointEvery,
			StatePad:        cfg.StatePad,
			HeartbeatEvery:  cfg.HW.HeartbeatEvery,
			SuspectAfter:    cfg.HW.SuspectAfter,
			Outputs:         outs,
			Hooks: fbl.Hooks{
				OnSend:    c.onSend,
				OnDeliver: c.onDeliver,
				OnLive:    c.onLive,
			},
		})
	case FamilyCoordinated:
		factory = coord.New(coord.Params{
			N:             cfg.N,
			App:           app,
			SnapshotEvery: cfg.CheckpointEvery,
			StatePad:      cfg.StatePad,
			Outputs:       outs,
			Hooks:         coord.Hooks{OnRollback: c.onRollback},
		})
	case FamilyOptimistic:
		c.orphaned = make([]bool, cfg.N)
		factory = optimistic.New(optimistic.Params{
			N:          cfg.N,
			App:        app,
			FlushEvery: cfg.CheckpointEvery,
			StatePad:   cfg.StatePad,
			RetryEvery: 4 * cfg.HW.HeartbeatEvery,
			Outputs:    outs,
			Hooks:      optimistic.Hooks{OnOrphan: c.onOrphan},
		})
	default:
		panic(fmt.Sprintf("cluster: unknown family %q", cfg.Family))
	}
	for i := 0; i < cfg.N; i++ {
		c.K.AddNode(ids.ProcID(i), factory)
	}
	if cfg.Family == FamilyFBL && cfg.F >= cfg.N {
		c.K.AddNode(ids.StorageProc, fbl.NewStorageNode(cfg.N, cfg.F))
	}
	c.K.Boot()
	return c
}

// onSend maintains the sender's current-timeline send history: a send at
// ssn k supersedes any previously recorded sends at ssn >= k (they belonged
// to a rolled-back execution).
func (c *Cluster) onSend(self ids.ProcID, id ids.MsgID, to ids.ProcID, hash uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tl := c.sends[self]
	if old, ok := tl[id.SSN]; ok && (old.to != to || old.hash != hash) {
		// Divergent regeneration: drop the stale tail beyond this point.
		for ssn := range tl {
			if ssn > id.SSN {
				delete(tl, ssn)
			}
		}
	}
	tl[id.SSN] = sendInfo{to: to, hash: hash}
}

// onDeliver maintains the receiver's current-timeline delivery history and
// checks exactly-once within a timeline.
func (c *Cluster) onDeliver(self ids.ProcID, id ids.MsgID, from ids.ProcID, rsn ids.RSN, hash uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tl := c.deliveries[self]
	if old, ok := tl[rsn]; ok && old.msg != id {
		// A new execution reused this rsn: everything beyond belonged to
		// the rolled-back timeline.
		for r := range tl {
			if r > rsn {
				sn := c.seen[self]
				delete(sn, tl[r].msg)
				delete(tl, r)
			}
		}
		delete(c.seen[self], old.msg)
	}
	if prevRSN, dup := c.seen[self][id]; dup && prevRSN != rsn {
		c.violations = append(c.violations, fmt.Sprintf(
			"exactly-once: %v delivered %v at rsn %d and again at rsn %d", self, id, prevRSN, rsn))
	}
	if old, ok := tl[rsn]; ok && old.msg == id && old.hash != hash {
		c.violations = append(c.violations, fmt.Sprintf(
			"replay fidelity: %v re-delivered %v at rsn %d with different content", self, id, rsn))
	}
	tl[rsn] = deliverInfo{msg: id, hash: hash}
	c.seen[self][id] = rsn
}

// onLive truncates the harness timelines to the surviving frontier: any
// send/delivery beyond the post-replay counters was rolled back for good.
func (c *Cluster) onLive(self ids.ProcID, inc ids.Incarnation, ssn ids.SSN, rsn ids.RSN) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.liveAgain++
	for s := range c.sends[self] {
		if s > ssn {
			delete(c.sends[self], s)
		}
	}
	for r := range c.deliveries[self] {
		if r > rsn {
			delete(c.seen[self], c.deliveries[self][r].msg)
			delete(c.deliveries[self], r)
		}
	}
}

// onRollback counts the deliveries a coordinated rollback discarded, at
// the victim and at every live process alike.
func (c *Cluster) onRollback(_ ids.ProcID, _ uint32, lost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lost += lost
}

// onOrphan records a live process that an optimistic-logging failure
// turned into an orphan; the failed process itself is not an orphan.
func (c *Cluster) onOrphan(self, victim ids.ProcID, lost int64) {
	if self == victim {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.orphaned[self] = true
	c.lost += lost
}

// Lost returns how many deliveries the run's rollbacks discarded: every
// process's abandoned suffix under coordinated checkpointing, the orphans'
// under optimistic logging. FBL rolls back no survivor, so it reports 0.
func (c *Cluster) Lost() int64 { return c.lost }

// Orphans returns how many processes an optimistic-logging run rolled back
// as orphans of another process's failure (0 for the other families).
func (c *Cluster) Orphans() int {
	n := 0
	for _, o := range c.orphaned {
		if o {
			n++
		}
	}
	return n
}

// AttachTimeline binds col's probes to this cluster and installs its
// sampler on the kernel. The sampler fires from inside the run loop at
// virtual-time boundaries without enqueueing events, so attaching a
// collector leaves the event sequence — and the golden trace hash — exactly
// as it would be without one. Call before Run; col.N() must equal cfg.N.
func (c *Cluster) AttachTimeline(col *timeline.Collector) {
	if c.cfg.Shards > 0 {
		panic("cluster: timeline capture requires the classic kernel (Shards=0); the sharded scheduler has no cluster-wide sampling instants")
	}
	if col.N() != c.cfg.N {
		panic(fmt.Sprintf("cluster: timeline collector for n=%d attached to n=%d cluster",
			col.N(), c.cfg.N))
	}
	col.Bind(timeline.Probes{
		Queue: func() (int, int) {
			return c.K.QueueDepth(), c.K.InFlightFrames()
		},
		Proc: func(i int) timeline.ProcGauges {
			id := ids.ProcID(i)
			g := timeline.ProcGauges{
				Phase:       timeline.PhaseDown,
				StableBytes: c.K.Store(id).Bytes(),
			}
			if c.cfg.TrackOutputs {
				g.Backlog = c.outs.OpenOf(id)
				g.OldestOpen = c.outs.OldestOpenOf(id)
			}
			switch p := c.K.ProcOf(id).(type) {
			case *fbl.Process:
				g.Phase = fblPhase(p)
				g.Journal = p.DetLogLen()
				g.Lag = p.DetPending()
			case *coord.Process:
				g.Phase = rollbackPhase(p.Recovering())
			case *optimistic.Process:
				g.Phase = rollbackPhase(p.Rolling())
				total, durable := p.LogSizes()
				g.Journal, g.Lag = total, total-durable
			default:
				return g
			}
			if a, ok := c.App(id).(interface{ InflightReqs() int }); ok {
				g.Inflight = a.InflightReqs()
			}
			return g
		},
		Metrics: func(i int) *metrics.Proc { return c.K.Metrics(ids.ProcID(i)) },
		Markers: func() []timeline.Marker {
			return timeline.RecoveryMarkers(c.cfg.N, func(i int) *metrics.Proc {
				return c.K.Metrics(ids.ProcID(i))
			})
		},
	})
	c.K.SetSampler(col.Interval(), col.Tick)
}

// fblPhase maps an FBL process's lifecycle mode onto the timeline phase
// alphabet, splitting ModeLive into live vs blocked (the paper's intrusion).
func fblPhase(p *fbl.Process) timeline.Phase {
	switch p.Mode() {
	case fbl.ModeRestoring:
		return timeline.PhaseRestoring
	case fbl.ModeRecovering:
		return timeline.PhaseRecovering
	case fbl.ModeReplaying:
		return timeline.PhaseReplaying
	default:
		if p.Blocked() {
			return timeline.PhaseBlocked
		}
		return timeline.PhaseLive
	}
}

// rollbackPhase maps a comparator-family process onto the timeline phase
// alphabet: it is either rolling back or live.
func rollbackPhase(rolling bool) timeline.Phase {
	if rolling {
		return timeline.PhaseRecovering
	}
	return timeline.PhaseLive
}

// Run advances virtual time to the given instant since start.
func (c *Cluster) Run(until time.Duration) { c.K.Run(until) }

// RunContext advances virtual time to the given instant since start,
// stopping early when ctx is done. It returns the number of simulator
// events processed — the deterministic cost of simulating the scenario,
// which the bench harness reports as sim_events — and ctx's error if the
// run was cut short.
func (c *Cluster) RunContext(ctx context.Context, until time.Duration) (int64, error) {
	return c.K.RunContext(ctx, until)
}

// Crash schedules a crash of process p at virtual time at.
func (c *Cluster) Crash(at time.Duration, p ids.ProcID) {
	if at > c.crashAtEnd {
		c.crashAtEnd = at
	}
	c.K.CrashAt(at, p)
}

// CrashAtStep schedules a crash of p at the given kernel event-dispatch
// boundary (sim.CrashAtStep). Step-indexed crashes require the classic
// kernel: the sharded runtime has no single global event order to index.
func (c *Cluster) CrashAtStep(step int64, p ids.ProcID) {
	k := c.Kernel()
	if k == nil {
		panic("cluster: CrashAtStep requires the classic (non-sharded) kernel")
	}
	if step >= c.crashStepEnd {
		c.crashStepEnd = step + 1
	}
	k.CrashAtStep(step, p)
}

// ApplyPlan schedules a whole crash plan; entries with Step > 0 are
// injected at event-dispatch boundaries, the rest at virtual times.
func (c *Cluster) ApplyPlan(plan failure.Plan) {
	for _, cr := range plan.Sorted() {
		if cr.Step > 0 {
			c.CrashAtStep(cr.Step, cr.Proc)
		} else {
			c.Crash(cr.At, cr.Proc)
		}
	}
}

// Kernel returns the classic single-heap kernel driving the cluster, or
// nil when it runs on the sharded coordinator. The explorer uses it to
// attach step probes and read step indices.
func (c *Cluster) Kernel() *sim.Kernel {
	k, _ := c.K.(*sim.Kernel)
	return k
}

// LiveAgain returns how many completed FBL recoveries the cluster observed
// — the counter Check's liveness clause compares against effective crash
// injections.
func (c *Cluster) LiveAgain() int { return c.liveAgain }

// Inject offers an open-loop arrival to process p's application (see the
// families' Process.Inject). It reports whether the arrival was admitted;
// a down, blocked, or recovering process sheds. Under FBL, injections are
// only replay-sound on processes that never crash — keep injected
// processes out of the crash plan (the orphan check catches violations).
func (c *Cluster) Inject(p ids.ProcID, payload []byte) bool {
	h, ok := c.K.ProcOf(p).(host)
	return ok && h.Inject(payload)
}

// Proc returns the FBL protocol instance at p, or nil while p is down or
// when the cluster hosts another family.
func (c *Cluster) Proc(p ids.ProcID) *fbl.Process {
	if pr, ok := c.K.ProcOf(p).(*fbl.Process); ok {
		return pr
	}
	return nil
}

// Metrics returns process p's accumulator.
func (c *Cluster) Metrics(p ids.ProcID) *metrics.Proc { return c.K.Metrics(p) }

// Outputs returns the cluster-wide output-commit ledger (DESIGN §10).
func (c *Cluster) Outputs() *output.Ledger { return c.outs }

// App returns the application hosted at p (nil while down).
func (c *Cluster) App(p ids.ProcID) workload.App {
	if h, ok := c.K.ProcOf(p).(host); ok {
		return h.App()
	}
	return nil
}

// AllDone reports whether every application says its share of the workload
// completed (down processes count as not done).
func (c *Cluster) AllDone() bool {
	for i := 0; i < c.cfg.N; i++ {
		a := c.App(ids.ProcID(i))
		if a == nil || !a.Done() {
			return false
		}
	}
	return true
}

// Settled reports whether the workload finished AND every scheduled crash
// has fired and its recovery completed. A crash of a process that is
// already down is a kernel no-op, so FBL compares completed recoveries
// against the crashes applied (as Check does), not against the plan.
func (c *Cluster) Settled() bool {
	if !c.AllDone() || c.K.Now() < int64(c.crashAtEnd) {
		return false
	}
	if k := c.Kernel(); k != nil && k.Steps() < c.crashStepEnd {
		return false
	}
	if c.cfg.Family == FamilyFBL {
		return c.liveAgain >= c.K.CrashesApplied()
	}
	return len(c.rollbackLiveness()) == 0
}

// RunUntilDone advances time in steps until the cluster is settled (see
// Settled) or the horizon passes.
func (c *Cluster) RunUntilDone(step, horizon time.Duration) bool {
	for t := step; t <= horizon; t += step {
		c.Run(t)
		if c.Settled() {
			return true
		}
	}
	return c.Settled()
}

// Check verifies the end-state invariants and returns every violation
// found (nil means the run was consistent). FBL gets the full catalog
// below; the comparator families get rollbackLiveness.
func (c *Cluster) Check() []error {
	if c.cfg.Family != FamilyFBL {
		return c.rollbackLiveness()
	}
	var errs []error
	for _, v := range c.violations {
		errs = append(errs, fmt.Errorf("%s", v))
	}

	// Liveness (§4.2/§4.4): every crashed process must be live again. The
	// count compares against *effective* injections (sim.CrashesApplied),
	// not the plan length: explorer-synthesized schedules may re-crash a
	// process that is still down, which the kernel treats as a no-op.
	if applied := c.K.CrashesApplied(); c.liveAgain < applied {
		errs = append(errs, fmt.Errorf("liveness: %d crashes applied but only %d recoveries completed",
			applied, c.liveAgain))
	}
	for i := 0; i < c.cfg.N; i++ {
		p := c.Proc(ids.ProcID(i))
		if p == nil {
			errs = append(errs, fmt.Errorf("liveness: %v still down", ids.ProcID(i)))
			continue
		}
		if p.Mode() != fbl.ModeLive {
			errs = append(errs, fmt.Errorf("liveness: %v stuck in mode %v", ids.ProcID(i), p.Mode()))
		}
	}

	// Safety (§4.3): every delivery on a surviving timeline must match a
	// send on the sender's surviving timeline — otherwise the receiver is
	// an orphan of a rolled-back execution.
	for recv := 0; recv < c.cfg.N; recv++ {
		for rsn, d := range c.deliveries[recv] {
			s := d.msg.Sender
			rec, ok := c.sends[s][d.msg.SSN]
			if !ok {
				errs = append(errs, fmt.Errorf(
					"orphan: %v delivered %v (rsn %d) but %v's surviving execution never sent it",
					ids.ProcID(recv), d.msg, rsn, s))
				continue
			}
			if rec.to != ids.ProcID(recv) || rec.hash != d.hash {
				errs = append(errs, fmt.Errorf(
					"orphan: %v delivered %v (rsn %d) but %v's surviving send differs (to %v)",
					ids.ProcID(recv), d.msg, rsn, s, rec.to))
			}
			if p := c.Proc(s); p != nil && d.msg.SSN > p.SSN() {
				errs = append(errs, fmt.Errorf(
					"orphan: %v delivered %v but %v's execution only reached ssn %d",
					ids.ProcID(recv), d.msg, s, p.SSN()))
			}
		}
	}

	// Non-intrusion: the paper's algorithm never blocks live processes.
	if c.cfg.Style == recovery.NonBlocking {
		for i := 0; i < c.cfg.N; i++ {
			if b := c.Metrics(ids.ProcID(i)).BlockedTotal(); b != 0 {
				errs = append(errs, fmt.Errorf(
					"intrusion: nonblocking style blocked %v for %v", ids.ProcID(i), b))
			}
		}
	}
	return errs
}

// rollbackLiveness is the comparator families' end-state check: at the
// horizon every process must be up, done rolling back, and finished with
// its workload.
func (c *Cluster) rollbackLiveness() []error {
	var errs []error
	for i := 0; i < c.cfg.N; i++ {
		switch p := c.K.ProcOf(ids.ProcID(i)).(type) {
		case *coord.Process:
			if p.Recovering() {
				errs = append(errs, fmt.Errorf("liveness: proc %d still recovering at horizon", i))
			}
		case *optimistic.Process:
			if p.Rolling() {
				errs = append(errs, fmt.Errorf("liveness: proc %d still rolling back at horizon", i))
			}
		default:
			errs = append(errs, fmt.Errorf("liveness: proc %d still down at horizon", i))
			continue
		}
		if !c.App(ids.ProcID(i)).Done() {
			errs = append(errs, fmt.Errorf("liveness: proc %d workload incomplete at horizon", i))
		}
	}
	return errs
}

// Digests returns each live application's state fingerprint.
func (c *Cluster) Digests() []uint64 {
	out := make([]uint64, c.cfg.N)
	for i := 0; i < c.cfg.N; i++ {
		if a := c.App(ids.ProcID(i)); a != nil {
			out[i] = a.Digest()
		}
	}
	return out
}
