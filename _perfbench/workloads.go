package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/explore"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/recovery"
	"rollrec/internal/trace"
	"rollrec/internal/traffic"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// A scenario is one named workload the benchmark runs. WORKLOADS.md
// records why each was chosen and which layer metrics it should move.
type scenario struct {
	name string
	// setup builds one fresh run, ready for its timed region. tr is nil
	// for untraced runs; set-up time is reported as setup_s.
	setup func(seed int64, tr trace.Tracer) run
	// setups is how many times each repeat sets up; the last one runs.
	setups int
}

// A run is one built instance of a workload.
type run interface {
	// exec is the timed region.
	exec(ctx context.Context)
	// check checks the finished run: its operations, failed checks and
	// fingerprint.
	check() outcome
	// readout adds the virtual-time readouts and the driver shape.
	readout(o *outcome)
	// newSeconds is the host time cluster.New took in set-up.
	newSeconds() float64
}

// outcome is what one finished run yields: its operations and failed
// checks, a fingerprint that repeats of the same seed must reproduce, the
// virtual-time readouts, and the shape that sizes the per-layer drivers.
type outcome struct {
	ops, failed int
	// failures names every failed check as "check: detail".
	failures []string
	// failedBy counts the failed checks by check name.
	failedBy    map[string]int
	fingerprint uint64
	events      int64
	vals        map[string]float64
	shape       shape
	// specWall is the host time of each exploration (explore3 only).
	specWall map[string]float64
}

func (o *outcome) fail(check, detail string) {
	o.failures = append(o.failures, check+": "+detail)
	if o.failedBy == nil {
		o.failedBy = map[string]int{}
	}
	o.failedBy[check]++
}

// shape sizes the per-layer drivers from a workload's own readouts, so a
// driver's ns/op is comparable with that workload's wall_s.
type shape struct {
	n, f int
	// journal and pending are the mean determinant-journal depth and the
	// mean non-stable count per process at the end of the run.
	journal, pending int
	// detsPerMsg is the mean number of determinants piggybacked on an
	// application message; payload is the mean application frame size
	// without those determinants.
	detsPerMsg, payload int
	// ckptBytes is the mean size of one stable-storage write.
	ckptBytes int
}

var scenarios = []scenario{
	{name: "scale256", setup: setupScale256, setups: 3},
	{name: "traffic8", setup: setupTraffic8, setups: 3},
	{name: "explore3", setup: setupExplore3, setups: 32},
}

func lookupScenario(name string) (scenario, error) {
	for _, w := range scenarios {
		if w.name == name {
			return w, nil
		}
	}
	return scenario{}, fmt.Errorf("unknown workload %q (want scale256, traffic8, explore3 or all)", name)
}

// clusterRun is one FBL cluster run: scale256 and traffic8.
type clusterRun struct {
	c        *cluster.Cluster
	n, f     int
	victim   ids.ProcID
	horizon  time.Duration
	eng      *traffic.Engine
	traffic  *workload.Traffic
	conflict int
	events   int64
	newS     float64
}

// newCluster times cluster.New.
func newCluster(cfg cluster.Config) (*cluster.Cluster, float64) {
	start := time.Now()
	c := cluster.New(cfg)
	return c, time.Since(start).Seconds()
}

func (r *clusterRun) newSeconds() float64 { return r.newS }

const (
	paperF       = 2
	paperCPEvery = 4 * time.Second
	paperPad     = 1 << 20
)

// setupScale256 builds D1's sharded shape at n=256: the paper's
// configuration (f=2, 1995 hardware, 1 MiB process images, checkpoints
// every 4 s) in fanout mode on two shards, one gossip chain per process
// with 256 B payloads and 10 ms of work per delivery, p1 crashing at 4 s.
// The 18 s horizon leaves the victim room to finish recovering.
func setupScale256(seed int64, tr trace.Tracer) run {
	const n, payload = 256, 256
	c, newS := newCluster(cluster.Config{
		N:               n,
		F:               paperF,
		Seed:            seed,
		HW:              node.Profile1995(),
		Style:           recovery.NonBlocking,
		App:             workload.NewRandomPeer(1, 1_000_000, payload, int64(10*time.Millisecond)),
		CheckpointEvery: paperCPEvery,
		StatePad:        paperPad,
		Tracer:          tr,
		Shards:          2,
		Fanout:          8,
	})
	c.ApplyPlan(failure.Plan{{At: 4 * time.Second, Proc: 1}})
	return &clusterRun{c: c, n: n, f: paperF, victim: 1, horizon: 18 * time.Second, newS: newS}
}

// traffic8Load is below D12's 250 req/s knee: at 250 the backlog grows
// with run length, so latency would depend on the horizon.
const traffic8Load = 150

// setupTraffic8 builds D12's base topology (2 clients, 2 frontends, 4
// backends, fan-out 2, 500 µs per hop, Poisson arrivals) under the
// nonblocking FBL style with output tracking, on the classic kernel. The
// last backend crashes halfway through the 30 s horizon.
func setupTraffic8(seed int64, tr trace.Tracer) run {
	spec := workload.Traffic{
		Clients:    2,
		Frontends:  2,
		Backends:   4,
		FanOut:     2,
		Arrival:    workload.ArrivalPoisson,
		Load:       traffic8Load,
		WorkPerHop: int64(500 * time.Microsecond),
		PayloadPad: 256,
	}
	const horizon = 30 * time.Second
	n := spec.N()
	victim := ids.ProcID(n - 1)
	c, newS := newCluster(cluster.Config{
		N:               n,
		F:               paperF,
		Seed:            seed,
		HW:              node.Profile1995(),
		Style:           recovery.NonBlocking,
		App:             traffic.NewApp(spec),
		CheckpointEvery: paperCPEvery,
		StatePad:        paperPad,
		Tracer:          tr,
		TrackOutputs:    true,
	})
	r := &clusterRun{c: c, n: n, f: paperF, victim: victim, horizon: horizon, traffic: &spec, newS: newS}
	c.Outputs().SetOnConflict(func(ids.ProcID, uint64, uint64, uint64) { r.conflict++ })
	c.ApplyPlan(failure.Plan{{At: horizon / 2, Proc: victim}})
	r.eng = traffic.NewEngine(spec, seed)
	r.eng.Attach(traffic.Host{At: c.K.At, Inject: c.Inject}, horizon)
	return r
}

func (r *clusterRun) exec(ctx context.Context) {
	// The context is never cancelled, so RunContext cannot fail.
	r.events, _ = r.c.RunContext(ctx, r.horizon)
}

// recoveryKinds are the control messages the recovery protocol itself
// sends (heartbeats and checkpoint notices are background traffic).
var recoveryKinds = []wire.Kind{
	wire.KindRecoveryAnnounce, wire.KindIncRequest, wire.KindIncReply,
	wire.KindDepRequest, wire.KindDepReply, wire.KindRecoveryData,
	wire.KindRecoveryComplete, wire.KindReplayRequest, wire.KindRecovered,
}

func (r *clusterRun) check() outcome {
	o := outcome{ops: 1, events: r.events, vals: map[string]float64{}}
	for _, err := range r.c.Check() {
		o.fail("check_clean", err.Error())
	}
	rec := r.c.Metrics(r.victim).CurrentRecovery()
	if rec == nil || rec.ReplayedAt == 0 {
		o.fail("victim_recovered", fmt.Sprintf("%v did not finish recovering by %v", r.victim, r.horizon))
	}
	var liveBlocked time.Duration
	for i := 0; i < r.n; i++ {
		if p := ids.ProcID(i); p != r.victim {
			liveBlocked += r.c.Metrics(p).BlockedTotal()
		}
	}
	if liveBlocked != 0 {
		o.fail("nonblocking_live", fmt.Sprintf("live processes blocked for %v in total", liveBlocked))
	}
	if r.conflict != 0 {
		o.fail("ledger_conflicts", fmt.Sprintf("%d outputs re-requested with different content after release", r.conflict))
	}
	if len(o.failures) > 0 {
		o.failed = 1
	}

	o.fingerprint = mix(fnvOffset, uint64(r.events))
	for _, d := range r.c.Digests() {
		o.fingerprint = mix(o.fingerprint, d)
	}
	o.vals["live_blocked_ms"] = ms(liveBlocked)
	return o
}

func (r *clusterRun) readout(o *outcome) {
	v := o.vals
	v["sim.events"] = float64(r.events)
	rec := r.c.Metrics(r.victim).CurrentRecovery()
	if rec != nil && rec.ReplayedAt != 0 {
		v["recovery_ms"] = ms(rec.Total())
		v["recovery.detect_ms"] = nsToMs(rec.RestartedAt - rec.CrashedAt)
		v["recovery.restore_ms"] = nsToMs(rec.RestoredAt - rec.RestartedAt)
		v["recovery.gather_ms"] = nsToMs(rec.GatheredAt - rec.RestoredAt)
		v["recovery.replay_ms"] = nsToMs(rec.ReplayedAt - rec.GatheredAt)
		v["recovery.gather_rounds"] = float64(rec.Rounds)
	}

	var ctlMsgs, ctlBytes, appMsgs, appBytes, allMsgs, allBytes, dets, detBytes, writes, writeBytes int64
	var busy time.Duration
	var journal, pending, sendlog int
	for i := 0; i < r.n; i++ {
		m := r.c.Metrics(ids.ProcID(i))
		for _, k := range recoveryKinds {
			ctlMsgs += m.MsgsSent[k]
			ctlBytes += m.BytesSent[k]
		}
		for k := range m.MsgsSent {
			allMsgs += m.MsgsSent[k]
			allBytes += m.BytesSent[k]
		}
		appMsgs += m.MsgsSent[wire.KindApp]
		appBytes += m.BytesSent[wire.KindApp]
		dets += m.PiggybackDets
		detBytes += m.PiggybackBytes
		writes += m.StorageWrites
		writeBytes += m.StorageWriteBytes
		busy += m.StorageTime()
		if p := r.c.Proc(ids.ProcID(i)); p != nil {
			journal += p.DetLogLen()
			pending += p.DetPending()
			sendlog += p.SendLogSize()
		}
	}
	v["recovery_ctl_kb"] = float64(ctlBytes) / 1024
	v["recovery.ctl_msgs"] = float64(ctlMsgs)
	v["det.piggyback_dets_per_msg"] = ratio(dets, appMsgs)
	v["det.journal_entries_end"] = float64(journal)
	v["det.pending_end"] = float64(pending)
	v["fbl.sendlog_entries_end"] = float64(sendlog)
	v["storage.writes"] = float64(writes)
	v["storage.write_mb"] = float64(writeBytes) / (1 << 20)
	v["storage.busy_ms"] = ms(busy)
	v["netmodel.app_msgs"] = float64(appMsgs)
	v["netmodel.ctl_msgs"] = float64(allMsgs - appMsgs)
	v["netmodel.bytes"] = float64(allBytes)

	o.shape = shape{
		n: r.n, f: r.f,
		journal:    journal / r.n,
		pending:    pending / r.n,
		detsPerMsg: int(ratio(dets, appMsgs) + 0.5),
		payload:    int(ratio(appBytes-detBytes, appMsgs)),
		ckptBytes:  int(ratio(writeBytes, writes)),
	}
	if r.traffic != nil {
		r.trafficReadout(o)
	}
}

// trafficReadout adds the user-visible commit latencies of traffic8.
func (r *clusterRun) trafficReadout(o *outcome) {
	v := o.vals
	st := traffic.StatsPerTier(r.c.Outputs(), *r.traffic)
	requested, committed := 0, 0
	for _, s := range st {
		requested += s.Requested
		committed += s.Committed
	}
	v["output.requested"] = float64(requested)
	v["output.committed"] = float64(committed)
	v["output.commit_p99_ms_frontend"] = ms(st[workload.TierFrontend].P99)
	v["output.commit_p99_ms_backend"] = ms(st[workload.TierBackend].P99)
	v["traffic.offered"] = float64(r.eng.Offered())
	v["traffic.shed"] = float64(r.eng.Shed())

	var lat []time.Duration
	for _, rec := range r.c.Outputs().Records() {
		if rec.Committed() && r.traffic.TierOf(rec.Proc) == workload.TierClient {
			lat = append(lat, rec.Latency())
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	v["client_commit_samples"] = float64(len(lat))
	if len(lat) > 0 {
		v["client_commit_p50_ms"] = ms(lat[(len(lat)-1)/2])
		v["client_commit_p99_ms"] = ms(lat[tailIndex(len(lat))])
	}
}

// tailIndex returns the index of the highest of p99.9, p99, p90 and p50
// that leaves at least ten samples beyond it in a sorted sample of size n.
func tailIndex(n int) int {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		if float64(n)*(1-q) >= 10 {
			return int(float64(n-1) * q)
		}
	}
	return (n - 1) / 2
}

// exploreSpecs are explore3's five explorations at n=3: the three FBL
// recovery styles, coordinated checkpointing and optimistic logging, each
// with second crashes aimed inside observed recoveries and a seeded
// random frontier on top.
func exploreSpecs(seed int64) []explore.Spec {
	var specs []explore.Spec
	for _, st := range []recovery.Style{recovery.NonBlocking, recovery.Blocking, recovery.Manetho} {
		specs = append(specs, explore.Spec{Family: explore.FamilyFBL, Style: st})
	}
	specs = append(specs,
		explore.Spec{Family: explore.FamilyCoordinated},
		explore.Spec{Family: explore.FamilyOptimistic})
	for i := range specs {
		specs[i].N = 3
		specs[i].Seed = seed
		specs[i].MaxCrashes = 2
		specs[i].Random = 40
	}
	return specs
}

func specName(s explore.Spec) string {
	if s.Family == explore.FamilyFBL {
		return "fbl-" + s.Style.String()
	}
	return string(s.Family)
}

type exploreRun struct {
	seed    int64
	specs   []explore.Spec
	newS    float64
	reports []*explore.Report
	panics  []string
	wall    map[string]float64
}

// setupExplore3 returns the five exploration specs. explore.Run builds
// every branch itself, so the set-up it times is the explorer's per-branch
// cost: building and attaching an n=3 FBL cluster shaped like one branch
// (f=1, output tracking, 16 KiB process images, one crash planned). The
// explorer repeats that about a thousand times per pass.
func setupExplore3(seed int64, tr trace.Tracer) run {
	b := branchCluster(seed, tr)
	return &exploreRun{seed: seed, specs: exploreSpecs(seed), newS: b.newS}
}

// branchCluster builds an n=3 FBL cluster shaped like one explorer branch.
func branchCluster(seed int64, tr trace.Tracer) *clusterRun {
	c, newS := newCluster(cluster.Config{
		N:               3,
		F:               1,
		Seed:            seed,
		HW:              node.Profile1995(),
		Style:           recovery.NonBlocking,
		App:             workload.NewRandomPeer(1, 1_000_000, 64, int64(200*time.Microsecond)),
		CheckpointEvery: 2 * time.Second,
		StatePad:        16 << 10,
		Tracer:          tr,
		TrackOutputs:    true,
	})
	c.ApplyPlan(failure.Plan{{At: time.Second, Proc: 0}})
	return &clusterRun{c: c, n: 3, f: 1, victim: 0, horizon: 12 * time.Second, newS: newS}
}

func (r *exploreRun) newSeconds() float64 { return r.newS }

func (r *exploreRun) exec(ctx context.Context) {
	r.wall = map[string]float64{}
	for _, s := range r.specs {
		start := time.Now()
		rep, err := exploreOne(ctx, s)
		r.wall[specName(s)] = time.Since(start).Seconds()
		if err != nil {
			r.panics = append(r.panics, specName(s)+": "+err.Error())
			continue
		}
		r.reports = append(r.reports, rep)
	}
}

// exploreOne runs one exploration, turning a panic inside the explorer
// into an error so the pass goes on and the panic is counted as failed.
func exploreOne(ctx context.Context, s explore.Spec) (rep *explore.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			rep, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return explore.Run(ctx, s)
}

func (r *exploreRun) check() outcome {
	o := outcome{vals: map[string]float64{}, fingerprint: fnvOffset}
	for _, rep := range r.reports {
		o.ops += rep.Branches
		for i := 0; i < rep.Violations; i++ {
			detail := specName(rep.Spec)
			if i < len(rep.Counterexamples) && len(rep.Counterexamples[i].Violations) > 0 {
				detail += ": " + rep.Counterexamples[i].Violations[0]
			}
			o.fail("explore_violation", detail)
		}
		o.fingerprint = mix(o.fingerprint, rep.Fingerprint)
		o.fingerprint = mix(o.fingerprint, uint64(rep.Branches))
	}
	// A panicking exploration reports no branches: it counts as one
	// attempted and failed operation.
	for _, p := range r.panics {
		o.ops++
		o.fail("explore_panic", p)
	}
	o.failed = len(o.failures)
	return o
}

func (r *exploreRun) readout(o *outcome) {
	violations := 0
	for _, rep := range r.reports {
		violations += rep.Violations
	}
	o.vals["explore.branches"] = float64(o.ops - len(r.panics))
	o.vals["explore.violations"] = float64(violations)
	o.vals["explore.panics"] = float64(len(r.panics))
	o.specWall = r.wall
	// The explorer exposes no per-branch readouts, so the drivers are
	// shaped from one run of the branch-shaped cluster.
	b := branchCluster(r.seed, nil)
	b.exec(context.Background())
	var bo outcome
	bo.vals = map[string]float64{}
	b.readout(&bo)
	o.shape = bo.shape
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func nsToMs(ns int64) float64 { return float64(ns) / 1e6 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
