package timeline

import (
	"sync"
	"time"

	"rollrec/internal/metrics"
	"rollrec/internal/trace"
)

// Phase is a process's lifecycle state at a sample instant. The values are
// a strict superset of fbl.Mode: Blocked distinguishes a live process that
// is deferring application deliveries (the paper's intrusion), and Down
// covers the interval between crash and restart.
type Phase uint8

const (
	// PhaseLive: normal operation.
	PhaseLive Phase = iota
	// PhaseBlocked: live but deferring application deliveries.
	PhaseBlocked
	// PhaseRestoring: reading the checkpoint from stable storage.
	PhaseRestoring
	// PhaseRecovering: running the recovery protocol.
	PhaseRecovering
	// PhaseReplaying: re-consuming logged deliveries.
	PhaseReplaying
	// PhaseDown: no process image (crash → restart).
	PhaseDown
)

// phaseRunes encodes phases one byte per process in tick rows; the export
// stays compact and diffs stay line-per-tick readable.
var phaseRunes = [...]byte{'L', 'B', 'S', 'R', 'P', 'D'}

// Rune returns the single-character encoding used in exports.
func (p Phase) Rune() byte { return phaseRunes[p] }

// String names the phase.
func (p Phase) String() string {
	return [...]string{"live", "blocked", "restoring", "recovering", "replaying", "down"}[p]
}

// ProcGauges is one process's sampled state.
type ProcGauges struct {
	// Phase is the lifecycle state.
	Phase Phase
	// Journal is the number of determinant-log entries currently held.
	Journal int
	// Lag is the stability lag: entries below the f+1-holder watermark,
	// i.e. determinants whose loss would still orphan somebody.
	Lag int
	// StableBytes is the process's stable-storage footprint (checkpoints
	// and logs).
	StableBytes int64
	// Backlog is the output-commit backlog: outputs requested by this
	// process whose commit rule has not yet fired.
	Backlog int
	// Inflight is the number of open requests this process holds when it
	// runs the multi-tier traffic workload (admitted-but-unreleased at a
	// client, fanning-in at a frontend); zero elsewhere. Summed per tier
	// into the inflight_req series when the collector is tiered.
	Inflight int
	// OldestOpen is the virtual instant (ns) the oldest still-open output
	// was requested, or 0 when none are open. The collector turns it into
	// the backlog-age series (oldest_open_ms): while the commit rule can
	// fire this sits near the steady-state commit latency; from the moment
	// a failure freezes the rule it climbs linearly, and it falls back only
	// when recovery releases the straddling outputs.
	OldestOpen int64
}

// Probes are the read-only callbacks a runtime binds so the collector can
// observe it. Nil members are legal and read as zero.
type Probes struct {
	// Queue returns the runtime-wide event-queue depth and the number of
	// frames in flight on the network.
	Queue func() (depth, inflight int)
	// Proc returns process i's gauges (i in 0..N-1).
	Proc func(i int) ProcGauges
	// Metrics returns process i's accumulator; the collector computes the
	// windowed delivery and output-commit percentiles from its histograms.
	Metrics func(i int) *metrics.Proc
	// Markers is evaluated once, at Export time; it returns the crash and
	// recovery-phase boundary annotations (see RecoveryMarkers).
	Markers func() []Marker
}

// Config parameterizes a collector.
type Config struct {
	// Interval is the sampling period in virtual time (> 0).
	Interval time.Duration
	// N is the number of application processes.
	N int
	// Label names the run in the export meta.
	Label string
	// Tiers, when non-empty, partitions the N processes into consecutive
	// id ranges (e.g. [2 2 4]: clients, frontends, backends) and turns on
	// the per-tier series: summed in-flight requests and per-tier windowed
	// output-commit percentiles. Sizes must be positive and sum to N.
	Tiers []int
}

// DefaultInterval is the sampling period the CLIs default to: fine enough
// to resolve a sub-second recovery, coarse enough that a 30 s run stays a
// few hundred rows.
const DefaultInterval = 100 * time.Millisecond

// Collector accumulates tick rows. It is safe for concurrent use, so a
// caller may read the export while another goroutine ticks; the
// simulator's single-threaded ticks pay one uncontended lock each.
type Collector struct {
	cfg Config

	mu    sync.Mutex
	pr    Probes
	ticks []Tick
	// Previous-window histogram snapshots for the tumbling-window deltas,
	// merged across processes.
	prevDelivery trace.Histogram
	prevOutput   trace.Histogram
	prevTierOut  []trace.Histogram

	// tierOf maps a process id to its tier index; nil when untiered.
	tierOf []int
}

// New returns an empty collector. Interval must be positive and N at least 1.
func New(cfg Config) *Collector {
	if cfg.Interval <= 0 {
		panic("timeline: non-positive sampling interval")
	}
	if cfg.N < 1 {
		panic("timeline: collector needs at least one process")
	}
	c := &Collector{cfg: cfg}
	if len(cfg.Tiers) > 0 {
		c.tierOf = make([]int, 0, cfg.N)
		for t, size := range cfg.Tiers {
			if size < 1 {
				panic("timeline: tier sizes must be positive")
			}
			for j := 0; j < size; j++ {
				c.tierOf = append(c.tierOf, t)
			}
		}
		if len(c.tierOf) != cfg.N {
			panic("timeline: tier sizes must sum to N")
		}
		c.prevTierOut = make([]trace.Histogram, len(cfg.Tiers))
	}
	return c
}

// Interval returns the sampling period.
func (c *Collector) Interval() time.Duration { return c.cfg.Interval }

// N returns the number of application processes.
func (c *Collector) N() int { return c.cfg.N }

// Bind attaches the runtime probes. Call before the first Tick; rebinding
// mid-run is legal (the experiments harness binds when the cluster exists).
func (c *Collector) Bind(p Probes) {
	c.mu.Lock()
	c.pr = p
	c.mu.Unlock()
}

// Ticks returns the number of samples taken so far.
func (c *Collector) Ticks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ticks)
}

// Tick takes one sample at virtual time now (nanoseconds). The hosting
// runtime's sampler calls it at each interval boundary; the collector
// trusts the caller's cadence and stamps the row with now.
func (c *Collector) Tick(now int64) {
	c.mu.Lock()
	defer c.mu.Unlock()

	row := Tick{
		TMS:     ms(time.Duration(now)),
		Phases:  "",
		Journal: make([]int, c.cfg.N),
		Lag:     make([]int, c.cfg.N),
		Stable:  make([]int64, c.cfg.N),
		Backlog: make([]int, c.cfg.N),
		Oldest:  make([]float64, c.cfg.N),
	}
	if c.pr.Queue != nil {
		row.Queue, row.InFlight = c.pr.Queue()
	}
	if c.tierOf != nil {
		row.InflightReq = make([]int, len(c.cfg.Tiers))
	}
	phases := make([]byte, c.cfg.N)
	for i := 0; i < c.cfg.N; i++ {
		g := ProcGauges{}
		if c.pr.Proc != nil {
			g = c.pr.Proc(i)
		}
		phases[i] = g.Phase.Rune()
		row.Journal[i] = g.Journal
		row.Lag[i] = g.Lag
		row.Stable[i] = g.StableBytes
		row.Backlog[i] = g.Backlog
		if g.OldestOpen > 0 {
			row.Oldest[i] = ms(time.Duration(now - g.OldestOpen))
		}
		if c.tierOf != nil {
			row.InflightReq[c.tierOf[i]] += g.Inflight
		}
	}
	row.Phases = string(phases)

	// Tumbling windows: merge the cumulative per-process histograms, then
	// diff against the previous tick's merge. The delta is exactly the
	// observations recorded inside this window. When tiered, the output
	// histograms are additionally merged per tier so each tier gets its
	// own windowed commit-latency lane.
	var delivery, outputs trace.Histogram
	var tierOut []trace.Histogram
	if c.tierOf != nil {
		tierOut = make([]trace.Histogram, len(c.cfg.Tiers))
	}
	if c.pr.Metrics != nil {
		for i := 0; i < c.cfg.N; i++ {
			if m := c.pr.Metrics(i); m != nil {
				delivery.Merge(&m.DeliveryHist)
				outputs.Merge(&m.OutputHist)
				if c.tierOf != nil {
					tierOut[c.tierOf[i]].Merge(&m.OutputHist)
				}
			}
		}
	}
	row.Delivery = windowDist(delivery.Delta(&c.prevDelivery))
	row.Output = windowDist(outputs.Delta(&c.prevOutput))
	c.prevDelivery = delivery
	c.prevOutput = outputs
	if c.tierOf != nil {
		row.TierOutput = make([]WindowDist, len(c.cfg.Tiers))
		for t := range tierOut {
			row.TierOutput[t] = windowDist(tierOut[t].Delta(&c.prevTierOut[t]))
			c.prevTierOut[t] = tierOut[t]
		}
	}

	c.ticks = append(c.ticks, row)
}

// windowDist reduces one window's histogram to the export row quantiles.
func windowDist(h trace.Histogram) WindowDist {
	if h.Count() == 0 {
		return WindowDist{}
	}
	return WindowDist{
		N:      h.Count(),
		P50MS:  ms(h.Quantile(0.50)),
		P99MS:  ms(h.Quantile(0.99)),
		P999MS: ms(h.Quantile(0.999)),
	}
}

// Export freezes the collected series into the schema-versioned form.
// Markers are computed now (runs usually export after the horizon) and
// sorted canonically so repeated exports are byte-identical.
func (c *Collector) Export() *Export {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := &Export{
		Meta: Meta{
			Schema:     SchemaVersion,
			Label:      c.cfg.Label,
			IntervalMS: ms(c.cfg.Interval),
			N:          c.cfg.N,
			Tiers:      append([]int(nil), c.cfg.Tiers...),
		},
		Ticks: append([]Tick(nil), c.ticks...),
	}
	if c.pr.Markers != nil {
		e.Markers = append([]Marker(nil), c.pr.Markers()...)
	}
	sortMarkers(e.Markers)
	return e
}

// RecoveryMarkers synthesizes the crash and recovery-phase boundary markers
// from the per-process recovery traces: every non-zero phase timestamp of
// every recovery becomes one marker. The metrics layer records these at the
// exact virtual instant the phase boundary happened, so markers are precise
// even when they fall between sampling ticks.
func RecoveryMarkers(n int, met func(i int) *metrics.Proc) []Marker {
	var out []Marker
	add := func(proc int, ts int64, kind string) {
		if ts != 0 {
			out = append(out, Marker{TMS: ms(time.Duration(ts)), Proc: proc, Kind: kind})
		}
	}
	for i := 0; i < n; i++ {
		m := met(i)
		if m == nil {
			continue
		}
		for _, r := range m.Recoveries {
			add(i, r.CrashedAt, MarkCrash)
			add(i, r.RestartedAt, MarkRestart)
			add(i, r.RestoredAt, MarkRestored)
			add(i, r.GatheredAt, MarkGathered)
			add(i, r.ReplayedAt, MarkRecoveryEnd)
		}
	}
	sortMarkers(out)
	return out
}
