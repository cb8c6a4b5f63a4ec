package explore

import (
	"fmt"
	"time"

	"rollrec/internal/cluster"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/trace"
	"rollrec/internal/wire"
)

// exploreHW is the accelerated hardware profile every exploration runs on:
// era-1995 cost ratios with detection/restart latencies compressed so a
// full crash-recovery cycle fits in a couple of virtual seconds — the same
// compression the coord/optimistic test harnesses use. All branches of one
// exploration share it, so cross-branch comparisons stay apples-to-apples.
func exploreHW() node.Hardware {
	hw := node.Profile1995()
	hw.WatchdogDetect = 300 * time.Millisecond
	hw.RestartDelay = 50 * time.Millisecond
	hw.SuspectAfter = 400 * time.Millisecond
	hw.HeartbeatEvery = 50 * time.Millisecond
	hw.CPUMsgCost = 50 * time.Microsecond
	hw.CPUByteCost = 0
	hw.Disk.Latency = 2 * time.Millisecond
	hw.Disk.ReadBandwidth = 50e6
	hw.Disk.WriteBandwidth = 50e6
	return hw
}

// point is one decision-point candidate: a step boundary right after an
// event the protocol state machine pivots on.
type point struct {
	Step int64  `json:"step"`
	At   int64  `json:"at"`
	Why  string `json:"why"`
}

// maxRecorded bounds the tracer's memory on pathological branches.
const maxRecorded = 1 << 16

// decisionTracer derives decision points from the structured trace stream:
// application-relevant frame receipts (anything but heartbeats), checkpoint
// captures, and stable-storage writes become crash candidates; recovery-
// phase transitions (restore, announce, gather, replay, restart) are
// recorded separately so a second crash can be aimed *inside* an
// in-progress recovery. The step index is read from the kernel mid-
// dispatch, which names the boundary immediately after the observed event.
type decisionTracer struct {
	steps      func() int64 // kernel step counter; wired after kernel build
	pointLimit int64        // only events at/before this virtual time become candidates
	points     []point
	recSteps   []int64
}

var _ trace.Tracer = (*decisionTracer)(nil)

func (d *decisionTracer) Enabled() bool { return true }

func (d *decisionTracer) mark(ts int64, why string) {
	if d.steps == nil || ts > d.pointLimit || len(d.points) >= maxRecorded {
		return
	}
	d.points = append(d.points, point{Step: d.steps(), At: ts, Why: why})
}

func (d *decisionTracer) markRec(ts int64) {
	if d.steps == nil || ts > d.pointLimit || len(d.recSteps) >= maxRecorded {
		return
	}
	d.recSteps = append(d.recSteps, d.steps())
}

func (d *decisionTracer) Instant(ts int64, proc int32, name string, tag trace.Tag) {
	switch name {
	case trace.EvRecv:
		if tag.Kind == uint8(wire.KindHeartbeat) {
			return
		}
		d.mark(ts, fmt.Sprintf("recv-kind-%d", tag.Kind))
	case trace.EvAnnounce, trace.EvGatherAbort, trace.EvRestart:
		d.markRec(ts)
	}
}

func (d *decisionTracer) Begin(ts int64, proc int32, name string, tag trace.Tag) trace.SpanRef {
	switch name {
	case trace.EvCheckpoint:
		d.mark(ts, "checkpoint")
	case trace.EvRestore, trace.EvWaiting, trace.EvGather, trace.EvReplay:
		d.markRec(ts)
	}
	return 0
}

func (d *decisionTracer) End(ref trace.SpanRef, ts int64) {}

func (d *decisionTracer) Span(ts, dur int64, proc int32, name string, tag trace.Tag) {
	if name == trace.EvStorageWrite {
		d.mark(ts, "storage-write")
	}
}

// instance is one freshly-built scenario, ready to run exactly once.
type instance struct {
	c         *cluster.Cluster
	tracer    *decisionTracer
	conflicts []string
	// stateFidelity marks that terminal digests must equal the crash-free
	// baseline's. Valid only when the workload is a single causal chain
	// (coordinated/optimistic ring): the FBL funnel's digest depends on the
	// cross-sender arrival interleaving, which message logging pins only
	// for deliveries that happened *before* the crash — post-crash
	// interleavings may legitimately differ from a crash-free execution,
	// so FBL relies on the protocol-level checks (orphans, exactly-once,
	// replay fidelity) instead.
	stateFidelity bool
}

// build constructs a fresh instance of the spec's scenario. Workload sizes
// are fixed per family: small enough that the bounded-exhaustive pass stays
// cheap, busy enough that decision points cover sends, commits, and
// storage traffic.
func build(spec Spec) *instance {
	dt := &decisionTracer{pointLimit: int64(spec.Horizon - spec.SettleSlack)}
	cfg := cluster.Config{
		Family:          spec.Family,
		N:               spec.N,
		F:               spec.F,
		Seed:            spec.Seed,
		HW:              exploreHW(),
		Style:           spec.Style,
		CheckpointEvery: spec.CheckpointEvery,
		Tracer:          dt,
		TrackOutputs:    true,
	}
	switch spec.Family {
	case FamilyFBL:
		cfg.App = funnelFactory(5, 64, int64(200*time.Microsecond))
		cfg.StatePad = 16 << 10
	case FamilyCoordinated:
		cfg.App = ringFactory(uint64(8*spec.N), 64, int64(500*time.Microsecond))
		cfg.StatePad = 8 << 10
	case FamilyOptimistic:
		cfg.App = ringFactory(uint64(8*spec.N), 64, int64(500*time.Microsecond))
		cfg.StatePad = 2 << 10
	default:
		panic(fmt.Sprintf("explore: unknown family %q", spec.Family))
	}
	c := cluster.New(cfg)
	in := &instance{c: c, tracer: dt, stateFidelity: spec.Family != FamilyFBL}
	dt.steps = c.Kernel().Steps
	c.Outputs().SetOnConflict(func(proc ids.ProcID, seq uint64, oldHash, newHash uint64) {
		in.conflicts = append(in.conflicts, fmt.Sprintf(
			"proc %d output #%d re-requested with different content after release (%#x -> %#x)",
			proc, seq, oldHash, newHash))
	})
	return in
}
