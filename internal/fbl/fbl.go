// Package fbl implements the Family-Based Logging protocol engine (paper
// §2): sender-based volatile message logging, causal determinant
// piggybacking parameterized by the failure budget f, periodic
// checkpointing with distributed garbage collection, and the deterministic
// replay machinery the recovery algorithm drives.
//
// Instances of the family: f = 1 behaves like Sender-Based Message Logging,
// intermediate f like the Alvisi–Marzullo FBL protocols, and f = n like
// Manetho, with a never-failing stable-storage pseudo-process as the
// required (f+1)-th determinant holder (§3.3).
package fbl

import (
	"fmt"
	"time"

	"rollrec/internal/bitset"
	"rollrec/internal/det"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/node"
	"rollrec/internal/output"
	"rollrec/internal/recovery"
	"rollrec/internal/trace"
	"rollrec/internal/vclock"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// Params configures one protocol process.
type Params struct {
	// N is the number of application processes; F the failure budget
	// (F >= N selects the f = n instance with the storage pseudo-process).
	N int
	F int
	// App builds the hosted application.
	App workload.Factory
	// Style selects the recovery algorithm variant.
	Style recovery.Style
	// CheckpointEvery is the periodic checkpoint interval (0 disables
	// periodic checkpoints; recovery then replays from the beginning).
	CheckpointEvery time.Duration
	// StatePad inflates checkpoints by this many bytes to model the process
	// image size (the paper's processes were ~1 MB).
	StatePad int
	// HeartbeatEvery / SuspectAfter drive the failure detector.
	HeartbeatEvery time.Duration
	SuspectAfter   time.Duration
	// RetryEvery is the recovery-protocol retransmission period.
	RetryEvery time.Duration
	// Fanout bounds per-process control traffic for large clusters. 0 (the
	// default) keeps the paper's all-to-all behavior: heartbeats and
	// checkpoint notices go to every peer. A positive k switches to a ring
	// scheme: heartbeats go to the k ring successors only (and the failure
	// detector monitors the k ring predecessors), checkpoint notices are
	// ring-scoped, and their garbage-collection content instead piggybacks
	// on application sends (CPRsn/CPDseq), so GC information still reaches
	// exactly the peers that hold state for us. Recovery announcements and
	// replay requests stay broadcast, and depinfo gathers become scoped to
	// the recovering members. Fanout 0 is byte-identical to the pre-fanout
	// protocol.
	Fanout int
	// Outputs receives the output-commit lifecycle (nil disables tracking;
	// Ctx.Output is then a no-op).
	Outputs output.Sink
	// Hooks receive out-of-band observation events for tests.
	Hooks Hooks
}

// storageFlushEvery is the determinant streaming period to the storage
// pseudo-process (f = n only).
const storageFlushEvery = 100 * time.Millisecond

// withDefaults fills unset timing parameters.
func (p Params) withDefaults() Params {
	if p.HeartbeatEvery <= 0 {
		p.HeartbeatEvery = 250 * time.Millisecond
	}
	if p.SuspectAfter <= 0 {
		p.SuspectAfter = 3 * time.Second
	}
	if p.RetryEvery <= 0 {
		p.RetryEvery = time.Second
	}
	return p
}

// Hooks are optional observation callbacks used by the test harness to
// check cross-process invariants (exactly-once, orphan-freedom). They live
// outside the simulated world: crashing a process does not reset them.
type Hooks struct {
	// OnSend fires for every application send (including regenerated sends
	// during replay).
	OnSend func(self ids.ProcID, id ids.MsgID, to ids.ProcID, payloadHash uint64)
	// OnDeliver fires for every application delivery.
	OnDeliver func(self ids.ProcID, id ids.MsgID, from ids.ProcID, rsn ids.RSN, payloadHash uint64)
	// OnLive fires when a process (re)joins as live after replay; ssn and
	// rsn are the post-replay counters, i.e. the surviving timeline's
	// frontier (everything beyond was lost to the rollback).
	OnLive func(self ids.ProcID, inc ids.Incarnation, ssn ids.SSN, rsn ids.RSN)
}

// Mode is the process lifecycle state.
type Mode int

const (
	// ModeLive: normal operation.
	ModeLive Mode = iota
	// ModeRestoring: reading the checkpoint from stable storage.
	ModeRestoring
	// ModeRecovering: running the recovery protocol (waiting or leading).
	ModeRecovering
	// ModeReplaying: re-consuming logged deliveries.
	ModeReplaying
)

// String names the mode.
func (m Mode) String() string {
	return [...]string{"live", "restoring", "recovering", "replaying"}[m]
}

type logRec struct {
	ssn     ids.SSN
	payload []byte
}

type servedMark struct {
	inc ids.Incarnation
	max uint64
}

// Process is one FBL protocol instance hosting one application. It
// implements node.Process; a crash discards it entirely (volatile state)
// while its stable store persists in the runtime.
type Process struct {
	env node.Env
	par Params
	n   int
	cfg det.Config

	inc    ids.Incarnation
	incVec vclock.IncVector
	lam    vclock.Lamport

	app     workload.App
	started bool
	mode    Mode

	// Send path.
	ssn     ids.SSN
	dseqOut []uint64
	sendLog []map[uint64]logRec // per destination: dseq → record

	// Receive path.
	rsn     ids.RSN
	expDseq []uint64
	oooBuf  []map[uint64]*wire.Envelope

	dets  *det.Log
	cpRSN ids.RSN // delivery watermark covered by the last durable checkpoint
	// cpExpDseq is the per-sender consumed watermark as of the last durable
	// checkpoint (the same snapshot a checkpoint notice's SSNWatermarks
	// carries). Fanout mode piggybacks it on application sends so receivers
	// can prune their send logs without a broadcast notice. It must never
	// track the live expDseq: a watermark beyond the durable checkpoint
	// would let senders drop messages we still need for replay.
	cpExpDseq []uint64

	// detSent estimates, per destination, which determinant copies the
	// destination already stores (keyed by message, valued by a fingerprint
	// of the holder set last sent). This is the dependency-matrix estimate
	// of the FBL protocols [Alvisi–Marzullo]: an entry already held by the
	// receiver need not be piggybacked again, which is what keeps the
	// piggyback bounded. The estimate is reset for a destination when it
	// reincarnates (its volatile log died with it).
	detSent []map[ids.MsgID]uint64
	// detCursor is each destination's position in the determinant log's
	// modification journal; -1 forces a full rescan (after the peer
	// reincarnated).
	detCursor []int
	// replayServed remembers, per requester, the highest send-log dseq
	// already retransmitted to a given incarnation, so periodic replay-
	// request retries do not flood the recovering process with redundant
	// copies (the requester's CPU absorbing duplicates would otherwise
	// dominate its replay).
	replayServed []servedMark

	mgr    *recovery.Manager
	detect *failure.Detector

	// Replay state.
	needed    map[ids.MsgID]ids.RSN
	replayBuf map[ids.RSN]*wire.Envelope
	nextRSN   ids.RSN
	maxRSN    ids.RSN
	replayT   node.Timer

	// Live-side blocking and recovery-time buffering.
	blocked     bool
	deferred    []*wire.Envelope
	blockedSpan trace.SpanRef

	// Open replay-phase span.
	replaySpan trace.SpanRef

	// Checkpoint bookkeeping.
	cpBusy bool

	// Output commit (DESIGN §10).
	outSeq      uint64     // outputs requested so far (checkpointed)
	cpOutSeq    uint64     // outputs covered by the last durable checkpoint
	pendingOuts []*outWait // requested, rule not yet satisfied, seq-ascending
	// outWaiters maps each awaited determinant id to the outputs waiting on
	// it; outCursor is this consumer's position in the determinant log's
	// modification journal (see checkOutputs).
	outWaiters map[ids.MsgID][]*outWait
	outCursor  int

	// Observability (volatile, test-only).
	journal []det.Determinant
}

var _ node.Process = (*Process)(nil)
var _ recovery.Host = (*Process)(nil)

// New returns a node.Factory producing protocol instances for one slot.
func New(par Params) node.Factory {
	par = par.withDefaults()
	return func() node.Process { return &Process{par: par} }
}

// Boot implements node.Process.
func (p *Process) Boot(env node.Env, restart bool) {
	p.env = env
	p.n = env.N()
	p.cfg = det.Config{N: p.n, F: p.par.F}
	p.incVec = vclock.NewIncVector(p.n)
	p.dets = det.NewLog(p.cfg)
	p.dseqOut = make([]uint64, p.n)
	p.expDseq = make([]uint64, p.n)
	p.cpExpDseq = make([]uint64, p.n)
	// The per-destination maps are allocated lazily (sendLogFor and friends):
	// at n=1024 the eager 3n maps per process cost ~3M allocations per boot
	// cluster-wide, almost all for peers a process never exchanges traffic
	// with.
	p.sendLog = make([]map[uint64]logRec, p.n)
	p.oooBuf = make([]map[uint64]*wire.Envelope, p.n)
	p.detSent = make([]map[ids.MsgID]uint64, p.n)
	p.detCursor = make([]int, p.n)
	p.replayServed = make([]servedMark, p.n)
	p.outWaiters = make(map[ids.MsgID][]*outWait)
	p.app = p.par.App(env.ID(), p.n)
	p.mgr = recovery.NewManager(recovery.Config{
		Style:        p.par.Style,
		F:            p.par.F,
		RetryEvery:   p.par.RetryEvery,
		ScopedGather: p.par.Fanout > 0,
	}, p, env)
	p.detect = failure.NewDetector(env.ID(), p.n, p.par.SuspectAfter, env.Now(),
		func(q ids.ProcID) { p.mgr.OnSuspect(q) })
	if p.par.Fanout > 0 {
		p.detect.SetMonitored(p.ring(-1))
	}
	p.startTimers()

	if !restart {
		p.inc = 1
		p.writeIncRecord(func() {})
		p.mode = ModeLive
		p.started = true
		p.app.Start(appCtx{p})
		p.scheduleCheckpoint()
		return
	}
	// Reincarnation: restore from stable storage (recovery step 1).
	p.mode = ModeRestoring
	p.restore()
}

// ring returns the Fanout-sized ring neighborhood of this process: the
// successors (self+1, self+2, …) mod n for dir=+1, the predecessors for
// dir=-1. With Fanout >= n-1 (or 0) it degenerates to every peer.
func (p *Process) ring(dir int) []ids.ProcID {
	k := p.par.Fanout
	if k <= 0 || k > p.n-1 {
		k = p.n - 1
	}
	out := make([]ids.ProcID, 0, k)
	self := int(p.env.ID())
	for i := 1; i <= k; i++ {
		out = append(out, ids.ProcID(((self+dir*i)%p.n+p.n)%p.n))
	}
	return out
}

// sendLogFor, oooBufFor and detSentFor lazily allocate the per-destination
// maps; see Boot.
func (p *Process) sendLogFor(to ids.ProcID) map[uint64]logRec {
	if p.sendLog[to] == nil {
		p.sendLog[to] = make(map[uint64]logRec)
	}
	return p.sendLog[to]
}

func (p *Process) oooBufFor(from ids.ProcID) map[uint64]*wire.Envelope {
	if p.oooBuf[from] == nil {
		p.oooBuf[from] = make(map[uint64]*wire.Envelope)
	}
	return p.oooBuf[from]
}

func (p *Process) detSentFor(to ids.ProcID) map[ids.MsgID]uint64 {
	if p.detSent[to] == nil {
		p.detSent[to] = make(map[ids.MsgID]uint64)
	}
	return p.detSent[to]
}

func (p *Process) startTimers() {
	var beat func()
	beat = func() {
		hb := &wire.Envelope{Kind: wire.KindHeartbeat, FromInc: p.inc}
		if p.par.Fanout > 0 {
			// Ring heartbeats: each process pings its k successors, so each
			// is monitored by its k predecessors.
			for _, q := range p.ring(+1) {
				p.env.Send(q, hb.Clone())
			}
		} else {
			for q := 0; q < p.n; q++ {
				if ids.ProcID(q) == p.env.ID() {
					continue
				}
				p.env.Send(ids.ProcID(q), hb.Clone())
			}
		}
		p.detect.Tick(p.env.Now())
		p.env.After(p.par.HeartbeatEvery, beat)
	}
	p.env.After(p.par.HeartbeatEvery, beat)

	if p.cfg.Manetho() {
		var flush func()
		flush = func() {
			p.flushToStorage()
			p.env.After(storageFlushEvery, flush)
		}
		p.env.After(storageFlushEvery, flush)
	}
}

// flushToStorage streams determinants not yet held by the storage
// pseudo-process (f = n instance).
func (p *Process) flushToStorage() {
	if p.mode != ModeLive && p.mode != ModeReplaying {
		return
	}
	pending := p.dets.PendingForStorage()
	if len(pending) == 0 {
		return
	}
	p.env.Send(ids.StorageProc, &wire.Envelope{
		Kind:    wire.KindDetsToStorage,
		FromInc: p.inc,
		Dets:    pending,
	})
}

// Deliver implements node.Process.
func (p *Process) Deliver(e *wire.Envelope) {
	p.detect.Heard(e.From, p.env.Now())
	if !e.Ord.IsZero() {
		p.lam.Witness(e.Ord.Clock)
	}
	// Learn newer incarnations from any frame; reject stale application
	// frames (paper §3.2: "a receiver rejects any message that originates
	// from a previous incarnation of its sender").
	p.learnIncarnation(e.From, e.FromInc)
	if e.Kind == wire.KindApp && p.incVec.Stale(e.From, e.FromInc) {
		p.env.Metrics().Stale++
		return
	}
	// Record piggybacked determinants before anything else so our own
	// subsequent sends forward them (the causal propagation of §2.1).
	if e.Kind == wire.KindApp && len(e.Dets) > 0 {
		p.absorbDets(e.Dets)
	}
	if e.Kind == wire.KindApp && p.par.Fanout > 0 {
		p.applyPiggybackGC(e)
	}

	switch e.Kind {
	case wire.KindApp:
		p.appPath(e)
	case wire.KindHeartbeat:
		// Heard() above is all a heartbeat is for.
	case wire.KindCheckpointNotice:
		p.onCheckpointNotice(e)
	case wire.KindStorageAck:
		for _, id := range e.MsgIDs {
			p.dets.AddHolder(id, ids.StorageProc)
		}
	case wire.KindReplayRequest:
		p.serveReplay(e)
	default:
		p.mgr.HandleMessage(e)
	}
	// Holder knowledge only grows on the receive path, so this is the one
	// place pending outputs can become committable.
	p.checkOutputs()
}

// applyPiggybackGC consumes the checkpoint watermarks riding on a fanout-
// mode application frame: the sender's determinants up to its checkpointed
// RSN are replay-dead, and our logged messages it had consumed by that
// checkpoint will never be re-requested. Both are the exact operations a
// broadcast checkpoint notice performs, delivered point-to-point instead.
func (p *Process) applyPiggybackGC(e *wire.Envelope) {
	if e.CPRsn > 0 {
		p.dets.GCReceiver(e.From, e.CPRsn)
	}
	if e.CPDseq > 0 && e.From.Valid(p.n) && !e.From.IsStorage() {
		log := p.sendLog[e.From]
		//rollvet:allow maporder -- deletes the value-independent prefix d <= wm; commutative
		for d := range log {
			if d <= e.CPDseq {
				delete(log, d)
			}
		}
	}
}

// absorbDets merges piggybacked determinant entries and marks ourselves as
// a holder of each (we now store the receipt order in our volatile log).
func (p *Process) absorbDets(entries []det.Entry) {
	self := det.HolderIndex(p.env.ID(), p.n)
	for _, en := range entries {
		en = en.Clone()
		en.Holders.Add(self)
		if err := p.dets.Record(en); err != nil {
			panic(fmt.Sprintf("fbl: %v: conflicting piggybacked determinant: %v", p.env.ID(), err))
		}
	}
}

// appPath routes an application frame according to the lifecycle mode.
func (p *Process) appPath(e *wire.Envelope) {
	switch p.mode {
	case ModeLive:
		if p.blocked {
			p.deferred = append(p.deferred, e)
			return
		}
		p.deliverNow(e)
	case ModeReplaying:
		p.replayAccept(e)
	case ModeRestoring, ModeRecovering:
		// Too early to decide: buffer until replay begins.
		p.deferred = append(p.deferred, e)
	}
}

// deliverNow performs normal-path delivery with per-sender FIFO
// de-duplication.
func (p *Process) deliverNow(e *wire.Envelope) {
	from := int(e.From)
	exp := p.expDseq[from]
	switch {
	case e.Dseq <= exp:
		p.env.Metrics().Duplicate++
		return
	case e.Dseq > exp+1:
		p.oooBufFor(e.From)[e.Dseq] = e
		return
	}
	p.consume(e, 0)
	// Drain any buffered successors that became contiguous.
	for {
		next, ok := p.oooBuf[from][p.expDseq[from]+1]
		if !ok {
			break
		}
		delete(p.oooBuf[from], p.expDseq[from]+1)
		p.consume(next, 0)
	}
}

// consume delivers one application frame: it assigns the receive sequence
// number (forcedRSN overrides during replay), records the determinant, and
// hands the payload to the application.
func (p *Process) consume(e *wire.Envelope, forcedRSN ids.RSN) {
	from := int(e.From)
	p.expDseq[from] = e.Dseq
	if forcedRSN != 0 {
		p.rsn = forcedRSN
	} else {
		p.rsn++
	}
	d := det.Determinant{
		Msg:      ids.MsgID{Sender: e.From, SSN: e.SSN},
		Receiver: p.env.ID(),
		RSN:      p.rsn,
	}
	if forcedRSN == 0 {
		holders := newHolders(p.env.ID(), p.n)
		if err := p.dets.Record(det.Entry{Det: d, Holders: holders}); err != nil {
			panic(fmt.Sprintf("fbl: %v: recording own determinant: %v", p.env.ID(), err))
		}
	} else {
		// Replay: the determinant is already in the gathered log; we hold
		// it again now.
		p.dets.AddHolder(d.Msg, p.env.ID())
	}
	p.journal = append(p.journal, d)
	p.env.Metrics().Delivered++
	if p.par.Hooks.OnDeliver != nil {
		p.par.Hooks.OnDeliver(p.env.ID(), d.Msg, e.From, d.RSN, hashBytes(e.Payload))
	}
	p.app.Handle(appCtx{p}, e.From, e.Payload)
}

// learnIncarnation records a newer incarnation of q and invalidates the
// piggyback estimate for it: a reincarnated process lost its volatile
// determinant log, so nothing can be assumed already held there.
func (p *Process) learnIncarnation(q ids.ProcID, inc ids.Incarnation) {
	if p.incVec.Bump(q, inc) {
		if q >= 0 && int(q) < p.n {
			p.detSent[q] = nil  // reset; reallocated lazily on the next send
			p.detCursor[q] = -1 // offer everything pending again
		}
	}
}

func newHolders(self ids.ProcID, n int) bitset.Set {
	var s bitset.Set
	s.Add(det.HolderIndex(self, n))
	return s
}

// hashBytes is a small FNV-1a for hook payload fingerprints.
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
