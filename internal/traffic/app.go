package traffic

import (
	"errors"

	"rollrec/internal/ids"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// Application frame kinds. The arrival frame is built by the engine and
// injected at a client; everything else is ordinary app messaging.
const (
	frameArrival  uint8 = 1 // engine -> client: seq, body
	frameRequest  uint8 = 2 // client -> frontend: seq, body, pad
	frameShardReq uint8 = 3 // frontend -> backend: seq, client, shard, body, pad
	frameShardRep uint8 = 4 // backend -> frontend: seq, client, shard, digest
	frameReply    uint8 = 5 // frontend -> client: seq, digest
)

// arrivalFrame builds the injected frame for one open-loop arrival.
func arrivalFrame(seq, body uint64) []byte {
	w := wire.NewWriter(17)
	w.U8(frameArrival)
	w.U64(seq)
	w.U64(body)
	return w.Frame()
}

var errBadSnapshot = errors.New("traffic: bad snapshot")

// clientReq is one admitted request awaiting its reply. The client releases
// outputs in admission order (head-of-line), so replies that overtake each
// other are still released to the user in request order.
type clientReq struct {
	seq    uint64
	done   bool
	digest uint64
}

// feReq is one request a frontend is fanning in. A slice (not a map) keeps
// scans and snapshots in deterministic order; entries are removed with an
// order-preserving copy.
type feReq struct {
	client ids.ProcID
	seq    uint64
	want   uint32
	got    uint32
	acc    uint64
}

// app is the role-switched multi-tier serving application: the same type
// hosts all three tiers, with spec.TierOf(self) selecting which message
// kinds it reacts to. All state — including the PRNG driving frontend and
// shard placement — is checkpointable, so every style's recovery replays
// the same routing decisions.
type app struct {
	self ids.ProcID
	spec workload.Traffic
	pad  []byte

	rng workload.PRNG

	// Client tier.
	queue    []clientReq
	released uint64
	relAcc   uint64

	// Frontend tier.
	pending []feReq
	served  uint64

	// Backend tier.
	applied uint64
	state   uint64
}

// NewApp builds the factory for the multi-tier serving app described by
// spec. The spec must describe exactly the cluster size it is hosted on;
// the factory panics otherwise (a wiring bug, per Validate's rationale).
func NewApp(spec workload.Traffic) workload.Factory {
	spec.Validate()
	return func(self ids.ProcID, n int) workload.App {
		if n != spec.N() {
			panic("traffic: cluster size does not match the traffic topology")
		}
		return &app{
			self: self,
			spec: spec,
			pad:  make([]byte, spec.PayloadPad),
			rng:  workload.NewPRNG(workload.Mix64(0x74726166666963, uint64(self))),
		}
	}
}

// Reseed folds the run-level seed into the routing stream (workload.Seeder).
func (a *app) Reseed(runSeed int64) {
	a.rng.SetState(workload.Mix64(uint64(runSeed), a.rng.State()))
}

// Start is a no-op: the workload is driven entirely by injected arrivals.
func (a *app) Start(workload.Ctx) {}

// Handle dispatches one frame by kind. Frames of the wrong kind for this
// process's tier (or malformed frames) are dropped — they indicate a
// harness bug, not an app state.
func (a *app) Handle(ctx workload.Ctx, from ids.ProcID, payload []byte) {
	r := wire.NewReader(payload)
	kind := r.U8()
	tier := a.spec.TierOf(a.self)
	switch {
	case kind == frameArrival && tier == workload.TierClient:
		seq, body := r.U64(), r.U64()
		if !r.Done() {
			return
		}
		a.onArrival(ctx, seq, body)
	case kind == frameRequest && tier == workload.TierFrontend:
		seq, body := r.U64(), r.U64()
		r.Bytes() // pad
		if !r.Done() {
			return
		}
		a.onRequest(ctx, from, seq, body)
	case kind == frameShardReq && tier == workload.TierBackend:
		seq := r.U64()
		client := ids.ProcID(r.I32())
		shard := r.U32()
		body := r.U64()
		r.Bytes() // pad
		if !r.Done() {
			return
		}
		a.onShardReq(ctx, from, seq, client, shard, body)
	case kind == frameShardRep && tier == workload.TierFrontend:
		seq := r.U64()
		client := ids.ProcID(r.I32())
		shard := r.U32()
		digest := r.U64()
		if !r.Done() {
			return
		}
		a.onShardRep(ctx, seq, client, shard, digest)
	case kind == frameReply && tier == workload.TierClient:
		seq, digest := r.U64(), r.U64()
		if !r.Done() {
			return
		}
		a.onReply(ctx, seq, digest)
	}
}

// onArrival admits a request at a client: queue it and forward to a
// uniformly chosen frontend.
func (a *app) onArrival(ctx workload.Ctx, seq, body uint64) {
	fe := ids.ProcID(a.spec.Clients + a.rng.Intn(a.spec.Frontends))
	a.queue = append(a.queue, clientReq{seq: seq})
	w := wire.NewWriter(21 + len(a.pad))
	w.U8(frameRequest)
	w.U64(seq)
	w.U64(body)
	w.Bytes(a.pad)
	ctx.Send(fe, w.Frame())
}

// onRequest fans a request out at a frontend: FanOut contiguous shards
// starting at a random backend.
func (a *app) onRequest(ctx workload.Ctx, client ids.ProcID, seq, body uint64) {
	base := a.rng.Intn(a.spec.Backends)
	a.pending = append(a.pending, feReq{client: client, seq: seq, want: uint32(a.spec.FanOut)})
	for j := 0; j < a.spec.FanOut; j++ {
		be := ids.ProcID(a.spec.Clients + a.spec.Frontends + (base+j)%a.spec.Backends)
		w := wire.NewWriter(29 + len(a.pad))
		w.U8(frameShardReq)
		w.U64(seq)
		w.I32(int32(client))
		w.U32(uint32(j))
		w.U64(body)
		w.Bytes(a.pad)
		ctx.Send(be, w.Frame())
	}
}

// onShardReq applies one shard at a backend: charge the per-hop compute,
// fold the shard into the backend state, commit the hop's output, reply.
func (a *app) onShardReq(ctx workload.Ctx, fe ids.ProcID, seq uint64, client ids.ProcID, shard uint32, body uint64) {
	if a.spec.WorkPerHop > 0 {
		ctx.Work(a.spec.WorkPerHop)
	}
	a.applied++
	a.state = workload.Mix64(a.state, workload.Mix64(body, uint64(client)<<32|uint64(shard)))
	digest := workload.Mix64(a.state, seq)
	w := wire.NewWriter(25)
	w.U8(frameShardRep)
	w.U64(seq)
	w.I32(int32(client))
	w.U32(shard)
	w.U64(digest)
	ctx.Output(w.Frame())
	ctx.Send(fe, w.Frame())
}

// onShardRep fans a shard reply in at a frontend; on the last shard the
// assembled reply is committed as this hop's output and sent to the client.
func (a *app) onShardRep(ctx workload.Ctx, seq uint64, client ids.ProcID, shard uint32, digest uint64) {
	for i := range a.pending {
		p := &a.pending[i]
		if p.client != client || p.seq != seq {
			continue
		}
		p.got++
		p.acc = workload.Mix64(p.acc, workload.Mix64(digest, uint64(shard)))
		if p.got < p.want {
			return
		}
		a.served++
		w := wire.NewWriter(17)
		w.U8(frameReply)
		w.U64(seq)
		w.U64(p.acc)
		ctx.Output(w.Frame())
		ctx.Send(client, w.Frame())
		copy(a.pending[i:], a.pending[i+1:])
		a.pending = a.pending[:len(a.pending)-1]
		return
	}
	// Unknown (client, seq): a stale reply for a request the fan-in already
	// completed or a rollback discarded. Shed silently — the client-side
	// queue is the authority on what is still owed.
}

// onReply completes a request at a client and releases every finished
// request at the head of the admission queue (the user-visible output
// commits). Rolled-back admissions vanish from the queue with the rollback
// itself, so they can never block the release cursor.
func (a *app) onReply(ctx workload.Ctx, seq, digest uint64) {
	for i := range a.queue {
		if a.queue[i].seq == seq {
			a.queue[i].done = true
			a.queue[i].digest = digest
			break
		}
	}
	for len(a.queue) > 0 && a.queue[0].done {
		head := a.queue[0]
		w := wire.NewWriter(17)
		w.U8(frameReply)
		w.U64(head.seq)
		w.U64(head.digest)
		ctx.Output(w.Frame())
		a.released++
		a.relAcc = workload.Mix64(a.relAcc, head.digest)
		a.queue = a.queue[1:]
	}
}

// Snapshot serializes the complete state (all roles; idle roles' fields
// are empty and cost a few bytes).
func (a *app) Snapshot() []byte {
	w := wire.NewWriter(64 + 17*len(a.queue) + 24*len(a.pending))
	w.U64(a.rng.State())
	w.U32(uint32(len(a.queue)))
	for _, q := range a.queue {
		w.U64(q.seq)
		if q.done {
			w.U8(1)
		} else {
			w.U8(0)
		}
		w.U64(q.digest)
	}
	w.U64(a.released)
	w.U64(a.relAcc)
	w.U32(uint32(len(a.pending)))
	for _, p := range a.pending {
		w.I32(int32(p.client))
		w.U64(p.seq)
		w.U32(p.want)
		w.U32(p.got)
		w.U64(p.acc)
	}
	w.U64(a.served)
	w.U64(a.applied)
	w.U64(a.state)
	return w.Frame()
}

// Restore replaces the state with a Snapshot frame.
func (a *app) Restore(data []byte) error {
	r := wire.NewReader(data)
	rs := r.U64()
	nq := r.ListLen()
	queue := make([]clientReq, 0, nq)
	for i := 0; i < nq && r.Err() == nil; i++ {
		var q clientReq
		q.seq = r.U64()
		q.done = r.U8() == 1
		q.digest = r.U64()
		queue = append(queue, q)
	}
	released, relAcc := r.U64(), r.U64()
	np := r.ListLen()
	pending := make([]feReq, 0, np)
	for i := 0; i < np && r.Err() == nil; i++ {
		var p feReq
		p.client = ids.ProcID(r.I32())
		p.seq = r.U64()
		p.want = r.U32()
		p.got = r.U32()
		p.acc = r.U64()
		pending = append(pending, p)
	}
	served := r.U64()
	applied, state := r.U64(), r.U64()
	if !r.Done() {
		return errBadSnapshot
	}
	a.rng.SetState(rs)
	a.queue, a.released, a.relAcc = queue, released, relAcc
	a.pending, a.served = pending, served
	a.applied, a.state = applied, state
	return nil
}

// Digest fingerprints the full state.
func (a *app) Digest() uint64 {
	h := workload.Mix64(a.rng.State(), uint64(a.self))
	h = workload.Mix64(h, uint64(len(a.queue)))
	for _, q := range a.queue {
		d := q.digest
		if q.done {
			d |= 1 << 63
		}
		h = workload.Mix64(h, workload.Mix64(q.seq, d))
	}
	h = workload.Mix64(h, workload.Mix64(a.released, a.relAcc))
	h = workload.Mix64(h, uint64(len(a.pending)))
	for _, p := range a.pending {
		h = workload.Mix64(h, workload.Mix64(p.seq, uint64(p.client)<<32|uint64(p.got)))
		h = workload.Mix64(h, p.acc)
	}
	h = workload.Mix64(h, a.served)
	return workload.Mix64(h, workload.Mix64(a.applied, a.state))
}

// Done always reports false: an open-loop workload has no natural end —
// the experiment horizon decides when the run stops.
func (a *app) Done() bool { return false }

// InflightReqs reports this process's open-request gauge for the timeline
// collector: admitted-but-unreleased at a client, fanning-in at a
// frontend, zero at a backend (backends hold no per-request state).
func (a *app) InflightReqs() int {
	switch a.spec.TierOf(a.self) {
	case workload.TierClient:
		return len(a.queue)
	case workload.TierFrontend:
		return len(a.pending)
	}
	return 0
}

// Released reports how many requests this client has released to the user.
func (a *app) Released() uint64 { return a.released }

// Applied reports how many shards this backend has applied.
func (a *app) Applied() uint64 { return a.applied }
