package workload

import (
	"errors"
	"fmt"

	"rollrec/internal/ids"
	"rollrec/internal/wire"
)

// errBadSnapshot is returned by Restore on malformed snapshots.
var errBadSnapshot = errors.New("workload: malformed snapshot")

// ---------------------------------------------------------------------------
// Token ring
// ---------------------------------------------------------------------------

// TokenRing circulates a single token around the ring 0→1→…→n-1→0, mixing a
// running accumulator at each hop. It is the most replay-sensitive workload:
// the entire computation is one causal chain, so any lost or duplicated
// delivery corrupts the final digest. MaxHops bounds the computation;
// PayloadPad inflates the token to model realistic message sizes.
type TokenRing struct {
	self       ids.ProcID
	n          int
	MaxHops    uint64
	PayloadPad int
	WorkPerMsg int64

	// Checkpointable state.
	visits  uint64
	lastHop uint64
	acc     uint64
}

// NewTokenRing returns a factory for a ring of maxHops hops with the given
// payload padding.
func NewTokenRing(maxHops uint64, payloadPad int, workPerMsg int64) Factory {
	return func(self ids.ProcID, n int) App {
		return &TokenRing{self: self, n: n, MaxHops: maxHops, PayloadPad: payloadPad, WorkPerMsg: workPerMsg}
	}
}

func (t *TokenRing) token(hop, acc uint64) []byte {
	w := wire.NewWriter(16 + t.PayloadPad)
	w.U64(hop)
	w.U64(acc)
	w.Bytes(make([]byte, t.PayloadPad))
	return w.Frame()
}

// Start launches the token from process 0.
func (t *TokenRing) Start(ctx Ctx) {
	if t.self == 0 && t.MaxHops > 0 {
		ctx.Send(1%ids.ProcID(t.n), t.token(1, Mix64(0, 0)))
	}
}

// Handle advances the token.
func (t *TokenRing) Handle(ctx Ctx, from ids.ProcID, payload []byte) {
	r := wire.NewReader(payload)
	hop := r.U64()
	acc := r.U64()
	r.Bytes()
	if r.Err() != nil {
		return
	}
	if t.WorkPerMsg > 0 {
		ctx.Work(t.WorkPerMsg)
	}
	t.visits++
	t.lastHop = hop
	t.acc = Mix64(acc, uint64(t.self))
	if hop < t.MaxHops {
		next := ids.ProcID((int(t.self) + 1) % t.n)
		ctx.Send(next, t.token(hop+1, t.acc))
	}
}

// Snapshot serializes the ring state.
func (t *TokenRing) Snapshot() []byte {
	w := wire.NewWriter(24)
	w.U64(t.visits)
	w.U64(t.lastHop)
	w.U64(t.acc)
	return w.Frame()
}

// Restore replaces the ring state.
func (t *TokenRing) Restore(data []byte) error {
	r := wire.NewReader(data)
	t.visits = r.U64()
	t.lastHop = r.U64()
	t.acc = r.U64()
	if !r.Done() {
		return fmt.Errorf("%w: token ring", errBadSnapshot)
	}
	return nil
}

// Digest fingerprints the state.
func (t *TokenRing) Digest() uint64 {
	return Mix64(Mix64(t.visits, t.lastHop), t.acc)
}

// Done reports whether the token can no longer visit this process.
func (t *TokenRing) Done() bool {
	return t.lastHop+uint64(t.n) > t.MaxHops && t.visits > 0
}

// Acc exposes the accumulator for test assertions.
func (t *TokenRing) Acc() uint64 { return t.acc }

// Visits exposes the visit count for test assertions.
func (t *TokenRing) Visits() uint64 { return t.visits }

// ---------------------------------------------------------------------------
// Random peer gossip
// ---------------------------------------------------------------------------

// RandomPeer models the irregular communication the FBL piggybacking rules
// are designed for: every process seeds a few message chains; each delivery
// mixes the payload into local state and forwards a shorter chain to a
// pseudo-randomly chosen peer. The PRNG is part of the checkpointed state,
// so replay regenerates identical choices.
type RandomPeer struct {
	self       ids.ProcID
	n          int
	Seeds      int
	TTL        int
	PayloadPad int
	WorkPerMsg int64

	// Checkpointable state.
	rng     PRNG
	handled uint64
	acc     uint64
}

// NewRandomPeer returns a factory: each process starts seeds chains of
// length ttl+1 deliveries.
func NewRandomPeer(seeds, ttl, payloadPad int, workPerMsg int64) Factory {
	return func(self ids.ProcID, n int) App {
		return &RandomPeer{
			self: self, n: n, Seeds: seeds, TTL: ttl, PayloadPad: payloadPad,
			WorkPerMsg: workPerMsg,
			rng:        NewPRNG(uint64(self)*0xA24BAED4963EE407 + 1),
		}
	}
}

// Reseed folds the run-level seed into the gossip PRNG so different
// simulation seeds explore different communication patterns (Seeder
// contract: called before Start, so the mixed state is checkpointed like
// any other app state and replay regenerates identical choices).
func (g *RandomPeer) Reseed(runSeed int64) {
	g.rng = PRNG{s: Mix64(uint64(runSeed), g.rng.State())}
}

func (g *RandomPeer) pick() ids.ProcID {
	p := g.rng.Intn(g.n - 1)
	if p >= int(g.self) {
		p++
	}
	return ids.ProcID(p)
}

func (g *RandomPeer) chain(ttl int, body uint64) []byte {
	w := wire.NewWriter(16 + g.PayloadPad)
	w.U32(uint32(ttl))
	w.U64(body)
	w.Bytes(make([]byte, g.PayloadPad))
	return w.Frame()
}

// Start seeds the chains.
func (g *RandomPeer) Start(ctx Ctx) {
	for i := 0; i < g.Seeds; i++ {
		ctx.Send(g.pick(), g.chain(g.TTL, g.rng.Next()))
	}
}

// Handle mixes and forwards.
func (g *RandomPeer) Handle(ctx Ctx, from ids.ProcID, payload []byte) {
	r := wire.NewReader(payload)
	ttl := int(r.U32())
	body := r.U64()
	r.Bytes()
	if r.Err() != nil {
		return
	}
	if g.WorkPerMsg > 0 {
		ctx.Work(g.WorkPerMsg)
	}
	g.handled++
	g.acc = Mix64(g.acc, Mix64(body, uint64(from)))
	if ttl > 0 {
		ctx.Send(g.pick(), g.chain(ttl-1, Mix64(body, g.acc)))
	}
}

// Snapshot serializes the gossip state.
func (g *RandomPeer) Snapshot() []byte {
	w := wire.NewWriter(24)
	w.U64(g.rng.State())
	w.U64(g.handled)
	w.U64(g.acc)
	return w.Frame()
}

// Restore replaces the gossip state.
func (g *RandomPeer) Restore(data []byte) error {
	r := wire.NewReader(data)
	g.rng.SetState(r.U64())
	g.handled = r.U64()
	g.acc = r.U64()
	if !r.Done() {
		return fmt.Errorf("%w: random peer", errBadSnapshot)
	}
	return nil
}

// Digest fingerprints the state.
func (g *RandomPeer) Digest() uint64 { return Mix64(Mix64(g.handled, g.acc), g.rng.State()) }

// Done always reports false: gossip quiesces by horizon, not by target.
func (g *RandomPeer) Done() bool { return false }

// Handled exposes the delivery count for assertions.
func (g *RandomPeer) Handled() uint64 { return g.handled }

// ---------------------------------------------------------------------------
// Client–server
// ---------------------------------------------------------------------------

// ClientServer runs process 0 as a server applying requests from every
// other process; each client pipelines one request at a time, K requests
// total. It models the output-commit-style workloads where a failed server
// must recover without the clients observing duplicated or lost
// applications.
type ClientServer struct {
	self       ids.ProcID
	n          int
	K          int
	PayloadPad int
	WorkPerMsg int64

	// Checkpointable state.
	rng     PRNG
	applied uint64 // server: requests applied
	state   uint64 // server: running state hash
	sent    int    // client: requests issued
	gotLast bool   // client: final reply received
}

// NewClientServer returns a factory where each of the n-1 clients issues k
// requests to the server at process 0.
func NewClientServer(k, payloadPad int, workPerMsg int64) Factory {
	return func(self ids.ProcID, n int) App {
		return &ClientServer{
			self: self, n: n, K: k, PayloadPad: payloadPad, WorkPerMsg: workPerMsg,
			rng: NewPRNG(uint64(self)*0xD1342543DE82EF95 + 7),
		}
	}
}

func (c *ClientServer) request(seq int) []byte {
	w := wire.NewWriter(16 + c.PayloadPad)
	w.U32(uint32(seq))
	w.U64(c.rng.Next())
	w.Bytes(make([]byte, c.PayloadPad))
	return w.Frame()
}

// Start issues each client's first request.
func (c *ClientServer) Start(ctx Ctx) {
	if c.self != 0 && c.K > 0 {
		c.sent = 1
		ctx.Send(0, c.request(1))
	}
}

// Handle applies a request (server) or issues the next one (client).
func (c *ClientServer) Handle(ctx Ctx, from ids.ProcID, payload []byte) {
	r := wire.NewReader(payload)
	seq := int(r.U32())
	body := r.U64()
	r.Bytes()
	if r.Err() != nil {
		return
	}
	if c.WorkPerMsg > 0 {
		ctx.Work(c.WorkPerMsg)
	}
	if c.self == 0 {
		c.applied++
		c.state = Mix64(c.state, Mix64(body, uint64(from)))
		reply := wire.NewWriter(20)
		reply.U32(uint32(seq))
		reply.U64(c.state)
		reply.Bytes(nil) // keep the request/reply frame layout identical
		// The reply is externally visible: the client acts on it, so it may
		// only leave once the protocol's output-commit rule holds.
		ctx.Output(reply.Frame())
		ctx.Send(from, reply.Frame())
		return
	}
	// Client: a reply to request seq.
	if seq >= c.K {
		c.gotLast = true
		return
	}
	c.sent = seq + 1
	ctx.Send(0, c.request(seq+1))
}

// Snapshot serializes the state.
func (c *ClientServer) Snapshot() []byte {
	w := wire.NewWriter(40)
	w.U64(c.rng.State())
	w.U64(c.applied)
	w.U64(c.state)
	w.U32(uint32(c.sent))
	last := uint8(0)
	if c.gotLast {
		last = 1
	}
	w.U8(last)
	return w.Frame()
}

// Restore replaces the state.
func (c *ClientServer) Restore(data []byte) error {
	r := wire.NewReader(data)
	c.rng.SetState(r.U64())
	c.applied = r.U64()
	c.state = r.U64()
	c.sent = int(r.U32())
	c.gotLast = r.U8() == 1
	if !r.Done() {
		return fmt.Errorf("%w: client-server", errBadSnapshot)
	}
	return nil
}

// Digest fingerprints the state.
func (c *ClientServer) Digest() uint64 {
	last := uint64(0)
	if c.gotLast {
		last = 1
	}
	return Mix64(Mix64(c.applied, c.state), Mix64(uint64(c.sent), last))
}

// Done reports completion: clients after the final reply, the server after
// applying every request.
func (c *ClientServer) Done() bool {
	if c.self == 0 {
		return c.applied >= uint64(c.K*(c.n-1))
	}
	return c.gotLast
}

// Applied exposes the server's applied count for assertions.
func (c *ClientServer) Applied() uint64 { return c.applied }
