package workload

import (
	"fmt"

	"rollrec/internal/ids"
	"rollrec/internal/wire"
)

// Figure1 enacts the example execution of the paper's Figure 1 with three
// processes p, q, r (ids 0, 1, 2):
//
//	q sends m to p;  p, on delivering m, sends m' to q;
//	q, on delivering m', sends m'' to r.
//
// So m is an antecedent of m', and m' of m”. With f = 2 the receipt order
// of m must reach three hosts — exactly p, q, r along the causal path. The
// figure1 example and tests crash p after it sent m' and verify that p
// recovers m's receipt order from its peers' volatile logs (paper §2.1),
// and that the recovered execution regenerates m' and m” identically.
//
// Rounds repeats the m → m' → m” chain so the computation stays active
// long enough for mid-chain crashes.
type Figure1 struct {
	self   ids.ProcID
	n      int
	Rounds int

	// Checkpointable state.
	acc   uint64
	seen  uint64 // messages delivered
	round uint64
}

// NewFigure1 returns the factory; the cluster must have exactly 3
// processes.
func NewFigure1(rounds int) Factory {
	return func(self ids.ProcID, n int) App {
		if n != 3 {
			panic(fmt.Sprintf("workload: Figure1 needs n=3, got %d", n))
		}
		return &Figure1{self: self, n: n, Rounds: rounds}
	}
}

func (f *Figure1) msg(tag string, round uint64, acc uint64) []byte {
	w := wire.NewWriter(32)
	w.Bytes([]byte(tag))
	w.U64(round)
	w.U64(acc)
	return w.Frame()
}

// Start: q launches the first chain.
func (f *Figure1) Start(ctx Ctx) {
	if f.self == 1 && f.Rounds > 0 {
		ctx.Send(0, f.msg("m", 1, Mix64(0, 1)))
	}
}

// Handle advances the m → m' → m” chain.
func (f *Figure1) Handle(ctx Ctx, from ids.ProcID, payload []byte) {
	r := wire.NewReader(payload)
	tag := string(r.Bytes())
	round := r.U64()
	acc := r.U64()
	if r.Err() != nil {
		return
	}
	f.seen++
	f.round = round
	f.acc = Mix64(acc, uint64(f.self)<<8|uint64(len(tag)))
	switch {
	case f.self == 0 && tag == "m":
		ctx.Send(1, f.msg("m'", round, f.acc))
	case f.self == 1 && tag == "m'":
		ctx.Send(2, f.msg("m''", round, f.acc))
	case f.self == 2 && tag == "m''":
		if round < uint64(f.Rounds) {
			// r hands the chain back to q for the next round (keeps the
			// figure's communication structure cycling).
			ctx.Send(1, f.msg("restart", round+1, f.acc))
		}
	case f.self == 1 && tag == "restart":
		ctx.Send(0, f.msg("m", round, f.acc))
	}
}

// Snapshot serializes the state.
func (f *Figure1) Snapshot() []byte {
	w := wire.NewWriter(24)
	w.U64(f.acc)
	w.U64(f.seen)
	w.U64(f.round)
	return w.Frame()
}

// Restore replaces the state.
func (f *Figure1) Restore(data []byte) error {
	r := wire.NewReader(data)
	f.acc = r.U64()
	f.seen = r.U64()
	f.round = r.U64()
	if !r.Done() {
		return fmt.Errorf("%w: figure1", errBadSnapshot)
	}
	return nil
}

// Digest fingerprints the state.
func (f *Figure1) Digest() uint64 { return Mix64(Mix64(f.acc, f.seen), f.round) }

// Done: r has seen the final chain.
func (f *Figure1) Done() bool {
	if f.self == 2 {
		return f.round >= uint64(f.Rounds) && f.seen > 0
	}
	return f.round >= uint64(f.Rounds) && f.seen > 0
}

// Seen exposes the delivery count for assertions.
func (f *Figure1) Seen() uint64 { return f.seen }
