package workload

import (
	"testing"
	"testing/quick"

	"rollrec/internal/ids"
)

// fakeCtx records sends for determinism checks.
type fakeCtx struct {
	self  ids.ProcID
	n     int
	sends []sendRec
	work  int64
}

type sendRec struct {
	to      ids.ProcID
	payload string
}

func (f *fakeCtx) Self() ids.ProcID { return f.self }
func (f *fakeCtx) N() int           { return f.n }
func (f *fakeCtx) Send(to ids.ProcID, payload []byte) {
	f.sends = append(f.sends, sendRec{to, string(payload)})
}
func (f *fakeCtx) Work(d int64)  { f.work += d }
func (f *fakeCtx) Output([]byte) {}

func TestPRNGDeterministicAndSerializable(t *testing.T) {
	a := NewPRNG(7)
	b := NewPRNG(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must give same stream")
		}
	}
	mid := a.State()
	c := NewPRNG(1)
	c.SetState(mid)
	for i := 0; i < 100; i++ {
		if a.Next() != c.Next() {
			t.Fatal("restored state must continue the stream")
		}
	}
}

func TestPRNGZeroSeed(t *testing.T) {
	p := NewPRNG(0)
	if p.Next() == 0 && p.Next() == 0 {
		t.Fatal("zero seed must not produce a degenerate stream")
	}
}

func TestPRNGIntnRange(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		if n == 0 {
			return true
		}
		p := NewPRNG(seed)
		for i := 0; i < 20; i++ {
			v := p.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTokenRingCirculation(t *testing.T) {
	const n, hops = 4, 12
	apps := make([]App, n)
	ctxs := make([]*fakeCtx, n)
	factory := NewTokenRing(hops, 0, 0)
	for i := range apps {
		apps[i] = factory(ids.ProcID(i), n)
		ctxs[i] = &fakeCtx{self: ids.ProcID(i), n: n}
	}
	apps[0].Start(ctxs[0])
	// Pump messages until quiescent.
	type inflight struct {
		from ids.ProcID
		rec  sendRec
	}
	var queue []inflight
	drain := func(i int) {
		for _, s := range ctxs[i].sends {
			queue = append(queue, inflight{ids.ProcID(i), s})
		}
		ctxs[i].sends = nil
	}
	drain(0)
	deliveries := 0
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		to := int(m.rec.to)
		apps[to].Handle(ctxs[to], m.from, []byte(m.rec.payload))
		deliveries++
		drain(to)
	}
	if deliveries != hops {
		t.Fatalf("deliveries = %d, want %d", deliveries, hops)
	}
	for i, a := range apps {
		if !a.Done() {
			t.Errorf("process %d not Done after final hop", i)
		}
	}
	// All processes saw hops; total visits == hops.
	var visits uint64
	for _, a := range apps {
		visits += a.(*TokenRing).Visits()
	}
	if visits != hops {
		t.Fatalf("total visits = %d, want %d", visits, hops)
	}
}

// replaySends runs an app through a delivery sequence and returns the sends
// plus the final digest.
func replaySends(app App, deliveries []sendRec, start bool) ([]sendRec, uint64) {
	ctx := &fakeCtx{self: 1, n: 4}
	if start {
		app.Start(ctx)
	}
	for _, d := range deliveries {
		app.Handle(ctx, d.to /* reuse field as "from" */, []byte(d.payload))
	}
	return ctx.sends, app.Digest()
}

func TestAppsDeterministicReplay(t *testing.T) {
	factories := map[string]Factory{
		"ring":   NewTokenRing(100, 8, 0),
		"gossip": NewRandomPeer(2, 5, 8, 0),
		"cs":     NewClientServer(5, 8, 0),
	}
	mkDeliveries := func(f Factory) []sendRec {
		// Use another instance's outputs as plausible inputs.
		src := f(0, 4)
		ctx := &fakeCtx{self: 0, n: 4}
		src.Start(ctx)
		var ds []sendRec
		for i, s := range ctx.sends {
			ds = append(ds, sendRec{to: ids.ProcID(i % 4), payload: s.payload})
		}
		return ds
	}
	for name, f := range factories {
		ds := mkDeliveries(f)
		s1, d1 := replaySends(f(1, 4), ds, true)
		s2, d2 := replaySends(f(1, 4), ds, true)
		if d1 != d2 || len(s1) != len(s2) {
			t.Fatalf("%s: identical runs diverged", name)
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("%s: send %d differs", name, i)
			}
		}
	}
}

func TestSnapshotRestoreMidStream(t *testing.T) {
	factories := map[string]Factory{
		"ring":   NewTokenRing(100, 4, 0),
		"gossip": NewRandomPeer(2, 5, 4, 0),
		"cs":     NewClientServer(5, 4, 0),
	}
	for name, f := range factories {
		// Generate a plausible delivery stream from sibling instances (both
		// a process-0 and a process-1 start, since some workloads only seed
		// from one role).
		var stream []string
		for _, self := range []ids.ProcID{0, 1} {
			src := f(self, 4)
			srcCtx := &fakeCtx{self: self, n: 4}
			src.Start(srcCtx)
			for _, s := range srcCtx.sends {
				stream = append(stream, s.payload)
			}
		}
		if len(stream) == 0 {
			t.Fatalf("%s: no seed messages generated", name)
		}
		for len(stream) < 6 {
			stream = append(stream, stream[0])
		}

		// Run A straight through.
		a := f(2, 4)
		actx := &fakeCtx{self: 2, n: 4}
		a.Start(actx)
		for _, p := range stream {
			a.Handle(actx, 0, []byte(p))
		}

		// Run B with a snapshot/restore in the middle.
		b := f(2, 4)
		bctx := &fakeCtx{self: 2, n: 4}
		b.Start(bctx)
		for _, p := range stream[:3] {
			b.Handle(bctx, 0, []byte(p))
		}
		snap := b.Snapshot()
		b2 := f(2, 4)
		if err := b2.Restore(snap); err != nil {
			t.Fatalf("%s: Restore: %v", name, err)
		}
		for _, p := range stream[3:] {
			b2.Handle(bctx, 0, []byte(p))
		}
		if a.Digest() != b2.Digest() {
			t.Fatalf("%s: snapshot/restore diverged from straight run", name)
		}
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	apps := []App{
		NewTokenRing(10, 0, 0)(0, 4),
		NewRandomPeer(1, 1, 0, 0)(0, 4),
		NewClientServer(1, 0, 0)(0, 4),
	}
	for i, a := range apps {
		if err := a.Restore([]byte{1, 2, 3}); err == nil {
			t.Errorf("app %d accepted a garbage snapshot", i)
		}
	}
}

func TestRandomPeerNeverSendsToSelf(t *testing.T) {
	f := NewRandomPeer(10, 10, 0, 0)
	app := f(2, 5).(*RandomPeer)
	for i := 0; i < 1000; i++ {
		if app.pick() == 2 {
			t.Fatal("pick must never choose self")
		}
	}
}

func TestClientServerCompletion(t *testing.T) {
	const n, k = 3, 4
	apps := make([]App, n)
	ctxs := make([]*fakeCtx, n)
	f := NewClientServer(k, 0, 0)
	for i := range apps {
		apps[i] = f(ids.ProcID(i), n)
		ctxs[i] = &fakeCtx{self: ids.ProcID(i), n: n}
	}
	type msg struct {
		from, to ids.ProcID
		payload  string
	}
	var q []msg
	pump := func(i int) {
		for _, s := range ctxs[i].sends {
			q = append(q, msg{ids.ProcID(i), s.to, s.payload})
		}
		ctxs[i].sends = nil
	}
	for i := range apps {
		apps[i].Start(ctxs[i])
		pump(i)
	}
	for len(q) > 0 {
		m := q[0]
		q = q[1:]
		apps[m.to].Handle(ctxs[m.to], m.from, []byte(m.payload))
		pump(int(m.to))
	}
	for i, a := range apps {
		if !a.Done() {
			t.Errorf("process %d not Done", i)
		}
	}
	if got := apps[0].(*ClientServer).Applied(); got != k*(n-1) {
		t.Fatalf("server applied %d, want %d", got, k*(n-1))
	}
}

func TestWorkIsCharged(t *testing.T) {
	f := NewTokenRing(5, 0, 123)
	app := f(1, 3)
	ctx := &fakeCtx{self: 1, n: 3}
	payload := NewTokenRing(5, 0, 0)(0, 3).(*TokenRing).token(1, 0)
	app.Handle(ctx, 0, payload)
	if ctx.work != 123 {
		t.Fatalf("work charged = %d, want 123", ctx.work)
	}
}
