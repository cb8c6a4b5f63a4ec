package main

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"rollrec/internal/bitset"
	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/netmodel"
	"rollrec/internal/node"
	"rollrec/internal/sim"
	"rollrec/internal/storage"
	"rollrec/internal/wire"
)

// The per-layer drivers time calls into one layer's public functions on
// inputs sized like the workload's own state (see shape), and report ns
// and heap allocations per operation.

// driverResult is one driver's median ns/op and mean allocations per op.
type driverResult struct {
	nsPerOp, allocsPerOp float64
}

const (
	driverBatches = 9
	// driverBatch is the target duration of one timed batch.
	driverBatch = 15 * time.Millisecond
)

// sink keeps the compiler from discarding the drivers' results.
var sink int

func allocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timeOps times op in batches of equal size. fresh builds the state for
// one batch outside the timed region and returns the operation; the batch
// size doubles from 1 until a batch takes a quarter of driverBatch, but
// never exceeds maxIters (stateful drivers bound how far state may drift).
func timeOps(fresh func() func(i int), maxIters int) driverResult {
	iters := 1
	for {
		op := fresh()
		start := time.Now()
		for i := 0; i < iters; i++ {
			op(i)
		}
		if time.Since(start) >= driverBatch/4 || iters >= maxIters {
			break
		}
		iters = min(2*iters, maxIters)
	}
	iters = max(1, min(maxIters, iters*4))
	perOp := make([]float64, 0, driverBatches)
	var objs uint64
	for b := 0; b < driverBatches; b++ {
		op := fresh()
		runtime.GC()
		a := allocObjects()
		start := time.Now()
		for i := 0; i < iters; i++ {
			op(i)
		}
		el := time.Since(start)
		objs += allocObjects() - a
		perOp = append(perOp, float64(el.Nanoseconds())/float64(iters))
	}
	return driverResult{
		nsPerOp:     median(perOp),
		allocsPerOp: float64(objs) / float64(driverBatches*iters),
	}
}

// detFixture fills a determinant log the way a process's journal looks at
// the end of the workload: sh.journal entries, sh.pending of them below
// the f+1-holder stability threshold.
func detFixture(sh shape) (*det.Log, []det.Entry) {
	l := det.NewLog(det.Config{N: sh.n, F: sh.f})
	depth := max(sh.journal, 1)
	pending := min(max(sh.pending, 1), depth)
	entries := make([]det.Entry, 0, depth)
	for i := 0; i < depth; i++ {
		e := detEntry(sh, i, i >= depth-pending)
		if err := l.Record(e); err != nil {
			panic(err)
		}
		entries = append(entries, e)
	}
	return l, entries
}

// detEntry is the determinant of message i, held by the sender and the
// next processes on: f+1 holders when stable, fewer (at most the sender
// and the receiver) when pending.
func detEntry(sh shape, i int, pending bool) det.Entry {
	from := ids.ProcID(i % sh.n)
	to := ids.ProcID((i + 1) % sh.n)
	h := bitset.New(sh.n + 1)
	holders := sh.f + 1
	if pending {
		holders = min(2, sh.f)
	}
	for k := 0; k < holders; k++ {
		h.Add(det.HolderIndex(ids.ProcID((int(from)+k)%sh.n), sh.n))
	}
	return det.Entry{
		Det:     det.Determinant{Msg: ids.MsgID{Sender: from, SSN: ids.SSN(i + 1)}, Receiver: to, RSN: ids.RSN(i + 1)},
		Holders: h,
	}
}

// runDrivers times every layer driver on the workload's shape and returns
// the per-layer metrics. spans receives one span per driver under parent.
func runDrivers(sh shape, spans *spanLog, parent int) map[string]float64 {
	out := map[string]float64{}
	put := func(name string, fn func() driverResult) {
		id := spans.begin("driver:"+name, parent)
		r := fn()
		spans.end(id)
		out[name+"_ns"] = r.nsPerOp
		out[name+"_allocs"] = r.allocsPerOp
	}
	depth := max(sh.journal, 1)

	// det.record: half new determinants, half holder-set unions of the
	// previous one — the two paths absorbing a piggyback takes.
	const recordOps = 1 << 12
	put("det.record", func() driverResult {
		return timeOps(func() func(int) {
			l, _ := detFixture(sh)
			fresh := make([]det.Entry, recordOps)
			for i := range fresh {
				fresh[i] = detEntry(sh, depth+i/2, true)
				if i%2 == 1 {
					fresh[i].Holders.Add(det.HolderIndex(ids.ProcID((i/2+2)%sh.n), sh.n))
				}
			}
			return func(i int) {
				if err := l.Record(fresh[i]); err != nil {
					panic(err)
				}
			}
		}, recordOps)
	})
	l, entries := detFixture(sh)
	visit := func(det.Entry) { sink++ }
	put("det.scan_pending", func() driverResult {
		return timeOps(func() func(int) { return func(int) { l.ScanPending(visit) } }, 1<<20)
	})
	put("det.pending_ids", func() driverResult {
		return timeOps(func() func(int) { return func(int) { l.PendingIDs(func(ids.MsgID) { sink++ }) } }, 1<<20)
	})
	put("det.scan_modified", func() driverResult {
		return timeOps(func() func(int) { return func(int) { l.ScanModified(0, visit) } }, 1<<20)
	})
	put("bitset.count", func() driverResult {
		return timeOps(func() func(int) {
			return func(i int) { sink += entries[i%len(entries)].Holders.Count() }
		}, 1<<24)
	})

	env := &wire.Envelope{
		Kind: wire.KindApp, From: 0, To: ids.ProcID(1 % sh.n), FromInc: 1,
		SSN: 1 << 20, Dseq: 1 << 10, Payload: make([]byte, max(sh.payload, 1)),
	}
	for i := 0; i < sh.detsPerMsg; i++ {
		env.Dets = append(env.Dets, entries[i%len(entries)])
	}
	put("wire.envelope_rt", func() driverResult {
		return timeOps(func() func(int) {
			return func(int) {
				if _, err := wire.Decode(wire.Encode(env)); err != nil {
					panic(err)
				}
			}
		}, 1<<22)
	})

	hw := node.Profile1995()
	frame := wire.Size(env)
	put("netmodel.schedule", func() driverResult {
		return timeOps(func() func(int) {
			net := netmodel.New(hw.Net, rand.New(rand.NewSource(1)))
			return func(i int) {
				at, _ := net.Schedule(int64(i)*1000, ids.ProcID(i%sh.n), ids.ProcID((i+1)%sh.n), frame)
				sink += int(at & 1)
			}
		}, 1<<24)
	})

	keys := make([]string, sh.n)
	for i := range keys {
		keys[i] = "ckpt/" + strconv.Itoa(i)
	}
	put("storage.put", func() driverResult {
		data := make([]byte, max(sh.ckptBytes, 1))
		return timeOps(func() func(int) {
			s := storage.NewStore()
			return func(i int) { s.Put(keys[i%len(keys)], data) }
		}, 1<<20)
	})

	put("sim.deliver", func() driverResult { return simDriver(sh, frame, false) })
	r := simDriver(sh, frame, true)
	out["sim.sharded_window_ns"] = r.nsPerOp
	out["sim.sharded_window_allocs"] = r.allocsPerOp
	return out
}

// relayNode forwards every frame it receives to the next process on a
// ring: the kernel's schedule → deliver → send path with no protocol on
// top. Each node starts one token, so every node has work in every
// window.
type relayNode struct {
	env     node.Env
	out     wire.Envelope
	payload []byte
}

func (p *relayNode) next() ids.ProcID { return (p.env.ID() + 1) % ids.ProcID(p.env.N()) }

func (p *relayNode) Boot(env node.Env, restart bool) {
	p.env = env
	p.out = wire.Envelope{Kind: wire.KindApp, Payload: p.payload}
	p.env.Send(p.next(), &p.out)
}

func (p *relayNode) Deliver(e *wire.Envelope) {
	p.out.SSN++
	p.env.Send(p.next(), &p.out)
}

// simShardCount matches scale256's shard count.
const simShardCount = 2

// simDriver times the classic kernel per event, or the sharded kernel per
// conservative window, on a relay ring of sh.n nodes carrying frames of
// the workload's size.
func simDriver(sh shape, frame int, sharded bool) driverResult {
	hw := node.Profile1995()
	payload := make([]byte, max(frame, 1))
	build := func() sim.Runtime {
		cfg := sim.Config{Seed: 1, HW: hw}
		var k sim.Runtime
		if sharded {
			cfg.FIFODefer = true
			k = sim.NewSharded(cfg, simShardCount)
		} else {
			k = sim.New(cfg)
		}
		for i := 0; i < sh.n; i++ {
			k.AddNode(ids.ProcID(i), func() node.Process { return &relayNode{payload: payload} })
		}
		k.Boot()
		return k
	}
	// Size the virtual horizon so one batch handles about simBatchEvents.
	const simBatchEvents = 100_000
	probe := 100 * time.Millisecond
	events, _ := build().RunContext(context.Background(), probe)
	horizon := probe * time.Duration(max(1, simBatchEvents/max(events, 1)))
	window := hw.Net.Latency

	perOp := make([]float64, 0, driverBatches)
	var objs uint64
	var ops int64
	for b := 0; b < driverBatches; b++ {
		k := build()
		runtime.GC()
		a := allocObjects()
		start := time.Now()
		n, _ := k.RunContext(context.Background(), horizon)
		el := time.Since(start)
		objs += allocObjects() - a
		if sharded {
			n = int64(horizon / window)
		}
		ops += n
		perOp = append(perOp, float64(el.Nanoseconds())/float64(max(n, 1)))
	}
	return driverResult{nsPerOp: median(perOp), allocsPerOp: float64(objs) / float64(max(ops, 1))}
}
