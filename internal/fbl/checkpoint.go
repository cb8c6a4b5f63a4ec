package fbl

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"rollrec/internal/ids"
	"rollrec/internal/trace"
	"rollrec/internal/vclock"
	"rollrec/internal/wire"
)

// Stable-store keys.
const (
	keyCheckpoint  = "cp"
	keyIncarnation = "inc"
)

const checkpointVersion = 1

// writeIncRecord durably records the incarnation number and the highest
// ordinal clock used, so a re-crash during recovery still produces a fresh
// incarnation and a fresh ordinal.
func (p *Process) writeIncRecord(done func()) {
	w := wire.NewWriter(12)
	w.U32(uint32(p.inc))
	w.U64(p.lam.Now())
	p.env.WriteStable(keyIncarnation, w.Frame(), done)
}

func parseIncRecord(data []byte) (ids.Incarnation, uint64, bool) {
	r := wire.NewReader(data)
	inc := ids.Incarnation(r.U32())
	clk := r.U64()
	if !r.Done() {
		return 0, 0, false
	}
	return inc, clk, true
}

// encodeCheckpoint serializes the complete recoverable state: application
// snapshot, send/receive counters, the volatile send log (sender-based
// logging survives the sender's own failure through its checkpoint), and
// the incarnation vector. StatePad models the paper's ~1 MB process images.
func (p *Process) encodeCheckpoint() []byte {
	app := p.app.Snapshot()
	w := wire.NewWriter(256 + len(app) + p.par.StatePad)
	w.U8(checkpointVersion)
	w.U32(uint32(p.inc))
	w.U64(p.lam.Now())
	if p.started {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.U64(uint64(p.ssn))
	w.U64(uint64(p.rsn))
	for i := 0; i < p.n; i++ {
		w.U64(p.dseqOut[i])
		w.U64(p.expDseq[i])
		w.U32(uint32(p.incVec.Get(ids.ProcID(i))))
	}
	w.Bytes(app)
	for to := 0; to < p.n; to++ {
		log := p.sendLog[to]
		w.U32(uint32(len(log)))
		for _, d := range sortedKeys(log) {
			rec := log[d]
			w.U64(d)
			w.U64(uint64(rec.ssn))
			w.Bytes(rec.payload)
		}
	}
	w.Bytes(make([]byte, p.par.StatePad))
	// The output-commit counter rides after the padding, and only when the
	// process ever produced output: workloads that never call Ctx.Output
	// keep byte-identical checkpoints (and thus identical storage timings
	// and golden traces) across this format extension.
	if p.outSeq != 0 {
		w.U64(p.outSeq)
	}
	return w.Frame()
}

// sortedKeys returns m's keys in ascending order. Every protocol-path
// iteration over a map whose order can reach message contents, checkpoints,
// or replay schedules must go through it (or carry a rollvet suppression
// proving commutativity).
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	//rollvet:allow maporder -- keys are fully sorted below before any use
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// decodeCheckpoint restores the state captured by encodeCheckpoint.
func (p *Process) decodeCheckpoint(data []byte) error {
	r := wire.NewReader(data)
	if v := r.U8(); v != checkpointVersion {
		return fmt.Errorf("fbl: checkpoint version %d", v)
	}
	p.inc = ids.Incarnation(r.U32())
	lam := r.U64()
	for p.lam.Now() < lam {
		p.lam.Witness(lam - 1)
	}
	p.started = r.U8() == 1
	p.ssn = ids.SSN(r.U64())
	p.rsn = ids.RSN(r.U64())
	vec := make([]ids.Incarnation, p.n)
	for i := 0; i < p.n; i++ {
		p.dseqOut[i] = r.U64()
		p.expDseq[i] = r.U64()
		vec[i] = ids.Incarnation(r.U32())
	}
	p.incVec.Merge(vclock.FromSlice(vec))
	app := r.Bytes()
	for to := 0; to < p.n; to++ {
		cnt := r.ListLen()
		if cnt == 0 {
			continue // keep the lazily-nil map
		}
		p.sendLog[to] = make(map[uint64]logRec, cnt)
		for i := 0; i < cnt && r.Err() == nil; i++ {
			d := r.U64()
			ssn := ids.SSN(r.U64())
			payload := r.Bytes()
			p.sendLog[to][d] = logRec{ssn: ssn, payload: payload}
		}
	}
	r.Bytes() // padding
	if !r.Done() {
		p.outSeq = r.U64() // optional tail: see encodeCheckpoint
	}
	if !r.Done() {
		return fmt.Errorf("fbl: corrupt checkpoint: %v", r.Err())
	}
	if err := p.app.Restore(app); err != nil {
		return fmt.Errorf("fbl: restoring app snapshot: %w", err)
	}
	return nil
}

// scheduleCheckpoint arms the periodic checkpoint, staggered per process so
// the cluster's checkpoints do not synchronize.
func (p *Process) scheduleCheckpoint() {
	if p.par.CheckpointEvery <= 0 {
		return
	}
	first := p.par.CheckpointEvery +
		p.par.CheckpointEvery*time.Duration(p.env.ID()+1)/time.Duration(p.n+1)
	p.env.After(first, p.checkpointTick)
}

func (p *Process) checkpointTick() {
	p.env.After(p.par.CheckpointEvery, p.checkpointTick)
	if p.mode != ModeLive || p.cpBusy || p.blocked {
		return
	}
	p.doCheckpoint()
}

// doCheckpoint captures and durably writes the state, then announces the
// new garbage-collection watermarks.
func (p *Process) doCheckpoint() {
	cpSpan := p.env.Tracer().Begin(p.env.Now(), int32(p.env.ID()),
		trace.EvCheckpoint, trace.Tag{Inc: uint32(p.inc)})
	data := p.encodeCheckpoint()
	p.cpBusy = true
	rsnAt := p.rsn
	outAt := p.outSeq
	expAt := make([]ids.SSN, p.n)
	for i, d := range p.expDseq {
		expAt[i] = ids.SSN(d)
	}
	// Compact the determinant journal up to the slowest consumer: the
	// piggyback cursors and (when output tracking is on) the output-commit
	// scan cursor.
	minCur := p.dets.Cursor()
	if p.par.Fanout == 0 || p.par.Outputs != nil {
		// The piggyback cursors only exist on the journal-scan transmit
		// path; fanout mode scans the live pending index instead, so its
		// journal has no consumers to hold compaction back.
		for _, c := range p.detCursor {
			if c >= 0 && c < minCur {
				minCur = c
			}
		}
	}
	if p.par.Outputs != nil && p.outCursor < minCur {
		minCur = p.outCursor
	}
	p.dets.Compact(minCur)
	p.env.WriteStable(keyCheckpoint, data, func() {
		p.env.Tracer().End(cpSpan, p.env.Now())
		p.cpBusy = false
		p.cpRSN = rsnAt
		for i, d := range expAt {
			p.cpExpDseq[i] = uint64(d)
		}
		// Outputs captured by the now-durable checkpoint are recoverable
		// regardless of determinant replication.
		p.cpOutSeq = outAt
		p.checkOutputs()
		// Our own determinants for deliveries the checkpoint covers will
		// never be replayed again.
		p.dets.GCReceiver(p.env.ID(), rsnAt)
		notice := &wire.Envelope{
			Kind:          wire.KindCheckpointNotice,
			FromInc:       p.inc,
			CPRsn:         rsnAt,
			SSNWatermarks: expAt,
		}
		if p.par.Fanout > 0 {
			// Fanout mode: the broadcast is O(n²) cluster-wide, so the
			// notice goes to the ring successors only. Everyone else learns
			// the watermarks from the CPRsn/CPDseq piggyback on the next
			// application send (see transmit).
			for _, q := range p.ring(+1) {
				p.env.Send(q, notice.Clone())
			}
		} else {
			for q := 0; q < p.n; q++ {
				if ids.ProcID(q) == p.env.ID() {
					continue
				}
				p.env.Send(ids.ProcID(q), notice.Clone())
			}
		}
		if p.cfg.Manetho() {
			p.env.Send(ids.StorageProc, notice.Clone())
		}
	})
}

// onCheckpointNotice garbage-collects state the peer's checkpoint covers:
// determinants of its deliveries, and our send-log entries it has consumed.
func (p *Process) onCheckpointNotice(e *wire.Envelope) {
	p.dets.GCReceiver(e.From, e.CPRsn)
	self := int(p.env.ID())
	if self < len(e.SSNWatermarks) && e.From.Valid(p.n) && !e.From.IsStorage() {
		wm := uint64(e.SSNWatermarks[self])
		log := p.sendLog[e.From]
		//rollvet:allow maporder -- deletes the value-independent prefix d <= wm; commutative
		for d := range log {
			if d <= wm {
				delete(log, d)
			}
		}
	}
}

// restore is the recovery boot path: read the incarnation record and the
// checkpoint (paying the stable-storage latency that dominates the paper's
// five-second recoveries), then start the recovery protocol.
func (p *Process) restore() {
	restoreSpan := p.env.Tracer().Begin(p.env.Now(), int32(p.env.ID()),
		trace.EvRestore, trace.Tag{})
	p.env.ReadStable(keyIncarnation, func(incData []byte, okInc bool) {
		p.env.ReadStable(keyCheckpoint, func(cpData []byte, okCP bool) {
			prevInc := ids.Incarnation(1)
			var prevClk uint64
			if okInc {
				if inc, clk, ok := parseIncRecord(incData); ok {
					prevInc, prevClk = inc, clk
				}
			}
			if okCP {
				if err := p.decodeCheckpoint(cpData); err != nil {
					panic(fmt.Sprintf("fbl: %v: %v", p.env.ID(), err))
				}
				p.cpRSN = p.rsn
				p.cpOutSeq = p.outSeq
				copy(p.cpExpDseq, p.expDseq)
			}
			// No checkpoint: the initial state (fresh app, Start not yet
			// run) is itself a valid recovery point.
			if p.inc < prevInc {
				p.inc = prevInc
			}
			p.inc++
			for p.lam.Now() < prevClk {
				p.lam.Witness(prevClk - 1)
			}
			ord := ids.Ordinal{Clock: p.lam.Tick(), Proc: p.env.ID()}
			p.writeIncRecord(func() {
				if tr := p.env.Metrics().CurrentRecovery(); tr != nil {
					tr.RestoredAt = p.env.Now()
					tr.Incarnation = uint32(p.inc)
				}
				p.env.Tracer().End(restoreSpan, p.env.Now())
				p.mode = ModeRecovering
				p.mgr.StartRecovery(ord, p.inc)
			})
		})
	})
}
