package fbl

import (
	"fmt"
	"time"

	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/wire"
)

// appCtx implements workload.Ctx on top of the protocol process.
type appCtx struct{ p *Process }

func (c appCtx) Self() ids.ProcID { return c.p.env.ID() }
func (c appCtx) N() int           { return c.p.n }
func (c appCtx) Work(d int64)     { c.p.env.Busy(time.Duration(d)) }

// Send is the application send path: assign identifiers, log the message in
// the sender's volatile store (sender-based message logging), attach the
// causal piggyback, and transmit.
func (c appCtx) Send(to ids.ProcID, payload []byte) {
	p := c.p
	if to == p.env.ID() || !to.Valid(p.n) || to.IsStorage() {
		panic(fmt.Sprintf("fbl: %v: invalid app destination %v", p.env.ID(), to))
	}
	p.ssn++
	p.dseqOut[to]++
	dseq := p.dseqOut[to]
	cp := append([]byte(nil), payload...)
	p.sendLogFor(to)[dseq] = logRec{ssn: p.ssn, payload: cp}
	id := ids.MsgID{Sender: p.env.ID(), SSN: p.ssn}
	if p.par.Hooks.OnSend != nil {
		p.par.Hooks.OnSend(p.env.ID(), id, to, hashBytes(cp))
	}
	p.transmit(to, dseq, logRec{ssn: p.ssn, payload: cp})
}

// holderFingerprint folds a holder set into a comparable value.
//
//rollvet:hotpath
func holderFingerprint(e det.Entry) uint64 {
	h := uint64(1469598103934665603)
	for _, w := range e.Holders.Words() {
		h ^= w
		h *= 1099511628211
	}
	return h
}

// transmit sends one logged application message (used by both fresh sends
// and replay retransmissions). The piggyback carries every determinant not
// yet known to be stable (§2.1) that the destination is not already known
// to hold with the same holder information — the FBL estimate that stops
// the propagation of a receipt order "as soon as it has been recorded in
// f+1 hosts".
func (p *Process) transmit(to ids.ProcID, dseq uint64, rec logRec) {
	sent := p.detSentFor(to)
	var piggy []det.Entry
	consider := func(e det.Entry) {
		fp := holderFingerprint(e)
		if prev, ok := sent[e.Det.Msg]; ok && prev == fp {
			return
		}
		sent[e.Det.Msg] = fp
		piggy = append(piggy, e)
	}
	if p.par.Fanout > 0 && p.par.Outputs == nil {
		// Fanout mode drops the per-destination journal cursors: with O(n)
		// destinations each contacted rarely, every transmit would re-scan
		// the whole modification history since last contact — quadratic at
		// n=1024. The live pending set is small (entries stabilize within a
		// few hops) and the detSent fingerprints still deduplicate offers,
		// so scanning it whole is both flat-cost and offer-equivalent.
		p.dets.ScanPending(consider)
	} else if p.detCursor[to] < 0 {
		// The peer reincarnated: offer every pending determinant once.
		for _, e := range p.dets.Pending() {
			consider(e)
		}
		p.detCursor[to] = p.dets.Cursor()
	} else if p.par.Outputs != nil {
		// Output tracking needs holder knowledge to travel one hop past the
		// f+1 threshold: only learning that its antecedents are stable lets
		// the entry's receiver release output (DESIGN §10). The detSent
		// fingerprint still bounds this to one extra copy per destination.
		p.detCursor[to] = p.dets.ScanModified(p.detCursor[to], consider)
	} else {
		p.detCursor[to] = p.dets.ScanPendingModified(p.detCursor[to], consider)
	}
	if TestingDropDetPiggyback {
		// Mutation hook (see TestingDropDetPiggyback): the determinants were
		// scanned and memoized as sent, but never leave the process — the
		// exact bug class the explorer's orphan/fidelity invariants exist to
		// catch.
		piggy = nil
	}
	if p.par.Fanout > 0 {
		// The FBL sender-side estimate (§2.1): piggybacking a determinant
		// to a destination makes that destination a holder, so count it now
		// and stop propagating once the estimate reaches f+1. Without this,
		// a copy's holder view stalls below the threshold forever (stable
		// copies are never re-piggybacked, so nobody echoes the knowledge
		// back) and every process keeps offering every determinant it saw
		// until checkpoint GC — the piggyback volume that made n=1024
		// unaffordable. The estimate is optimistic about in-flight copies,
		// which is exactly the paper's stated trade; the cluster's orphan
		// checker guards the invariant in every scenario we run.
		for i := range piggy {
			p.dets.AddHolder(piggy[i].Det.Msg, to)
		}
	}
	met := p.env.Metrics()
	met.PiggybackDets += int64(len(piggy))
	for i := range piggy {
		met.PiggybackBytes += int64(32 + 8*len(piggy[i].Holders.Words()))
	}
	e := &wire.Envelope{
		Kind:    wire.KindApp,
		FromInc: p.inc,
		SSN:     rec.ssn,
		Dseq:    dseq,
		Payload: rec.payload,
		Dets:    piggy,
	}
	if p.par.Fanout > 0 {
		// Fanout mode replaces broadcast checkpoint notices with this
		// piggyback: the receiver garbage-collects our determinants up to
		// CPRsn and its send log for us up to CPDseq — the checkpoint-time
		// watermarks, never the live counters (see cpExpDseq).
		e.CPRsn = p.cpRSN
		e.CPDseq = p.cpExpDseq[to]
	}
	p.env.Send(to, e)
}

// serveReplay answers a recovering process's retransmission request: resend
// every logged message destined to it with dseq beyond its restored
// watermark, in order. This covers both the messages it must re-deliver in
// logged order and the in-flight ones it never delivered.
func (p *Process) serveReplay(e *wire.Envelope) {
	to := e.From
	if !to.Valid(p.n) || to.IsStorage() {
		return
	}
	// Serve each logged message at most once per requester incarnation:
	// the periodic request retries exist to pick up entries regenerated
	// since the last service (and to survive requester restarts, which
	// change the incarnation and reset the memo). Without the memo every
	// retry would re-send the full suffix and the requester would spend
	// its recovery absorbing duplicates.
	start := e.Dseq
	if m := p.replayServed[to]; m.inc == e.FromInc && m.max > start {
		start = m.max
	}
	log := p.sendLog[to]
	dseqs := make([]uint64, 0, len(log))
	for _, d := range sortedKeys(log) {
		if d > start {
			dseqs = append(dseqs, d)
		}
	}
	if len(dseqs) == 0 {
		return
	}
	for _, d := range dseqs {
		p.transmit(to, d, log[d])
	}
	p.replayServed[to] = servedMark{inc: e.FromInc, max: dseqs[len(dseqs)-1]}
}
