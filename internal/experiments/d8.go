package experiments

import (
	"context"
	"fmt"
	"time"

	"rollrec/internal/costmodel"
	"rollrec/internal/failure"
	"rollrec/internal/ids"
	"rollrec/internal/recovery"
	"rollrec/internal/wire"
)

// D8 validates the analytical cost model (the paper's hoped-for
// "theoretical formulation", §7) against the simulator: for the E1
// scenario it compares the predicted and measured recovery-phase times and
// per-live-process intrusion, per recovery style.
func D8(ctx context.Context, seed int64) Table {
	t := Table{
		ID:      "D8",
		Title:   "analytical model vs simulation (single failure, n=8, f=2)",
		Columns: []string{"style", "quantity", "model", "measured", "ratio"},
		Notes: []string{
			"the model expresses recovery cost in technology terms (detection, storage, per-message",
			"cost) instead of message counts — the reformulation the paper's conclusion asks for",
		},
	}
	for _, style := range []recovery.Style{recovery.NonBlocking, recovery.Blocking, recovery.Manetho} {
		spec := PaperSpec(style, seed)
		spec.Crashes = failure.Plan{{At: 10 * time.Second, Proc: 3}}
		r := MustRun(ctx, spec)
		if ctx.Err() != nil {
			return t
		}
		tr := r.Victim(3)
		b := BreakdownOf(tr)
		meanBlocked, _ := r.LiveBlocked()

		in := modelInputsFrom(r)
		in.Style = style
		pred := costmodel.SingleFailure(in)

		add := func(q string, model, measured time.Duration) {
			ratio := "-"
			if measured > 0 && model > 0 {
				ratio = fmt.Sprintf("%.2f", float64(model)/float64(measured))
			}
			t.AddRow(style.String(), q, model, measured, ratio)
		}
		add("detect+restart", pred.DetectRestart, b.DetectRestart)
		add("restore", pred.Restore, b.Restore)
		add("gather", pred.Gather, b.Gather)
		add("total", pred.Total(), b.Total)
		add("live blocked", pred.LiveBlocked, meanBlocked)
	}
	return t
}

// modelInputsFrom derives the model's workload-dependent inputs from a
// finished run, so the validation compares like with like.
func modelInputsFrom(r *Result) costmodel.Inputs {
	// Depinfo size: the mean measured depinfo reply.
	var depMsgs, depBytes64 int64
	for i := 0; i < r.Spec.N; i++ {
		m := r.C.Metrics(ids.ProcID(i))
		depMsgs += m.MsgsSent[uint8(wire.KindDepReply)]
		depBytes64 += m.BytesSent[uint8(wire.KindDepReply)]
	}
	depBytes := 4096
	if depMsgs > 0 {
		depBytes = int(depBytes64 / depMsgs)
	}
	// Replayed deliveries: the victim's Delivered counter double-counts
	// exactly the replayed prefix relative to its timeline length.
	met3 := r.C.Metrics(3)
	replayed := int(met3.Delivered - int64(r.C.Proc(3).RSN()))
	if replayed < 0 {
		replayed = 0
	}
	var cpBytes int
	if s := r.C.K.Store(3); s != nil {
		cpBytes = s.Size("cp")
	}
	if cpBytes == 0 {
		cpBytes = r.Spec.StatePad
	}
	return costmodel.Inputs{
		HW:              r.Spec.HW,
		N:               r.Spec.N,
		F:               r.Spec.F,
		CheckpointBytes: cpBytes,
		DepinfoBytes:    depBytes,
		ReplayMsgs:      replayed,
		ReplayMsgBytes:  330, // gossip payload + envelope overhead
		WorkPerMsg:      time.Millisecond,
	}
}
