package main

import (
	"context"
	"fmt"
	"time"

	"lhg"
)

// churn-delta: overlay churn on a K-TREE of about 4098 nodes. Batches
// alternate between pure leaves and pure joins of about 1 % of the nodes;
// each op applies one batch to the grower and re-verifies the rewritten
// graph with a serial DeltaVerifier.Advance. Graph-wide distances dominate
// the op, the mirror image of verify-full.
const (
	churnN = 4098
	churnK = 3
	// Batch sizes are drawn from [churnMinBatch, churnMaxBatch], about
	// 0.8 % to 1.2 % of churnN. A join batch re-admits as many nodes as the
	// leave batch before it retired, so n stays near churnN.
	churnMinBatch = 33
	churnMaxBatch = 49
	churnSizes    = 64 // the schedule repeats after this many batch pairs
)

type churnBench struct {
	seed  uint64
	sizes []int
	gr    *lhg.KTreeGrower
	dv    *lhg.DeltaVerifier
	ops   int // batches applied so far, warm-up included

	// The last leave batch and the graph it applied to, for the
	// graph.apply_delta layer probe.
	leave    lhg.EdgeDelta
	leaveN   int
	preLeave *lhg.Graph
}

func newChurnBench(seed uint64) bench { return &churnBench{seed: seed} }

func (b *churnBench) setup(ctx context.Context) error {
	b.sizes = make([]int, churnSizes)
	for i := range b.sizes {
		b.sizes[i] = churnMinBatch + int(splitmix(b.seed, uint64(i))%(churnMaxBatch-churnMinBatch+1))
	}
	gr, err := lhg.NewKTreeGrowerAt(churnK, churnN)
	if err != nil {
		return err
	}
	dv, err := lhg.NewDeltaVerifier(ctx, gr.Graph(), churnK, lhg.WithWorkers(1))
	if err != nil {
		return err
	}
	if r := dv.Report(); !churnReportOK(r) {
		return fmt.Errorf("initial report: κ=%d λ=%d LHG=%v", r.NodeConnectivity, r.EdgeConnectivity, r.IsLHG())
	}
	b.gr, b.dv, b.ops = gr, dv, 0
	for i := 0; i < 2; i++ { // warm-up: one leave and one join batch
		if ok, err := b.churnOp(ctx, nil, -1); err != nil || !ok {
			return fmt.Errorf("warm-up batch %d: ok=%v err=%v", i, ok, err)
		}
	}
	return nil
}

func churnReportOK(r *lhg.Report) bool {
	return r.IsLHG() && r.NodeConnectivity == churnK && r.EdgeConnectivity == churnK
}

// batch returns the next batch of the seeded schedule.
func (b *churnBench) batch() []lhg.Change {
	kind := lhg.ChangeLeave
	if b.ops%2 == 1 {
		kind = lhg.ChangeJoin
	}
	ch := make([]lhg.Change, b.sizes[(b.ops/2)%len(b.sizes)])
	for i := range ch {
		ch[i] = kind
	}
	return ch
}

// churnOp applies the next batch and re-verifies; ok reports whether the
// new report proves an LHG with κ = λ = k.
func (b *churnBench) churnOp(ctx context.Context, tr *tracer, op int64) (bool, error) {
	ch := b.batch()
	leave := ch[0] == lhg.ChangeLeave
	pre := b.dv.Graph()
	var r *lhg.Report
	err := tr.do("churn.op", op, 0, func(id int32) error {
		var d lhg.EdgeDelta
		if err := tr.do("core.Apply", op, id, func(int32) error {
			var err error
			d, err = b.gr.Apply(ch)
			return err
		}); err != nil {
			return err
		}
		if leave {
			b.leave, b.leaveN, b.preLeave = d, b.gr.N(), pre
		}
		return tr.do("check.Advance", op, id, func(int32) error {
			var err error
			r, err = b.dv.Advance(ctx, d, b.gr.N())
			return err
		})
	})
	b.ops++
	if err != nil {
		return false, err
	}
	return churnReportOK(r), nil
}

func (b *churnBench) run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	return closedLoop(d, func(i int) (bool, error) {
		return b.churnOp(ctx, tr, int64(i))
	}), nil
}

// verify checks that the report the delta path maintained equals a fresh
// full verification of the final graph.
func (b *churnBench) verify(ctx context.Context) error {
	full, err := lhg.Verify(ctx, b.dv.Graph(), churnK, lhg.WithWorkers(1))
	if err != nil {
		return err
	}
	if !sameReport(full, b.dv.Report()) {
		return fmt.Errorf("delta report differs from a full verify of the final graph (n=%d)", b.gr.N())
	}
	return nil
}

func (b *churnBench) close() {}
