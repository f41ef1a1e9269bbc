package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"lhg"
)

// verify-full: the paper's headline operation. Each op is one serial
// lhg.Verify of every property over a pool of seeded K-TREE and
// K-DIAMOND variants, all at one size, so flow and check probes do
// nearly all the work.
const (
	verifyN        = 1024
	verifyK        = 4
	verifyVariants = 4 // per constraint
)

type verifyInput struct {
	c    lhg.Constraint
	seed uint64
	g    *lhg.Graph
	ref  *lhg.Report // the set-up report every timed op must equal
}

type verifyBench struct {
	seed   uint64
	inputs []verifyInput
	order  []int
	builds []float64 // ms per lhg.Build in the last set-up
}

func newVerifyBench(seed uint64) bench { return &verifyBench{seed: seed} }

func (b *verifyBench) setup(ctx context.Context) error {
	for i, c := range []lhg.Constraint{lhg.KTree, lhg.KDiamond} {
		for v := 0; v < verifyVariants; v++ {
			s := splitmix(b.seed, uint64(i*verifyVariants+v))
			t0 := time.Now()
			g, err := lhg.Build(ctx, c, verifyN, verifyK, lhg.WithSeed(s))
			if err != nil {
				return fmt.Errorf("build %v seed %d: %w", c, s, err)
			}
			b.builds = append(b.builds, float64(time.Since(t0))/1e6)
			b.inputs = append(b.inputs, verifyInput{c: c, seed: s, g: g})
		}
	}
	for i := range b.inputs {
		in := &b.inputs[i]
		r, err := lhg.Verify(ctx, in.g, verifyK, lhg.WithWorkers(1))
		if err != nil {
			return fmt.Errorf("warm-up verify %v seed %d: %w", in.c, in.seed, err)
		}
		if r.NodeConnectivity != verifyK || r.EdgeConnectivity != verifyK || !r.IsLHG() {
			return fmt.Errorf("%v seed %d: κ=%d λ=%d LHG=%v, want κ=λ=%d and an LHG",
				in.c, in.seed, r.NodeConnectivity, r.EdgeConnectivity, r.IsLHG(), verifyK)
		}
		in.ref = r
	}
	b.order = permutation(b.seed, len(b.inputs))
	return nil
}

// verifyOp runs one timed Verify of input i and checks it against the
// reference report.
func (b *verifyBench) verifyOp(ctx context.Context, tr *tracer, op int64, i int) (*lhg.Report, bool, error) {
	in := &b.inputs[i]
	var r *lhg.Report
	err := tr.do("lhg.Verify", op, 0, func(int32) error {
		var err error
		r, err = lhg.Verify(ctx, in.g, verifyK, lhg.WithWorkers(1))
		return err
	})
	if err != nil {
		return nil, false, err
	}
	return r, sameReport(r, in.ref), nil
}

func (b *verifyBench) run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	return closedLoop(d, func(i int) (bool, error) {
		_, ok, err := b.verifyOp(ctx, tr, int64(i), b.order[i%len(b.order)])
		return ok, err
	}), nil
}

// verify has nothing left to cross-check: every op was compared with its
// reference inside the loop.
func (b *verifyBench) verify(context.Context) error { return nil }

func (b *verifyBench) close() {}

// sameReport compares two reports, ignoring the phase timings.
func sameReport(a, b *lhg.Report) bool {
	x, y := *a, *b
	x.Phases, y.Phases = nil, nil
	return reflect.DeepEqual(x, y)
}
