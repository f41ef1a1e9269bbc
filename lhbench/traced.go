package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lhg"
)

// runTraced is the per-layer run. It sets the workload up once, runs its
// op loop for half the window untraced and half with the program's
// metrics and tracing on (obs.overhead_frac is the ratio of the two
// medians), then sweeps every layer with fixed, seeded call counts and
// the benchmark's own spans around each call.
func runTraced(ctx context.Context, name string, seed uint64, d time.Duration, meta map[string]any) (*result, error) {
	b := workloads[name](seed)
	defer b.close()
	sw := &sweep{seed: seed, fx: map[string]bench{}, tr: newTracer(), m: map[string]float64{}}
	defer func() {
		for _, fb := range sw.fx {
			fb.close()
		}
	}()
	if err := b.setup(ctx); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	runtime.GC()
	gc0, alloc0 := runtimeCounters()
	plain, err := b.run(ctx, d/2, nil)
	if err != nil {
		return nil, err
	}
	gc1, alloc1 := runtimeCounters()

	lhg.EnableMetrics()
	lhg.EnableTracing()
	defer lhg.DisableMetrics()
	defer lhg.DisableTracing()
	tr := sw.tr
	runtime.GC()
	traced, err := b.run(ctx, d/2, tr)
	if err != nil {
		return nil, err
	}
	if len(plain.op) == 0 || len(traced.op) == 0 {
		return nil, fmt.Errorf("%s: no op completed in half the window", name)
	}
	if err := sw.run(ctx); err != nil {
		return nil, err
	}
	ops := float64(plain.attempted)
	sw.m["obs.overhead_frac"] = median(traced.op)/median(plain.op) - 1
	sw.m["runtime.gc_per_op"] = float64(gc1-gc0) / ops
	sw.m["runtime.alloc_mb_per_op"] = float64(alloc1-alloc0) / (1 << 20) / ops

	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, ph := range []*phase{plain, traced} {
		sw.attempted += ph.attempted
		sw.failed += ph.failed
		sw.wrong += ph.wrong
	}
	res.Attempted, res.Failed, res.Correct = sw.attempted, sw.failed, sw.wrong == 0
	if err := b.verify(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "lhbench: %s cross-check: %v\n", name, err)
		res.Correct = false
	}
	for fname, fb := range sw.fx {
		if err := fb.verify(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "lhbench: layer sweep %s cross-check: %v\n", fname, err)
			res.Correct = false
		}
	}
	for mname, unit := range layerUnits {
		v, ok := sw.m[mname]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", mname)
		}
		res.Metrics[mname] = metric{v, unit}
	}
	spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	meta["spans_file"] = spans
	meta["self_ms"] = tr.selfTimes()
	meta["overhead_p50_ms"] = map[string]float64{"untraced": median(plain.op), "traced": median(traced.op)}
	return res, nil
}
