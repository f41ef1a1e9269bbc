package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"lhg"
	"lhg/internal/flow"
	"lhg/internal/serve"
	"lhg/internal/store"
)

// layerUnits names every per-layer metric the traced run prints, with its
// unit. BENCHMARK.json lists the same names.
var layerUnits = map[string]string{
	"check.kappa_ms":                "ms",
	"check.lambda_ms":               "ms",
	"check.prescreen_ms":            "ms",
	"check.minimality_ms":           "ms",
	"check.distances_ms":            "ms",
	"check.kappa_probes":            "count",
	"check.lambda_probes":           "count",
	"check.prescreen.critical_frac": "frac",
	"flow.probes_per_op":            "count",
	"flow.augpaths_per_probe":       "count",
	"flow.arena_rearm_frac":         "frac",
	"flow.vertex_cut_us":            "us",
	"flow.edge_cut_us":              "us",
	"graph.bfs_us":                  "us",
	"graph.distance_stats_ms":       "ms",
	"graph.apply_delta_us":          "us",
	"core.apply_us":                 "us",
	"check.delta.probes_ms":         "ms",
	"check.delta.distances_ms":      "ms",
	"check.delta.pair_probes":       "count",
	"check.delta.fastpath_frac":     "frac",
	"lhg.build_ms":                  "ms",
	"serve.hit_us":                  "us",
	"serve.batch_ms":                "ms",
	"lhgd.socket_us":                "us",
	"serve.hit_frac":                "frac",
	"serve.miss_ms":                 "ms",
	"serve.campaigns_per_miss":      "count",
	"store.put_us":                  "us",
	"store.get_us":                  "us",
	"store.lease_us":                "us",
	"netflood.start_ms":             "ms",
	"netflood.frames_per_op":        "count",
	"netflood.acks_per_op":          "count",
	"netflood.dup_frac":             "frac",
	"netflood.retransmits_per_op":   "count",
	"runtime.gc_per_op":             "count",
	"runtime.alloc_mb_per_op":       "MB",
	"obs.overhead_frac":             "frac",
}

// Call counts of the sweep. They are fixed, so the exact counts it
// reports repeat for a given seed.
const (
	sweepChurnOps  = 8
	sweepCuts      = 50
	sweepBFS       = 64
	sweepDistStats = 3
	sweepApplies   = 32
	sweepLhgd      = 2 * time.Second
	sweepServe     = 200
	sweepBatches   = 20
	sweepMisses    = 20
	sweepStoreOps  = 100
)

// sweep measures every layer once per traced run, whatever the workload,
// by timing calls into the program's public entry points. Metrics and
// tracing are on while it runs. Its fixtures are its own, freshly set up,
// so what it reports does not depend on the workload traced before it.
type sweep struct {
	seed uint64
	fx   map[string]bench
	tr   *tracer
	m    map[string]float64

	attempted, failed, wrong int
}

func (sw *sweep) fixture(ctx context.Context, name string) (bench, error) {
	b := workloads[name](sw.seed)
	sw.fx[name] = b
	if err := b.setup(ctx); err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	return b, nil
}

func (sw *sweep) run(ctx context.Context) error {
	for _, step := range []func(context.Context) error{sw.verifyLayers, sw.churnLayers, sw.serveLayers, sw.netLayers} {
		if err := step(ctx); err != nil {
			return err
		}
	}
	return nil
}

// timed calls fn n times inside spans named name and returns the median
// wall time in µs of the spans recorded by this call.
func (sw *sweep) timed(name string, n int, fn func(i int) error) (float64, error) {
	mark := sw.tr.mark()
	for i := 0; i < n; i++ {
		sw.attempted++
		if err := sw.tr.do(name, int64(i), 0, func(int32) error { return fn(i) }); err != nil {
			sw.failed++
			return 0, fmt.Errorf("%s call %d: %w", name, i, err)
		}
	}
	return median(sw.tr.durationsSince(mark, name)), nil
}

// check records an op whose output failed its correctness check.
func (sw *sweep) check(ok bool, what string) {
	if !ok {
		sw.wrong++
		sw.failed++
		fmt.Fprintf(os.Stderr, "lhbench: layer sweep: %s\n", what)
	}
}

func counterDelta(before, after map[string]int64, name string) float64 {
	return float64(after[name] - before[name])
}

// verifyLayers: one Verify of each verify-full input, read through its
// Report.Phases and the flow/check counters, plus single-pair cuts.
func (sw *sweep) verifyLayers(ctx context.Context) error {
	fb, err := sw.fixture(ctx, "verify-full")
	if err != nil {
		return err
	}
	vb := fb.(*verifyBench)
	phases := map[string][]float64{}
	var kappaProbes, lambdaProbes, probes, aug, builds, rearms float64
	var critical []float64
	for i := range vb.inputs {
		c0 := lhg.MetricsCounters()
		r, ok, err := vb.verifyOp(ctx, sw.tr, int64(i), i)
		c1 := lhg.MetricsCounters()
		sw.attempted++
		if err != nil {
			sw.failed++
			return err
		}
		sw.check(ok, fmt.Sprintf("verify-full input %d differs from its reference", i))
		for _, p := range r.Phases {
			phases[p.Phase] = append(phases[p.Phase], p.Ms)
			switch p.Phase {
			case "kappa":
				kappaProbes += float64(p.Probes)
			case "lambda":
				lambdaProbes += float64(p.Probes)
			}
		}
		probes += counterDelta(c0, c1, "flow.maxflow.probes")
		aug += counterDelta(c0, c1, "flow.maxflow.augmenting_paths")
		builds += counterDelta(c0, c1, "flow.arena.builds")
		rearms += counterDelta(c0, c1, "flow.arena.rearms")
		critical = append(critical, counterDelta(c0, c1, "check.prescreen.critical_nodes")/float64(r.N))
	}
	ops := float64(len(vb.inputs))
	for _, p := range []string{"kappa", "lambda", "prescreen", "minimality", "distances"} {
		if len(phases[p]) == 0 {
			return fmt.Errorf("verify-full reports carry no %s phase", p)
		}
		sw.m["check."+p+"_ms"] = median(phases[p])
	}
	sw.m["check.kappa_probes"] = kappaProbes / ops
	sw.m["check.lambda_probes"] = lambdaProbes / ops
	sw.m["check.prescreen.critical_frac"] = median(critical)
	sw.m["flow.probes_per_op"] = probes / ops
	sw.m["flow.augpaths_per_probe"] = aug / probes
	sw.m["flow.arena_rearm_frac"] = rearms / (builds + rearms)
	sw.m["lhg.build_ms"] = median(vb.builds)

	// A fixed non-adjacent pair: node 0 and the first node farthest from it.
	g := vb.inputs[0].g
	s, t := 0, 0
	dist := g.BFSFrom(s)
	for v, dv := range dist {
		if dv > dist[t] {
			t = v
		}
	}
	cut := func(f func(*lhg.Graph, int, int) (int, error)) func(int) error {
		return func(int) error {
			c, err := f(g, s, t)
			if err == nil && c < verifyK {
				err = fmt.Errorf("cut %d-%d is %d, below k=%d", s, t, c, verifyK)
			}
			return err
		}
	}
	if sw.m["flow.vertex_cut_us"], err = sw.timed("flow.VertexCut", sweepCuts, cut(flow.VertexCut)); err != nil {
		return err
	}
	sw.m["flow.edge_cut_us"], err = sw.timed("flow.EdgeCut", sweepCuts, cut(flow.EdgeCut))
	return err
}

// churnLayers: churn-delta ops read through the delta counters and
// phases, plus the graph calls the op is made of.
func (sw *sweep) churnLayers(ctx context.Context) error {
	fb, err := sw.fixture(ctx, "churn-delta")
	if err != nil {
		return err
	}
	cb := fb.(*churnBench)
	var probesMs, distMs []float64
	var pairs, fast, runs float64
	mark := sw.tr.mark()
	for i := 0; i < sweepChurnOps; i++ {
		c0 := lhg.MetricsCounters()
		ok, err := cb.churnOp(ctx, sw.tr, int64(i))
		c1 := lhg.MetricsCounters()
		sw.attempted++
		if err != nil {
			sw.failed++
			return err
		}
		sw.check(ok, fmt.Sprintf("churn batch %d: report is not an LHG with κ=λ=%d", i, churnK))
		for _, p := range cb.dv.Report().Phases {
			switch p.Phase {
			case "delta-probes":
				probesMs = append(probesMs, p.Ms)
			case "distances":
				distMs = append(distMs, p.Ms)
			}
		}
		pairs += counterDelta(c0, c1, "check.delta.pair_probes")
		fast += counterDelta(c0, c1, "check.delta.fastpath")
		runs += counterDelta(c0, c1, "check.delta.runs")
	}
	if len(distMs) == 0 || runs == 0 {
		return fmt.Errorf("churn ops recorded no delta runs")
	}
	if len(probesMs) == 0 {
		probesMs = []float64{0} // every batch fell back to the full campaign
	}
	sw.m["core.apply_us"] = median(sw.tr.durationsSince(mark, "core.Apply"))
	sw.m["check.delta.probes_ms"] = median(probesMs)
	sw.m["check.delta.distances_ms"] = median(distMs)
	sw.m["check.delta.pair_probes"] = pairs / sweepChurnOps
	sw.m["check.delta.fastpath_frac"] = fast / runs

	g := cb.dv.Graph()
	n := g.Order()
	if sw.m["graph.bfs_us"], err = sw.timed("graph.BFSFrom", sweepBFS, func(i int) error {
		if g.BFSFrom(i * n / sweepBFS)[0] < 0 {
			return fmt.Errorf("node 0 unreachable")
		}
		return nil
	}); err != nil {
		return err
	}
	us, err := sw.timed("graph.DistanceStats", sweepDistStats, func(int) error {
		if diam, _ := g.DistanceStats(1); diam != cb.dv.Report().Diameter {
			return fmt.Errorf("diameter %d, report says %d", diam, cb.dv.Report().Diameter)
		}
		return nil
	})
	if err != nil {
		return err
	}
	sw.m["graph.distance_stats_ms"] = us / 1e3
	sw.m["graph.apply_delta_us"], err = sw.timed("graph.ApplyDelta", sweepApplies, func(int) error {
		_, err := cb.preLeave.ApplyDelta(cb.leave, cb.leaveN)
		return err
	})
	return err
}

// serveLayers: a short lhgd-mixed run over loopback, the same handler
// called in-process with no socket, and direct store calls.
func (sw *sweep) serveLayers(ctx context.Context) error {
	fb, err := sw.fixture(ctx, "lhgd-mixed")
	if err != nil {
		return err
	}
	lb := fb.(*lhgdBench)
	mark := sw.tr.mark()
	c0 := lhg.MetricsCounters()
	ph, err := lb.run(ctx, sweepLhgd, sw.tr)
	if err != nil {
		return err
	}
	c1 := lhg.MetricsCounters()
	sw.attempted += ph.attempted
	sw.failed += ph.failed
	sw.wrong += ph.wrong
	loopHit := sw.tr.durationsSince(mark, "lhgd.hit")
	sw.m["serve.hit_frac"] = counterDelta(c0, c1, "serve.verify.cache.hits") / counterDelta(c0, c1, "serve.verify.requests")
	sw.m["serve.campaigns_per_miss"] = counterDelta(c0, c1, "check.verify.runs") / float64(len(ph.miss))

	// Each span covers the handler call alone; responses are checked after.
	var recs []*httptest.ResponseRecorder
	handle := func(path string, body func(i int) []byte) func(int) error {
		recs = recs[:0]
		return func(i int) error {
			rec := httptest.NewRecorder()
			lb.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body(i))))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("%s: status %d", path, rec.Code)
			}
			recs = append(recs, rec)
			return nil
		}
	}
	hot := func(i int) []byte { return lb.keys[i%lhgdHot].body }
	if sw.m["serve.hit_us"], err = sw.timed("serve.ServeHTTP.hit", sweepServe, handle("/v1/verify", hot)); err != nil {
		return err
	}
	for i, rec := range recs {
		var r verifyResponse
		sw.check(json.Unmarshal(rec.Body.Bytes(), &r) == nil && lb.hitOK(i%lhgdHot, &r),
			"in-process hit is not the cached prefill report")
	}
	sw.m["lhgd.socket_us"] = median(loopHit) - sw.m["serve.hit_us"]

	var items []serve.VerifyRequest
	for k := 0; k < lhgdHot; k++ {
		var req serve.VerifyRequest
		if err := json.Unmarshal(lb.keys[k].body, &req); err != nil {
			return err
		}
		items = append(items, req)
	}
	batch, err := json.Marshal(items)
	if err != nil {
		return err
	}
	us, err := sw.timed("serve.ServeHTTP.batch", sweepBatches, handle("/v1/verify?batch", func(int) []byte { return batch }))
	if err != nil {
		return err
	}
	sw.m["serve.batch_ms"] = us / 1e3
	for _, rec := range recs {
		var r serve.BatchResponse
		sw.check(json.Unmarshal(rec.Body.Bytes(), &r) == nil && r.Total == lhgdHot && r.Failed == 0 && r.Cached == lhgdHot,
			"batch of hot keys was not served whole from cache")
	}

	var fresh []int
	for i := 0; i < sweepMisses; i++ {
		k, err := lb.newKey(splitmix(sw.seed^0x1a7e, uint64(i)))
		if err != nil {
			return err
		}
		fresh = append(fresh, k)
	}
	us, err = sw.timed("serve.ServeHTTP.miss", sweepMisses, handle("/v1/verify", func(i int) []byte { return lb.keys[fresh[i]].body }))
	if err != nil {
		return err
	}
	for _, rec := range recs {
		var r verifyResponse
		sw.check(json.Unmarshal(rec.Body.Bytes(), &r) == nil && !r.Cached && missOK(&r),
			"in-process miss did not compute an LHG report")
	}
	sw.m["serve.miss_ms"] = us / 1e3
	return sw.storeLayers(lb.keys[0].report)
}

// storeLayers times direct store calls on a real n=128 report envelope.
func (sw *sweep) storeLayers(value json.RawMessage) error {
	dir, err := storeDir("store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	key := func(i int) string { return fmt.Sprintf("verify|probe|%d", i) }
	if sw.m["store.put_us"], err = sw.timed("store.Put", sweepStoreOps, func(i int) error {
		return st.Put(key(i), "verify", value)
	}); err != nil {
		return err
	}
	if sw.m["store.get_us"], err = sw.timed("store.Get", sweepStoreOps, func(i int) error {
		v, ok, err := st.Get(key(i))
		if err == nil {
			sw.check(ok && bytes.Equal(v, value), "store returned another value than it was given")
		}
		return err
	}); err != nil {
		return err
	}
	sw.m["store.lease_us"], err = sw.timed("store.Lease", sweepStoreOps, func(i int) error {
		l, won, err := st.Acquire(key(i), time.Minute)
		if err != nil {
			return err
		}
		if !won {
			return fmt.Errorf("uncontended lease on %s was refused", key(i))
		}
		l.Release()
		return nil
	})
	return err
}

// netLayers: one broadcast from every node, read through the netflood
// counters.
func (sw *sweep) netLayers(ctx context.Context) error {
	fb, err := sw.fixture(ctx, "net-broadcast")
	if err != nil {
		return err
	}
	nb := fb.(*netBench)
	sw.m["netflood.start_ms"] = float64(nb.start) / 1e6
	c0 := lhg.MetricsCounters()
	for i, src := range nb.srcs {
		sw.attempted++
		if err := nb.broadcast(sw.tr, int64(i), src); err != nil {
			sw.failed++
			return err
		}
	}
	c1 := lhg.MetricsCounters()
	ops := float64(len(nb.srcs))
	delivered := counterDelta(c0, c1, "netflood.msgs.delivered")
	dups := counterDelta(c0, c1, "netflood.msgs.duplicate")
	sw.m["netflood.frames_per_op"] = counterDelta(c0, c1, "netflood.frames.sent") / ops
	sw.m["netflood.acks_per_op"] = counterDelta(c0, c1, "netflood.acks.sent") / ops
	sw.m["netflood.dup_frac"] = dups / (delivered + dups)
	sw.m["netflood.retransmits_per_op"] = counterDelta(c0, c1, "netflood.frames.retransmitted") / ops
	return nil
}
