package flow

import (
	"context"
	"sync/atomic"

	"lhg/internal/graph"
	"lhg/internal/obs"
	"lhg/internal/obs/trace"
)

// Worker-pool telemetry: spawned counts pool members across all fan-out
// drivers; busy accumulates each worker's wall time inside its probe loop.
// Utilization over a phase is busy / (workers × phase wall time).
var (
	mWorkersSpawned = obs.NewCounter("flow.workers.spawned")
	tWorkerBusy     = obs.NewTimer("flow.workers.busy")
)

// probeProgressEvery is the probe-batch granularity of the per-worker
// "probe-progress" trace events: one point event per this many completed
// probes keeps the flight recorder (and any live SSE watcher) informed
// without per-probe noise.
const probeProgressEvery = 32

// workerSpan opens the per-worker child span of a fan-out phase,
// attributing the worker id so the Chrome export renders each worker in
// its own lane. Inert (and allocation-free) when tracing is disabled.
func workerSpan(ctx context.Context, name string, w int) trace.Span {
	_, sp := trace.StartSpan(ctx, name)
	if sp.Live() {
		sp.SetAttr(trace.Int("worker", int64(w)))
	}
	return sp
}

// probeProgress emits the batched progress point for a worker that has
// finished its i-th probe (0-based) of total. Callers pass the phase's
// span; the guard keeps the disabled path free of attr allocation.
func probeProgress(sp trace.Span, i, total int) {
	if !sp.Live() || (i+1)%probeProgressEvery != 0 {
		return
	}
	sp.Event("probe-progress", trace.Int("done", int64(i+1)), trace.Int("total", int64(total)))
}

// Global-connectivity sweeps. The frozen CSR graph is shared read-only by
// every worker; each worker owns a pooled network whose topology it builds
// once and re-arms per probe (one capacity copy instead of a rebuild). The
// running minimum is kept in an atomic and doubles as the early-exit limit
// for every in-flight max flow: a stale (too high) limit only costs extra
// augmentation, never correctness, because any flow value below the limit
// is exact. Probes are scheduled by the work stealer (steal.go), so one
// near-critical pair cannot strand the rest of a worker's static share;
// with one worker the stealer runs the same body inline, so each sweep is
// written once for the serial and the parallel case.
//
// Cancellation: every worker polls ctx between probes and arms its pooled
// network so in-flight probes stop between augmenting-path iterations. The
// drivers join all workers before returning — cancellation never leaks a
// goroutine — and report ctx.Err() once the pool has drained.

// SweepHints carries prescreen guidance into a connectivity sweep. Hints
// change probe order and early-exit limits only — never the result: Upper
// must be the value of an actual edge cut of the graph (λ ≤ Upper by
// definition, so folding it into the λ running minimum is exact), and
// Critical merely schedules probes touching those nodes first so the
// shared minimum drops as early as possible.
type SweepHints struct {
	// Upper is a certified cut value (< 0 when absent). Only the λ sweep
	// folds it in; a vertex sweep uses it for nothing — an edge cut value
	// bounds κ too, but κ's sweep minimum must stay over attainable vertex
	// cuts, so it is scheduling-only there.
	Upper int
	// Critical lists node ids suspected to sit on the small side of a
	// near-minimum cut; probes involving them run first.
	Critical []int
}

// NoHints is the hint-free sweep configuration.
var NoHints = SweepHints{Upper: -1}

// atomicMin lowers a to v if v is smaller, returning the post-update value.
func atomicMin(a *atomic.Int64, v int) int {
	for {
		cur := a.Load()
		if int64(v) >= cur {
			return int(cur)
		}
		if a.CompareAndSwap(cur, int64(v)) {
			return v
		}
	}
}

// lambdaProbePlan fixes the shared-λ probe set: a deterministic greedy
// dominating set D with pivot d0 = D[0]. By Matula's observation, if
// λ(G) < δ(G) then each side of a minimum edge cut contains a node all of
// whose neighbors lie on that side (the side has ≤ λ < δ outgoing edges,
// too few for every member to reach across), so every dominating set
// intersects both sides and λ(G) = min(δ, min over d ∈ D∖{d0} of the
// d0-d min cut). That replaces the classic n−1 per-target λ probes with
// |D|−1 ≈ n/(δ+1) probes sharing one pivot.
func lambdaProbePlan(g *graph.Graph, hints SweepHints) (d0 int, targets []int) {
	dom := g.DominatingSet()
	d0, targets = dom[0], dom[1:]
	if len(hints.Critical) > 0 {
		targets = frontLoadCritical(targets, hints.Critical, g.Order())
	}
	return d0, targets
}

// frontLoadCritical stably reorders targets so members of critical come
// first. The relative order inside each class is preserved, keeping the
// sweep deterministic for a fixed hint set.
func frontLoadCritical(targets, critical []int, n int) []int {
	mark := make([]bool, n)
	for _, v := range critical {
		if v >= 0 && v < n {
			mark[v] = true
		}
	}
	out := make([]int, 0, len(targets))
	for _, t := range targets {
		if mark[t] {
			out = append(out, t)
		}
	}
	if len(out) == 0 || len(out) == len(targets) {
		return targets
	}
	for _, t := range targets {
		if !mark[t] {
			out = append(out, t)
		}
	}
	return out
}

// edgeSweep runs the λ sweep over the dominating-set probe plan. The
// running minimum starts at min(δ, hints.Upper, upTo) and every probe
// early-exits at it; the sweep stops once the minimum drops below k. The
// result is therefore min(λ, upTo) whenever it is >= k, and some cut value
// below k otherwise: the exact sweep passes (inf, 1), whose only early
// stop is a zero cut, and the threshold check passes (k, k).
func edgeSweep(ctx context.Context, g *graph.Graph, workers int, hints SweepHints, upTo, k int) (int, error) {
	n := g.Order()
	if n < 2 {
		return 0, ctx.Err()
	}
	best, _ := g.MinDegree()
	best = min(best, upTo)
	if hints.Upper >= 0 && hints.Upper < best {
		best = hints.Upper
	}
	if best < k {
		return best, ctx.Err()
	}
	d0, targets := lambdaProbePlan(g, hints)
	var shared atomic.Int64
	shared.Store(int64(best))
	runStealing(ctx, "flow.lambda.worker", len(targets), workers, func(w int, next func() (int, bool)) {
		nw := getNetwork(n)
		defer putNetwork(nw)
		nw.watch(ctx)
		built := false
		for {
			i, ok := next()
			if !ok {
				return
			}
			limit := int(shared.Load())
			if limit < k {
				return
			}
			if !built {
				nw.buildEdge(g, noEdge) // one topology per worker; rearm per probe
				built = true
			}
			nw.rearm()
			if f := nw.maxflow(d0, targets[i], limit); f < limit && ctx.Err() == nil {
				atomicMin(&shared, f)
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return int(shared.Load()), nil
}

// vertexSweep runs the κ sweep over the Esfahanian–Hakimi probe pairs
// after dispatching the trivial cases (n < 2, disconnected, complete). Its
// running minimum starts at min(δ, upTo) and it stops once the minimum
// drops below k, exactly like edgeSweep; hints only reorder the pairs.
func vertexSweep(ctx context.Context, g *graph.Graph, workers int, hints SweepHints, upTo, k int) (int, error) {
	n := g.Order()
	if n < 2 || !g.Connected() {
		return 0, ctx.Err()
	}
	minDeg, v := g.MinDegree()
	if minDeg == n-1 { // complete graph
		return n - 1, ctx.Err()
	}
	best := min(minDeg, upTo) // κ(G) <= δ(G)
	if best < k {
		return best, ctx.Err()
	}
	pairs := vertexProbePairs(g, v)
	if len(hints.Critical) > 0 {
		pairs = frontLoadCriticalPairs(pairs, hints.Critical, n)
	}
	var shared atomic.Int64
	shared.Store(int64(best))
	runStealing(ctx, "flow.kappa.worker", len(pairs), workers, func(w int, next func() (int, bool)) {
		nw := getNetwork(2 * n)
		defer putNetwork(nw)
		nw.watch(ctx)
		built := false
		for {
			i, ok := next()
			if !ok {
				return
			}
			limit := int(shared.Load())
			if limit < k {
				return
			}
			if !built {
				nw.buildVertexBase(g, n+1, noEdge) // one topology; re-arm the terminal pair per probe
				built = true
			}
			p := pairs[i]
			nw.armVertexPair(p.s, p.t)
			if f := nw.maxflow(2*p.s+1, 2*p.t, limit); f < limit && ctx.Err() == nil {
				atomicMin(&shared, f)
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return int(shared.Load()), nil
}

// frontLoadCriticalPairs stably reorders probe pairs so pairs touching a
// critical node come first; see frontLoadCritical.
func frontLoadCriticalPairs(pairs []probePair, critical []int, n int) []probePair {
	mark := make([]bool, n)
	for _, v := range critical {
		if v >= 0 && v < n {
			mark[v] = true
		}
	}
	out := make([]probePair, 0, len(pairs))
	for _, p := range pairs {
		if mark[p.s] || mark[p.t] {
			out = append(out, p)
		}
	}
	if len(out) == 0 || len(out) == len(pairs) {
		return pairs
	}
	for _, p := range pairs {
		if !mark[p.s] && !mark[p.t] {
			out = append(out, p)
		}
	}
	return out
}

// canonicalIndices maps each edge to its index in the canonical g.Edges()
// enumeration (-1 when the edge is not in g), the key the masked-arena P3
// probes use to zero an edge's arc window without rebuilding.
func canonicalIndices(g *graph.Graph, edges []graph.Edge) []int32 {
	pos := make(map[graph.Edge]int32, g.Size())
	next := int32(0)
	g.EachEdge(func(u, v int) {
		pos[graph.Edge{U: u, V: v}] = next
		next++
	})
	idx := make([]int32, len(edges))
	for j, e := range edges {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		if p, ok := pos[e]; ok {
			idx[j] = p
		} else {
			idx[j] = -1
		}
	}
	return idx
}

// EdgesRemovable runs the EdgeIsRemovable predicate over a batch of
// edges across `workers` goroutines under ctx and returns a parallel bool
// slice: out[i] reports whether edges[i] can be removed without lowering κ
// below kappa or λ below lambda. It is the fan-out primitive of the P3
// link-minimality sweep in internal/check.
//
// Each worker builds the unmasked edge and split-node arenas once and runs
// every probe as rearm + canonical-index mask + early-exit max flow — two
// capacity copies per edge instead of two topology rebuilds, which is where
// the P3 sweep spends its time on large instances. A canceled sweep drains
// its workers, then returns ctx.Err() and no slice.
func EdgesRemovable(ctx context.Context, g *graph.Graph, edges []graph.Edge, kappa, lambda, workers int) ([]bool, error) {
	out := make([]bool, len(edges))
	if len(edges) == 0 {
		return out, ctx.Err()
	}
	idx := canonicalIndices(g, edges)
	n := g.Order()
	runStealing(ctx, "flow.minimality.worker", len(edges), workers, func(w int, next func() (int, bool)) {
		var eNet, vNet *network // built lazily: a starved worker never builds
		defer func() {
			if eNet != nil {
				putNetwork(eNet)
			}
			if vNet != nil {
				putNetwork(vNet)
			}
		}()
		for {
			i, ok := next()
			if !ok {
				return
			}
			e := edges[i]
			if e.U > e.V {
				e.U, e.V = e.V, e.U
			}
			if d := min(g.Degree(e.U), g.Degree(e.V)); d <= lambda || d <= kappa {
				// Degree shortcut (see EdgeIsRemovable): an endpoint of
				// degree <= max(kappa, lambda) caps the corresponding probe
				// below its bar in G−e, so the verdict is false without a
				// flow. On near-regular instances with λ = δ this skips
				// almost every edge — the P3 sweep becomes a degree scan.
				continue
			}
			if idx[i] < 0 {
				// Not an edge of g: fall back to the per-probe masked build.
				if rem, err := EdgeIsRemovable(ctx, g, e, kappa, lambda); err == nil {
					out[i] = rem
				}
				continue
			}
			ci := int(idx[i])
			if eNet == nil {
				eNet = getNetwork(n)
				eNet.watch(ctx)
				eNet.buildEdge(g, noEdge)
			}
			eNet.rearm()
			eNet.maskEdgeInEdgeNet(ci)
			if eNet.maxflow(e.U, e.V, lambda) < lambda {
				continue // λ(G−e) < λ: not removable; out[i] stays false
			}
			if vNet == nil {
				vNet = getNetwork(2 * n)
				vNet.watch(ctx)
				vNet.buildVertexBase(g, n+1, noEdge)
			}
			vNet.armVertexPair(e.U, e.V)
			vNet.maskEdgeInVertexNet(ci)
			out[i] = vNet.maxflow(2*e.U+1, 2*e.V, kappa) >= kappa
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
