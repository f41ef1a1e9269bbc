package flow

import (
	"testing"

	"lhg/internal/graph"
)

func TestParallelConnectivityMatchesSerial(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g := randomGraph(14, seed)
		wantK := kappaOf(g, 1)
		wantL := lambdaOf(g, 1)
		for _, workers := range []int{2, 8} {
			if got := kappaOf(g, workers); got != wantK {
				t.Fatalf("seed %d workers %d: parallel κ=%d, serial κ=%d", seed, workers, got, wantK)
			}
			if got := lambdaOf(g, workers); got != wantL {
				t.Fatalf("seed %d workers %d: parallel λ=%d, serial λ=%d", seed, workers, got, wantL)
			}
		}
	}
}

func TestParallelConnectivityDegenerate(t *testing.T) {
	if got := kappaOf(graph.New(1), 4); got != 0 {
		t.Fatalf("singleton κ = %d, want 0", got)
	}
	if got := lambdaOf(graph.New(4), 4); got != 0 {
		t.Fatalf("disconnected λ = %d, want 0", got)
	}
	if got := kappaOf(complete(5), 4); got != 4 {
		t.Fatalf("K5 κ = %d, want 4", got)
	}
}

// bruteEdgeIsRemovable recomputes both connectivities on the materialized
// smaller graph — the oracle for the localized two-flow probe.
func bruteEdgeIsRemovable(g *graph.Graph, e graph.Edge, kappa, lambda int) bool {
	h := g.WithoutEdge(e.U, e.V)
	return kappaOf(h, 1) >= kappa && lambdaOf(h, 1) >= lambda
}

func TestEdgeIsRemovableMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		g := randomGraph(9, seed)
		kappa := kappaOf(g, 1)
		lambda := lambdaOf(g, 1)
		if kappa == 0 || lambda == 0 {
			continue
		}
		for _, e := range g.Edges() {
			want := bruteEdgeIsRemovable(g, e, kappa, lambda)
			if got := removable(g, e, kappa, lambda); got != want {
				t.Fatalf("seed %d edge %v: EdgeIsRemovable=%t, brute force=%t (κ=%d λ=%d)",
					seed, e, got, want, kappa, lambda)
			}
			// The probe must accept either endpoint order.
			flipped := graph.Edge{U: e.V, V: e.U}
			if got := removable(g, flipped, kappa, lambda); got != want {
				t.Fatalf("seed %d edge %v flipped: EdgeIsRemovable=%t, want %t", seed, e, got, want)
			}
		}
	}
}

func TestEdgesRemovableMatchesSingleProbes(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		g := randomGraph(12, seed)
		kappa := kappaOf(g, 1)
		lambda := lambdaOf(g, 1)
		if kappa == 0 || lambda == 0 {
			continue
		}
		edges := g.Edges()
		want := make([]bool, len(edges))
		for i, e := range edges {
			want[i] = removable(g, e, kappa, lambda)
		}
		for _, workers := range []int{1, 8} {
			got := removableAll(g, edges, kappa, lambda, workers)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d workers %d edge %v: batch=%t, single=%t",
						seed, workers, edges[i], got[i], want[i])
				}
			}
		}
	}
}
