package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so summarize must sort
	}
	return xs
}

func TestSummarizeTailHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 40, 100, 2*windowMin - 1} {
		s, err := summarize(seq(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		beyond := 0
		for _, x := range seq(n) {
			if x > s.Tail {
				beyond++
			}
		}
		if beyond != tailBeyond || s.Beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail %v (reported %d), want %d", n, beyond, s.Tail, s.Beyond, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); s.TailPct != want || s.N != n {
			t.Errorf("n=%d: tail percentile %v over %d samples, want %v over %d", n, s.TailPct, s.N, want, n)
		}
	}
	s, _ := summarize(seq(100))
	if s.P50 != 50.5 || s.Tail != 90 || s.TailPct != 90 {
		t.Errorf("1..100: p50 %v tail %v at p%v, want 50.5, 90 at p90", s.P50, s.Tail, s.TailPct)
	}
}

func TestSummarizeRefusesStreamWithoutTail(t *testing.T) {
	for _, n := range []int{0, 1, tailBeyond} {
		if _, err := summarize(seq(n)); err == nil {
			t.Errorf("n=%d: no error for a stream with no sample that has %d beyond it", n, tailBeyond)
		}
	}
}

func TestFailuresLandInTheTail(t *testing.T) {
	xs := seq(100)
	for i := 0; i < tailBeyond+1; i++ {
		xs[i] = failedMs
	}
	s, _ := summarize(xs)
	if s.Tail != failedMs {
		t.Errorf("tail %v with %d failed ops, want the failure latency %v", s.Tail, tailBeyond+1, failedMs)
	}
	xs[0] = 1 // one fewer failure than the tail reaches
	if s, _ := summarize(xs); s.Tail == failedMs {
		t.Errorf("tail is the failure latency with only %d failed ops", tailBeyond)
	}
}

// quantile must match Python's statistics.quantiles(method="inclusive"),
// the definition the benchmark's spread check uses.
func TestQuantileInclusive(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestCoveredUnionsChildIntervals(t *testing.T) {
	if got := covered([][2]int64{{20, 30}, {0, 10}, {5, 15}, {12, 14}}); got != 25 {
		t.Errorf("covered = %d, want 25", got)
	}
	if got := covered(nil); got != 0 {
		t.Errorf("covered(nil) = %d, want 0", got)
	}
	tr := &tracer{spans: []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
	}}
	st := tr.selfTimes()
	if st["op"].SelfMs != 50e-6 || st["a"].SelfMs != 30e-6 || st["op"].TotalMs != 100e-6 {
		t.Errorf("self times %+v, want op self 50ns of 100ns and a self 30ns", st)
	}
}

// A long stream's median and tail are the medians of its windows', so a
// burst confined to one window moves neither.
func TestWindowedStreamIgnoresOneNoisyWindow(t *testing.T) {
	xs := make([]float64, streamWindows*windowMin)
	for i := range xs {
		xs[i] = float64(i % windowMin) // every window holds 0..windowMin-1
	}
	for i := windowMin; i < windowMin*3/2+tailBeyond; i++ {
		xs[i] = 1e6 // a burst over half the second window
	}
	s, err := summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(windowMin - 1 - tailBeyond)
	if s.Windows != streamWindows || s.WindowN != windowMin || s.Tail != want {
		t.Errorf("tail %v over %d windows of %d, want %v over %d of %d",
			s.Tail, s.Windows, s.WindowN, want, streamWindows, windowMin)
	}
	if p50 := float64(windowMin-1) / 2; s.P50 != p50 {
		t.Errorf("p50 %v, want the unburst windows' %v", s.P50, p50)
	}
	if want := 100 * float64(windowMin-tailBeyond) / windowMin; s.TailPct != want {
		t.Errorf("window tail percentile %v, want %v", s.TailPct, want)
	}
}
