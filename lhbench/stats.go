package main

import (
	"fmt"
	"math"
	"sort"
)

// tailBeyond is the number of samples that must lie above the value
// reported as a stream's tail: the tail is the highest percentile that
// still has this many samples beyond it.
const tailBeyond = 10

// failedMs is the latency recorded for a failed or refused op. It is
// larger than any limit a claim could set, so a failure always lands in
// the tail as having missed it.
const failedMs = 1e9

// A stream long enough is cut into up to streamWindows consecutive
// windows of at least windowMin samples, and its median and tail are the
// medians of the windows' medians and tails: a burst of outside noise
// (another tenant taking the CPU for a second) then moves one window, not
// the figure.
const (
	streamWindows = 5
	windowMin     = 300
)

// summary condenses one latency stream (one op class at one input size).
type summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50_ms"`
	Tail    float64 `json:"tail_ms"`
	TailPct float64 `json:"tail_pct"` // percentile of each window's tail
	Windows int     `json:"windows"`
	WindowN int     `json:"window_n"`
	Beyond  int     `json:"tail_beyond"`
}

// summarize reports the median of ms (in op order) and its tail. In each
// window the tail is the order statistic with exactly tailBeyond samples
// above it, at percentile 100·(w−tailBeyond)/w for a window of w samples.
// A stream too short to have a tail is an error, never a silently weaker
// percentile.
func summarize(ms []float64) (summary, error) {
	n := len(ms)
	if n <= tailBeyond {
		return summary{}, fmt.Errorf("%d samples: need more than %d for a tail", n, tailBeyond)
	}
	windows := min(streamWindows, max(1, n/windowMin))
	w := n / windows
	var p50s, tails []float64
	for i := 0; i < windows; i++ {
		lo, hi := i*w, (i+1)*w
		if i == windows-1 {
			hi = n // the last window takes the remainder
		}
		s := append([]float64(nil), ms[lo:hi]...)
		sort.Float64s(s)
		p50s = append(p50s, quantile(s, 0.5))
		tails = append(tails, s[len(s)-1-tailBeyond])
	}
	return summary{
		N:       n,
		P50:     median(p50s),
		Tail:    median(tails),
		TailPct: 100 * float64(w-tailBeyond) / float64(w),
		Windows: windows,
		WindowN: w,
		Beyond:  tailBeyond,
	}, nil
}

// quantile interpolates linearly between the closest ranks of sorted
// (the R-7 definition, which Python's statistics.quantiles calls
// "inclusive").
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	h := q * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// median is quantile 0.5 of an unsorted slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
