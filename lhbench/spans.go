package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one op share Op; Parent is the enclosing span's ID (0 = root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the benchmark's spans in memory until the run ends. A nil
// tracer records nothing, so untraced phases pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span named name and returns fn's error.
func (t *tracer) do(name string, op int64, parent int32, fn func(id int32) error) error {
	if t == nil {
		return fn(0)
	}
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name})
	t.mu.Unlock()
	start := time.Since(t.t0).Nanoseconds()
	err := fn(id)
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = start, end
	t.mu.Unlock()
	return err
}

// mark returns a position in the span log for durationsSince.
func (t *tracer) mark() int { return len(t.spans) }

// durationsSince returns the wall time, in µs, of every span named name
// recorded after mark.
func (t *tracer) durationsSince(mark int, name string) []float64 {
	var us []float64
	for _, s := range t.spans[mark:] {
		if s.Name == name {
			us = append(us, float64(s.End-s.Start)/1e3)
		}
	}
	return us
}

// selfTime aggregates, per span name, the call count, the total wall time
// and the self time: each span's duration minus the part of its interval
// that its child spans cover.
type selfTime struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() map[string]selfTime {
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]selfTime)
	for _, s := range t.spans {
		st := out[s.Name]
		st.Count++
		st.TotalMs += float64(s.End-s.Start) / 1e6
		st.SelfMs += float64(s.End-s.Start-covered(children[s.ID])) / 1e6
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi int64
	lo := int64(-1)
	for _, x := range iv {
		switch {
		case lo < 0:
			lo, hi = x[0], x[1]
		case x[0] > hi:
			total += hi - lo
			lo, hi = x[0], x[1]
		case x[1] > hi:
			hi = x[1]
		}
	}
	if lo >= 0 {
		total += hi - lo
	}
	return total
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
