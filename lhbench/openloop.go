package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one request of an open-loop schedule.
type arrival struct {
	due  time.Duration // offset from the loop's start
	miss bool          // a fresh key rather than a hot one
	key  int           // index into the workload's key table
}

// outcome is what happened to one arrival. Every offset is measured from
// the loop's start; latency runs from due, not from sent, so a stall that
// delays later requests is charged to them (no coordinated omission).
type outcome struct {
	arrival
	sent, done time.Duration
	issued     bool
	err        error
}

func (o outcome) latencyMs() float64 {
	if o.err != nil || !o.issued {
		return failedMs
	}
	return float64(o.done-o.due) / 1e6
}

// openLoop issues sched in order from `clients` goroutines. A request is
// sent at its due time, or as soon as a client frees up when every client
// is busy then; it is never skipped. The loop returns once every request
// has completed or ctx has ended (unsent requests stay issued=false).
func openLoop(ctx context.Context, sched []arrival, clients int, send func(client, i int, a arrival) error) []outcome {
	out := make([]outcome, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			timer := time.NewTimer(0)
			defer timer.Stop()
			<-timer.C
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) || ctx.Err() != nil {
					return
				}
				a := sched[i]
				if wait := time.Until(start.Add(a.due)); wait > 0 {
					timer.Reset(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						return
					}
				}
				o := &out[i]
				o.arrival = a
				o.issued = true
				o.sent = time.Since(start)
				o.err = send(c, i, a)
				o.done = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// lateness reports how far behind schedule the generator ran: how long
// each issued request waited past its due time before it was sent.
type lateness struct {
	P50Ms   float64 `json:"p50_ms"`
	MaxMs   float64 `json:"max_ms"`
	LateOne float64 `json:"late_1ms_frac"` // share sent more than 1 ms late
}

func generatorLateness(outs []outcome) lateness {
	var ms []float64
	late := 0
	for _, o := range outs {
		if !o.issued {
			continue
		}
		l := float64(o.sent-o.due) / 1e6
		ms = append(ms, l)
		if l > 1 {
			late++
		}
	}
	if len(ms) == 0 {
		return lateness{}
	}
	var r lateness
	r.P50Ms = median(ms)
	for _, l := range ms {
		if l > r.MaxMs {
			r.MaxMs = l
		}
	}
	r.LateOne = float64(late) / float64(len(ms))
	return r
}
