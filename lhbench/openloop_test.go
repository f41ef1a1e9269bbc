package main

import (
	"context"
	"testing"
	"time"
)

// stalledRun drives 40 arrivals 10 ms apart through one client whose
// handler stalls for 200 ms on arrival 5 and answers every other at once.
func stalledRun(t *testing.T) []outcome {
	t.Helper()
	const gap, stall = 10 * time.Millisecond, 200 * time.Millisecond
	sched := make([]arrival, 40)
	for i := range sched {
		sched[i] = arrival{due: time.Duration(i) * gap, key: i}
	}
	outs := openLoop(context.Background(), sched, 1, func(_, i int, _ arrival) error {
		if i == 5 {
			time.Sleep(stall)
		}
		return nil
	})
	for i, o := range outs {
		if !o.issued || o.err != nil || o.key != i {
			t.Fatalf("arrival %d: issued=%v err=%v key=%d", i, o.issued, o.err, o.key)
		}
	}
	return outs
}

// The requests queued behind the stall are charged the time they waited:
// latency runs from the due time, so coordinated omission cannot hide the
// stall behind fast service times.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	outs := stalledRun(t)
	if ms := outs[5].latencyMs(); ms < 200 {
		t.Errorf("stalled request: %v ms, want at least the 200 ms stall", ms)
	}
	// Arrival 6 was due 10 ms after the stalled one and waited out the rest.
	if ms := outs[6].latencyMs(); ms < 190 {
		t.Errorf("request queued behind the stall: %v ms from due, want >= 190", ms)
	}
	if svc := float64(outs[6].done-outs[6].sent) / 1e6; svc > 50 {
		t.Errorf("queued request's own service time %v ms; the handler answers at once", svc)
	}
	// The queue drains: the last arrival, due well after the stall ended,
	// is on time again, give or take scheduling noise.
	if ms := outs[39].latencyMs(); ms > 100 {
		t.Errorf("last request %v ms from due; the backlog should have drained", ms)
	}
}

func TestGeneratorLatenessReportsStall(t *testing.T) {
	l := generatorLateness(stalledRun(t))
	if l.MaxMs < 190 {
		t.Errorf("max lateness %v ms, want the ~190 ms the request after the stall waited", l.MaxMs)
	}
	// Arrivals 6..24 fell due during the 200 ms stall: 19 of the 40.
	if l.LateOne < 0.3 {
		t.Errorf("late share %v, want at least 0.3 of requests sent more than 1 ms late", l.LateOne)
	}
	if l := generatorLateness(nil); l != (lateness{}) {
		t.Errorf("lateness of no requests = %+v, want zero", l)
	}
}

func TestFailedOrUnsentRequestMissesAnyLimit(t *testing.T) {
	if ms := (outcome{issued: false}).latencyMs(); ms != failedMs {
		t.Errorf("unsent request latency %v, want %v", ms, failedMs)
	}
	if ms := (outcome{issued: true, err: context.Canceled}).latencyMs(); ms != failedMs {
		t.Errorf("failed request latency %v, want %v", ms, failedMs)
	}
}
