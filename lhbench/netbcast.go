package main

import (
	"context"
	"fmt"
	"time"

	"lhg"
	"lhg/internal/netflood"
)

// net-broadcast: flooding over a real LHG. A reliable-mode netflood
// cluster of K-DIAMOND(64, 4) runs on loopback TCP with no injected
// faults; each op broadcasts from the next node of a seeded rotation and
// waits until all 64 nodes have delivered it.
//
// The op waits on the cluster's delivery stream rather than polling
// Cluster.WaitDelivered: that helper copies every node's whole delivery
// log on each 2 ms poll, so its cost grows with the number of broadcasts
// already made and its wake-ups quantize the op time.
const (
	netN       = 64
	netK       = 4
	netTimeout = 10 * time.Second
)

type netBench struct {
	seed  uint64
	srcs  []int
	cl    *netflood.Cluster
	sent  []netflood.Message // every broadcast, warm-up included
	start time.Duration      // time StartWithOptions took
}

func newNetBench(seed uint64) bench { return &netBench{seed: seed} }

func (b *netBench) setup(ctx context.Context) error {
	g, err := lhg.Build(ctx, lhg.KDiamond, netN, netK)
	if err != nil {
		return err
	}
	b.srcs = permutation(b.seed, netN)
	t0 := time.Now()
	cl, err := netflood.StartWithOptions(g, netflood.Options{Reliable: true, Seed: b.seed | 1})
	if err != nil {
		return err
	}
	b.start = time.Since(t0)
	b.cl = cl
	for i := range b.srcs { // warm-up: one broadcast from every node
		if err := b.broadcast(nil, -1, b.srcs[i]); err != nil {
			return fmt.Errorf("warm-up broadcast from %d: %w", b.srcs[i], err)
		}
	}
	return nil
}

// broadcast floods one message from src and waits until every node has
// delivered it once.
func (b *netBench) broadcast(tr *tracer, op int64, src int) error {
	return tr.do("net.op", op, 0, func(id int32) error {
		var msg netflood.Message
		if err := tr.do("netflood.Broadcast", op, id, func(int32) error {
			var err error
			msg, err = b.cl.Broadcast(src, fmt.Sprintf("op-%d", len(b.sent)))
			return err
		}); err != nil {
			return err
		}
		b.sent = append(b.sent, msg)
		return tr.do("netflood.deliveries", op, id, func(int32) error {
			timeout := time.NewTimer(netTimeout)
			defer timeout.Stop()
			for got := 0; got < netN; {
				select {
				case m := <-b.cl.Deliveries():
					if m.Src == msg.Src && m.Seq == msg.Seq {
						got++
					}
				case <-timeout.C:
					return fmt.Errorf("broadcast %d/%d: %d of %d nodes delivered within %v",
						msg.Src, msg.Seq, got, netN, netTimeout)
				}
			}
			return nil
		})
	})
}

func (b *netBench) run(_ context.Context, d time.Duration, tr *tracer) (*phase, error) {
	return closedLoop(d, func(i int) (bool, error) {
		return true, b.broadcast(tr, int64(i), b.srcs[i%len(b.srcs)])
	}), nil
}

// verify checks exactly-once delivery: every node's log holds each
// broadcast once and nothing else.
func (b *netBench) verify(context.Context) error {
	want := make(map[[2]int]bool, len(b.sent))
	for _, m := range b.sent {
		want[[2]int{m.Src, m.Seq}] = true
	}
	for v := 0; v < netN; v++ {
		seen := make(map[[2]int]int)
		for _, m := range b.cl.Delivered(v) {
			k := [2]int{m.Src, m.Seq}
			if !want[k] {
				return fmt.Errorf("node %d delivered %d/%d, which was never broadcast", v, m.Src, m.Seq)
			}
			if seen[k]++; seen[k] > 1 {
				return fmt.Errorf("node %d delivered %d/%d twice", v, m.Src, m.Seq)
			}
		}
		if len(seen) != len(want) {
			return fmt.Errorf("node %d delivered %d of %d broadcasts", v, len(seen), len(want))
		}
	}
	return nil
}

func (b *netBench) close() {
	if b.cl != nil {
		b.cl.Shutdown()
	}
}
