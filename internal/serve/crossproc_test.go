package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lhg"
	"lhg/internal/obs"
	"lhg/internal/obs/trace"
	"lhg/internal/store"
)

// Cross-process singleflight. Two independent serve.Server instances —
// separate LRUs, separate flight groups, the closest an in-process test
// gets to two lhgd processes — share one report store directory. A burst
// of identical requests split across both must still run exactly ONE
// verification campaign fleet-wide: each instance elects one in-process
// flight leader, the two leaders contend for the store lease, and the
// loser adopts the winner's published value instead of recomputing.
//
// The obs registry is process-global, so check.verify.runs counts
// campaigns across BOTH instances; the lease counters pin the protocol
// (one acquisition won, at least one leader waited).

// newFleet opens count servers over one shared store directory.
func newFleet(t *testing.T, dir string, count int, opts Options) []*httptest.Server {
	t.Helper()
	fleet := make([]*httptest.Server, count)
	for i := range fleet {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Store = st
		fleet[i] = httptest.NewServer(New(o).Handler())
		t.Cleanup(fleet[i].Close)
	}
	return fleet
}

func TestCrossProcessBurstRunsOneCampaign(t *testing.T) {
	dir := t.TempDir()
	fleet := newFleet(t, dir, 2, Options{CacheSize: 16})

	// Warm the graph on both instances first: graphs are LRU-only (not
	// persisted), so each instance builds its own — that is build-side
	// work, and the assertion below is about verify campaigns.
	body := `{"constraint":"kdiamond","n":96,"k":4,"properties":["P1"]}`
	for _, ts := range fleet {
		if status := postJSON(t, ts.URL+"/v1/build", `{"constraint":"kdiamond","n":96,"k":4}`, nil); status != 200 {
			t.Fatalf("warm build: status %d", status)
		}
	}

	before := obs.Counters()
	const clients = 64
	var wg sync.WaitGroup
	var cachedCount, okCount atomic.Int64
	for i := 0; i < clients; i++ {
		ts := fleet[i%len(fleet)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp VerifyResponse
			if status := postJSON(t, ts.URL+"/v1/verify", body, &resp); status == 200 {
				okCount.Add(1)
			}
			if resp.Cached {
				cachedCount.Add(1)
			}
		}()
	}
	wg.Wait()
	after := obs.Counters()

	if okCount.Load() != clients {
		t.Fatalf("%d/%d requests succeeded", okCount.Load(), clients)
	}
	if runs := after["check.verify.runs"] - before["check.verify.runs"]; runs != 1 {
		t.Fatalf("fleet ran %d verification campaigns for %d identical requests, want exactly 1", runs, clients)
	}
	// Exactly one lease was won fleet-wide; 63 of 64 requests coalesced
	// (in-process) or adopted (cross-process), so they report cached=true.
	if acq := after["store.lease.acquired"] - before["store.lease.acquired"]; acq != 1 {
		t.Fatalf("store.lease.acquired moved by %d, want 1", acq)
	}
	if cachedCount.Load() != clients-1 {
		t.Fatalf("%d/%d requests reported cached=true, want %d", cachedCount.Load(), clients, clients-1)
	}
	// The value reached the store, so a THIRD instance — a cold restart —
	// replays it without any campaign.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() == 0 {
		t.Fatal("store is empty after the burst; the report was never persisted")
	}
	restarted := httptest.NewServer(New(Options{CacheSize: 16, Store: st}).Handler())
	defer restarted.Close()
	preRuns := obs.Counters()["check.verify.runs"]
	var replay VerifyResponse
	if status := postJSON(t, restarted.URL+"/v1/verify", body, &replay); status != 200 {
		t.Fatalf("replay status %d", status)
	}
	if !replay.Cached {
		t.Fatal("restarted instance must answer cached=true from the store")
	}
	if replay.Report == nil || !replay.Report.KNodeConnected {
		t.Fatalf("replayed report is wrong: %+v", replay)
	}
	if runs := obs.Counters()["check.verify.runs"] - preRuns; runs != 0 {
		t.Fatalf("replay ran %d campaigns, want 0", runs)
	}
}

// TestCrossProcessDistinctKeysDontContend pins that the lease is per-key:
// different keys on different instances never wait on each other.
func TestCrossProcessDistinctKeysDontContend(t *testing.T) {
	dir := t.TempDir()
	fleet := newFleet(t, dir, 2, Options{CacheSize: 16})
	before := obs.Counters()
	var wg sync.WaitGroup
	for i, ts := range fleet {
		n := 14 + 7*i // distinct graphs
		url := ts.URL
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"constraint":"ktree","n":%d,"k":3}`, n)
			var resp VerifyResponse
			if status := postJSON(t, url+"/v1/verify", body, &resp); status != 200 || resp.Cached {
				t.Errorf("n=%d: status=%d cached=%t, want fresh 200", n, status, resp.Cached)
			}
		}()
	}
	wg.Wait()
	after := obs.Counters()
	if runs := after["check.verify.runs"] - before["check.verify.runs"]; runs != 2 {
		t.Fatalf("ran %d campaigns for 2 distinct keys, want 2", runs)
	}
	if waits := after["store.lease.waits"] - before["store.lease.waits"]; waits != 0 {
		t.Fatalf("distinct keys waited on each other %d times", waits)
	}
}

// TestLeaseWinnerAdoptsPublishedValue: a foreign leader can publish and
// release between a request's store miss and its lease acquisition. The
// new lease winner must then adopt the published value instead of running
// a second campaign, and give the lease back.
func TestLeaseWinnerAdoptsPublishedValue(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{CacheSize: 16, Store: st})
	raw, _ := json.Marshal(lhg.Report{N: 7, K: 3})
	if err := st.Put("k", "verify", raw); err != nil {
		t.Fatal(err)
	}
	v, lease, err := srv.leaseOrAdopt(context.Background(), "k", persistVerify, trace.Span{})
	if err != nil {
		t.Fatal(err)
	}
	if lease != nil {
		t.Fatal("won the lease over a published value: the caller would compute again")
	}
	if r, ok := v.(*lhg.Report); !ok || r.N != 7 {
		t.Fatalf("adopted %#v, want the published report", v)
	}
	if l, ok, err := st.Acquire("k", time.Minute); err != nil || !ok {
		t.Fatalf("lease still held after adopting: ok=%t err=%v", ok, err)
	} else {
		l.Release()
	}
}
