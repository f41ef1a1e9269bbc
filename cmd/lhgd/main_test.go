package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lhg/internal/obs"
	"lhg/internal/serve"
)

func TestMain(m *testing.M) {
	obs.Enable()
	m.Run()
}

func startTestDaemon(t *testing.T, opts serve.Options) (base string, cancel func()) {
	t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	d, err := startDaemon(ctx, opts, "127.0.0.1:0")
	if err != nil {
		stop()
		t.Fatalf("startDaemon: %v", err)
	}
	t.Cleanup(func() {
		stop()
		if err := d.Shutdown(); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return "http://" + d.Addr(), stop
}

func post(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %q: %v", data, err)
		}
	}
	return resp.StatusCode
}

// TestDaemonEndToEnd drives every endpoint of a live daemon over TCP.
func TestDaemonEndToEnd(t *testing.T) {
	base, _ := startTestDaemon(t, serve.Options{CacheSize: 64})

	var build serve.BuildResponse
	if status := post(t, base+"/v1/build", `{"constraint":"kdiamond","n":50,"k":4}`, &build); status != http.StatusOK {
		t.Fatalf("build: status %d", status)
	}
	if build.Graph.Order() != 50 {
		t.Fatalf("build returned %d nodes, want 50", build.Graph.Order())
	}

	var verify serve.VerifyResponse
	if status := post(t, base+"/v1/verify", `{"constraint":"kdiamond","n":50,"k":4}`, &verify); status != http.StatusOK {
		t.Fatalf("verify: status %d", status)
	}
	if !verify.IsLHG {
		t.Fatalf("K-DIAMOND(50,4) must verify as an LHG: %+v", verify.Report)
	}

	var flood serve.FloodResponse
	if status := post(t, base+"/v1/flood",
		`{"constraint":"kdiamond","n":50,"k":4,"source":0,"failures":{"Nodes":[1,2,3]}}`, &flood); status != http.StatusOK {
		t.Fatalf("flood: status %d", status)
	}
	if !flood.Result.Complete {
		t.Fatalf("flood under f=3 < k=4 failures must complete: %v", flood.Result)
	}

	resp, err := http.Get(base + "/v1/constraints")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("constraints: status %d", resp.StatusCode)
	}
}

// TestDaemonReconfigureSession drives a stateful topology session over live
// TCP: create, churn both ways, read back, and confirm the epoch ratchet.
func TestDaemonReconfigureSession(t *testing.T) {
	base, _ := startTestDaemon(t, serve.Options{CacheSize: 64})

	var created serve.ReconfigureResponse
	if status := post(t, base+"/v1/reconfigure",
		`{"session":"prod","constraint":"ktree","n":18,"k":3}`, &created); status != http.StatusOK {
		t.Fatalf("create: status %d", status)
	}
	if created.Epoch != 0 || created.N != 18 || !created.IsLHG {
		t.Fatalf("create: epoch=%d n=%d is_lhg=%t, want 0/18/true", created.Epoch, created.N, created.IsLHG)
	}

	var churn serve.ReconfigureResponse
	if status := post(t, base+"/v1/reconfigure",
		`{"session":"prod","joins":3,"leaves":1}`, &churn); status != http.StatusOK {
		t.Fatalf("churn: status %d", status)
	}
	if churn.Epoch != 1 || churn.N != 20 || !churn.IsLHG {
		t.Fatalf("churn: epoch=%d n=%d is_lhg=%t, want 1/20/true", churn.Epoch, churn.N, churn.IsLHG)
	}
	if len(churn.Added) == 0 {
		t.Fatal("net growth of 2 members must add edges")
	}
	if churn.Report.NodeConnectivity < 3 || churn.Report.EdgeConnectivity < 3 {
		t.Fatalf("connectivity after churn = (%d,%d), want >= (3,3)",
			churn.Report.NodeConnectivity, churn.Report.EdgeConnectivity)
	}

	var read serve.ReconfigureResponse
	if status := post(t, base+"/v1/reconfigure", `{"session":"prod"}`, &read); status != http.StatusOK {
		t.Fatalf("read: status %d", status)
	}
	if read.Epoch != 1 || read.N != 20 {
		t.Fatalf("read: epoch=%d n=%d, want 1/20", read.Epoch, read.N)
	}
}

// TestLoadGeneratorCoalesces is the daemon-level acceptance check: a burst
// of 64 concurrent identical verify requests against a live TCP daemon
// executes exactly one verification campaign (singleflight + cache), and
// every request still gets a full, correct report.
func TestLoadGeneratorCoalesces(t *testing.T) {
	base, _ := startTestDaemon(t, serve.Options{CacheSize: 64})
	before := obs.Counters()

	const clients = 64
	body := `{"constraint":"kdiamond","n":100,"k":4,"properties":["P1","P2"]}`
	var wg sync.WaitGroup
	var ok, lhgTrue atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp serve.VerifyResponse
			if status := post(t, base+"/v1/verify", body, &resp); status == http.StatusOK {
				ok.Add(1)
				if resp.Report.KNodeConnected && resp.Report.KLinkConnected {
					lhgTrue.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	after := obs.Counters()
	if got := ok.Load(); got != clients {
		t.Fatalf("%d/%d requests succeeded", got, clients)
	}
	if got := lhgTrue.Load(); got != clients {
		t.Fatalf("%d/%d responses carried the verified properties", got, clients)
	}
	campaigns := after["check.verify.runs"] - before["check.verify.runs"]
	if campaigns != 1 {
		t.Fatalf("burst of %d identical verifies ran %d campaigns, want exactly 1", clients, campaigns)
	}
	// Probes are the expensive unit; a second campaign would have paid
	// them again. The delta must equal what one campaign costs, i.e. it
	// must be nonzero (the work happened) and stable across the burst.
	probes := after["flow.maxflow.probes"] - before["flow.maxflow.probes"]
	if probes == 0 {
		t.Fatal("no max-flow probes recorded; the campaign did not run here")
	}
}

// TestCacheHitLatency asserts the acceptance bound on the fast path: once a
// verify result is cached, p99 request latency over loopback TCP stays
// under a millisecond. Skipped under the race detector, whose per-access
// instrumentation dominates sub-millisecond budgets.
func TestCacheHitLatency(t *testing.T) {
	if raceEnabled {
		t.Skip("latency budget does not apply under the race detector")
	}
	base, _ := startTestDaemon(t, serve.Options{CacheSize: 64})
	body := `{"constraint":"ktree","n":40,"k":3,"properties":["P1"]}`

	// Prime the cache and the client's keep-alive connection.
	var warm serve.VerifyResponse
	if status := post(t, base+"/v1/verify", body, &warm); status != http.StatusOK {
		t.Fatalf("warmup: status %d", status)
	}
	for i := 0; i < 5; i++ {
		post(t, base+"/v1/verify", body, nil)
	}

	const samples = 300
	lat := make([]time.Duration, 0, samples)
	for i := 0; i < samples; i++ {
		start := time.Now()
		var resp serve.VerifyResponse
		if status := post(t, base+"/v1/verify", body, &resp); status != http.StatusOK {
			t.Fatalf("sample %d: status %d", i, status)
		}
		if !resp.Cached {
			t.Fatalf("sample %d missed the cache", i)
		}
		lat = append(lat, time.Since(start))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50 := lat[samples/2]
	p99 := lat[samples*99/100]
	t.Logf("cache-hit latency over loopback: p50=%v p99=%v", p50, p99)
	if p99 >= time.Millisecond {
		t.Fatalf("cache-hit p99 = %v, want < 1ms", p99)
	}
}

// TestGracefulShutdown cancels the daemon context and checks the port is
// released and Serve returned cleanly.
func TestGracefulShutdown(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	d, err := startDaemon(ctx, serve.Options{CacheSize: 4}, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("startDaemon: %v", err)
	}
	addr := d.Addr()
	if status := post(t, "http://"+addr+"/v1/build", `{"constraint":"ktree","n":8,"k":3}`, nil); status != http.StatusOK {
		t.Fatalf("pre-shutdown build: status %d", status)
	}
	stop()
	if err := d.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Post("http://"+addr+"/v1/build", "application/json",
		bytes.NewBufferString(`{}`)); err == nil {
		t.Fatal("daemon still accepting connections after shutdown")
	}
}

// TestShutdownClosesIdlePredialedConns parks connections that were dialed
// but never sent a request, the way a client pool pre-dials during a
// burst. net/http counts them as active for 5 s, as long as the grace, so
// Shutdown must close them through the header deadline and return nil
// well inside the grace.
func TestShutdownClosesIdlePredialedConns(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	d, err := startDaemon(ctx, serve.Options{CacheSize: 4}, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("startDaemon: %v", err)
	}
	if status := post(t, "http://"+d.Addr()+"/v1/build", `{"constraint":"ktree","n":8,"k":3}`, nil); status != http.StatusOK {
		t.Fatalf("pre-shutdown build: status %d", status)
	}
	var parked []net.Conn
	for i := 0; i < 4; i++ {
		c, err := net.Dial("tcp", d.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		parked = append(parked, c)
	}
	time.Sleep(100 * time.Millisecond) // let the server accept them
	stop()
	start := time.Now()
	if err := d.Shutdown(); err != nil {
		t.Fatalf("shutdown with %d idle pre-dialed connections: %v", len(parked), err)
	}
	if took := time.Since(start); took >= shutdownGrace {
		t.Fatalf("shutdown took %v, the whole grace", took)
	}
	for i, c := range parked {
		c.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("parked connection %d: read err = %v, want EOF (closed by the server)", i, err)
		}
	}
}

// TestRunFlagErrors keeps the flag surface honest.
func TestRunFlagErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-bogus"}, &buf); err == nil {
		t.Fatal("unknown flag must fail")
	}
}

// TestRunServesUntilCanceled boots the full run() path on an ephemeral
// port and shuts it down via context cancellation, the same path a signal
// takes in production.
func TestRunServesUntilCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-cache", "8"}, w) }()

	// Wait for the listen line so we know the server is up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		up := bytes.Contains(buf.Bytes(), []byte("lhgd: listening"))
		mu.Unlock()
		if up {
			break
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never announced its address; log: %q", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after cancellation")
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func Example_daemonVerify() {
	ctx := context.Background()
	d, err := startDaemon(ctx, serve.Options{CacheSize: 8}, "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer d.Shutdown()
	resp, err := http.Post("http://"+d.Addr()+"/v1/verify", "application/json",
		bytes.NewBufferString(`{"constraint":"ktree","n":21,"k":3}`))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var out serve.VerifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		panic(err)
	}
	fmt.Printf("is_lhg=%t cached=%t\n", out.IsLHG, out.Cached)
	// Output: is_lhg=true cached=false
}
