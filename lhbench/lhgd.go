package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"lhg"
	"lhg/internal/serve"
	"lhg/internal/store"
)

// lhgd-mixed: the only path through serve, store and net/http. An
// in-process lhgd server (persistent store in a fresh directory, one
// worker per campaign) answers POST /v1/verify over loopback keep-alive
// connections, driven open-loop at a fixed offered rate: 90 % of requests
// hit 16 prefilled hot keys, 10 % ask for fresh seeded keys, and every
// lhgdTwinEvery-th miss is sent on both connections at once so that
// singleflight coalescing runs. Hits and misses are separate streams.
const (
	lhgdN         = 128
	lhgdK         = 4
	lhgdHot       = 16
	lhgdRate      = 400.0 // offered requests per second; see README.md
	lhgdMissEvery = 10    // one request in this many is a miss
	lhgdTwinEvery = 5     // one miss in this many is sent twice at once
	lhgdClients   = 2     // connections, one client goroutine each
	lhgdSampleOne = 10    // one miss key in this many is cross-checked
)

type lhgdKey struct {
	c      lhg.Constraint
	seed   uint64
	body   []byte
	report json.RawMessage // hot keys: the report the prefill produced
}

type verifyResponse struct {
	Cached bool            `json:"cached"`
	IsLHG  bool            `json:"is_lhg"`
	Report json.RawMessage `json:"report"`
}

type lhgdBench struct {
	seed     uint64
	keys     []lhgdKey // hot keys first, then every miss key issued
	nextMiss uint64
	sampled  []int // miss keys to cross-check, with their served report
	served   map[int]json.RawMessage

	dir     string
	srv     http.Handler
	cancel  context.CancelFunc
	hs      *http.Server
	done    chan error
	url     string
	clients [lhgdClients]*http.Client
}

func newLhgdBench(seed uint64) bench {
	return &lhgdBench{seed: seed, served: map[int]json.RawMessage{}}
}

// newKey registers a key and returns its index.
func (b *lhgdBench) newKey(s uint64) (int, error) {
	c := lhg.KTree
	if s%2 == 1 {
		c = lhg.KDiamond
	}
	body, err := json.Marshal(serve.VerifyRequest{BuildRequest: serve.BuildRequest{
		Constraint: c.String(), N: lhgdN, K: lhgdK, Seed: &s}})
	if err != nil {
		return 0, err
	}
	b.keys = append(b.keys, lhgdKey{c: c, seed: s, body: body})
	return len(b.keys) - 1, nil
}

func (b *lhgdBench) setup(ctx context.Context) error {
	dir, err := storeDir("lhgd-store-")
	if err != nil {
		return err
	}
	b.dir = dir
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	base, cancel := context.WithCancel(ctx)
	b.cancel = cancel
	srv := serve.New(serve.Options{BaseContext: base, CacheSize: -1, Workers: 1, Store: st})
	b.srv = srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.hs = &http.Server{Handler: b.srv, ReadHeaderTimeout: 10 * time.Second}
	b.done = make(chan error, 1)
	go func() { b.done <- b.hs.Serve(ln) }()
	b.url = "http://" + ln.Addr().String() + "/v1/verify"
	for i := range b.clients {
		b.clients[i] = &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
	}
	// Prefill the hot set (each a miss), then warm up with one hit per
	// hot key on each connection.
	for i := 0; i < lhgdHot; i++ {
		k, err := b.newKey(splitmix(b.seed, uint64(i)))
		if err != nil {
			return err
		}
		r, err := b.post(0, b.keys[k].body)
		if err != nil {
			return fmt.Errorf("prefill %d: %w", i, err)
		}
		if !r.IsLHG {
			return fmt.Errorf("prefill %d: not an LHG", i)
		}
		b.keys[k].report = r.Report
	}
	for c := range b.clients {
		for k := 0; k < lhgdHot; k++ {
			r, err := b.post(c, b.keys[k].body)
			if err != nil {
				return fmt.Errorf("warm-up hit %d: %w", k, err)
			}
			if !b.hitOK(k, r) {
				return fmt.Errorf("warm-up hit %d: not a cached copy of the prefill report", k)
			}
		}
	}
	return nil
}

func (b *lhgdBench) post(client int, body []byte) (*verifyResponse, error) {
	data, err := b.postRaw(client, body)
	if err != nil {
		return nil, err
	}
	var r verifyResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// postRaw sends one request and returns the response body once it has
// been read in full.
func (b *lhgdBench) postRaw(client int, body []byte) ([]byte, error) {
	resp, err := b.clients[client].Post(b.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (b *lhgdBench) hitOK(k int, r *verifyResponse) bool {
	return r.Cached && r.IsLHG && bytes.Equal(r.Report, b.keys[k].report)
}

// schedule lays out d of traffic at lhgdRate: evenly spaced arrivals, one
// miss at a seeded position in every lhgdMissEvery, hot keys drawn
// uniformly, and a twin request for every lhgdTwinEvery-th miss.
func (b *lhgdBench) schedule(d time.Duration) ([]arrival, error) {
	n := int(lhgdRate * d.Seconds())
	sched := make([]arrival, 0, n+n/lhgdMissEvery/lhgdTwinEvery+1)
	misses := 0
	for i := 0; i < n; i++ {
		due := time.Duration(float64(i) / lhgdRate * float64(time.Second))
		r := splitmix(b.seed^0x5ced, uint64(i))
		if uint64(i%lhgdMissEvery) != splitmix(b.seed^0xb10c, uint64(i/lhgdMissEvery))%lhgdMissEvery {
			sched = append(sched, arrival{due: due, key: int(r % lhgdHot)})
			continue
		}
		b.nextMiss++
		k, err := b.newKey(splitmix(b.seed^0x3155, b.nextMiss))
		if err != nil {
			return nil, err
		}
		if b.nextMiss%lhgdSampleOne == 0 {
			b.sampled = append(b.sampled, k)
		}
		sched = append(sched, arrival{due: due, miss: true, key: k})
		if misses++; misses%lhgdTwinEvery == 0 {
			sched = append(sched, arrival{due: due, miss: true, key: k})
		}
	}
	return sched, nil
}

func (b *lhgdBench) run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	sched, err := b.schedule(d)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(sched))
	outs := openLoop(ctx, sched, lhgdClients, func(client, i int, a arrival) error {
		name := "lhgd.hit"
		if a.miss {
			name = "lhgd.miss"
		}
		return tr.do(name, int64(i), 0, func(int32) error {
			var err error
			bodies[i], err = b.postRaw(client, b.keys[a.key].body)
			return err
		})
	})
	// ops_per_s counts every completed request over the time until the
	// last one completed, so it falls below the offered rate only when a
	// backlog grows.
	ph := &phase{info: map[string]any{}}
	missReports := map[int]json.RawMessage{}
	for i, o := range outs {
		ph.attempted++
		ok := o.issued && o.err == nil
		if ok {
			var r verifyResponse
			if err := json.Unmarshal(bodies[i], &r); err != nil {
				ok = false
			} else if o.miss {
				ok = missOK(&r) && (missReports[o.key] == nil || bytes.Equal(missReports[o.key], r.Report))
				missReports[o.key] = r.Report
			} else {
				ok = b.hitOK(o.key, &r)
			}
			if !ok {
				ph.wrong++
			}
		} else if o.err != nil {
			fmt.Fprintf(os.Stderr, "lhbench: request %d: %v\n", i, o.err)
		}
		ms := o.latencyMs()
		if ok {
			ph.completed++
			ph.window = max(ph.window, o.done)
		} else {
			ph.failed++
			ms = failedMs
		}
		if o.miss {
			ph.miss = append(ph.miss, ms)
		} else {
			ph.op = append(ph.op, ms)
		}
	}
	if ph.window == 0 {
		ph.window = d // nothing completed
	}
	for _, k := range b.sampled {
		if r, ok := missReports[k]; ok {
			b.served[k] = r
		}
	}
	ph.info["lhgd_rate_per_s"] = lhgdRate
	ph.info["lhgd_lateness"] = generatorLateness(outs)
	return ph, nil
}

func missOK(r *verifyResponse) bool {
	var rep lhg.Report
	if json.Unmarshal(r.Report, &rep) != nil {
		return false
	}
	return r.IsLHG && rep.NodeConnectivity == lhgdK && rep.EdgeConnectivity == lhgdK
}

// verify recomputes a sample of the served misses in-process and compares
// the reports, phase timings aside.
func (b *lhgdBench) verify(ctx context.Context) error {
	if len(b.served) == 0 {
		return errors.New("no miss was sampled for the cross-check")
	}
	for k, raw := range b.served {
		key := b.keys[k]
		g, err := lhg.Build(ctx, key.c, lhgdN, lhgdK, lhg.WithSeed(key.seed))
		if err != nil {
			return err
		}
		want, err := lhg.Verify(ctx, g, lhgdK, lhg.WithWorkers(1))
		if err != nil {
			return err
		}
		var got lhg.Report
		if err := json.Unmarshal(raw, &got); err != nil {
			return err
		}
		if !sameReportJSON(&got, want) {
			return fmt.Errorf("served report for %v seed %d differs from an in-process verify", key.c, key.seed)
		}
	}
	return nil
}

// sameReportJSON compares two reports as their JSON encodings without
// phase timings; a report decoded from the wire has no unexported state.
func sameReportJSON(a, b *lhg.Report) bool {
	x, y := *a, *b
	x.Phases, y.Phases = nil, nil
	jx, err1 := json.Marshal(&x)
	jy, err2 := json.Marshal(&y)
	return err1 == nil && err2 == nil && bytes.Equal(jx, jy)
}

func (b *lhgdBench) close() {
	if b.hs != nil {
		b.hs.Close()
		<-b.done
		b.hs = nil
	}
	if b.cancel != nil {
		b.cancel()
	}
	for _, c := range b.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
		b.dir = ""
	}
}
