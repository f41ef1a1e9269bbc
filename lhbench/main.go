// Command lhbench is the repository's benchmark: one process that times
// exact verification, churn re-verification, lhgd serving and netflood
// broadcast through the program's public entry points, checks every
// output, and prints one JSON result line. See README.md.
//
// Usage (from the repository root):
//
//	bash lhbench/run.sh --workload verify-full --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition on a shared machine does not move it.
const setupReps = 3

// outDir holds the store directory and span files a run writes. It is
// inside the checkout the benchmark runs from.
const outDir = ".bench_build"

// bench is one workload: its inputs, its op loop and its checks.
type bench interface {
	// setup generates the inputs and makes one warm-up pass over them.
	setup(ctx context.Context) error
	// run drives the op loop for d; a non-nil tracer records spans.
	run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error)
	// verify cross-checks the state run left against the slow path,
	// outside timing.
	verify(ctx context.Context) error
	close()
}

// phase is one timed op loop's measurements.
type phase struct {
	op        []float64 // ms per op of the workload's main class
	miss      []float64 // ms per cache-miss request; nil when every op computes
	completed int       // ops completed inside the window
	window    time.Duration
	attempted int
	failed    int
	wrong     int // ops whose output failed a correctness check
	info      map[string]any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(seed uint64) bench{
	"verify-full":   newVerifyBench,
	"churn-delta":   newChurnBench,
	"lhgd-mixed":    newLhgdBench,
	"net-broadcast": newNetBench,
}

func main() {
	name := flag.String("workload", "", "workload: verify-full, churn-delta, lhgd-mixed or net-broadcast")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 30, "length of the measured phase")
	traced := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	if workloads[*name] == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "lhbench: need --workload (verify-full|churn-delta|lhgd-mixed|net-broadcast), --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "lhbench:", err)
		os.Exit(1)
	}
	ctx := context.Background()
	d := time.Duration(*seconds) * time.Second
	meta := runMeta(*name, *seed, *traced == 1)
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(ctx, *name, *seed, d, meta)
	} else {
		res, err = runUntraced(ctx, *name, *seed, d, meta)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lhbench:", err)
		os.Exit(1)
	}
	printMetrics(res)
	metaLine, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lhbench: metadata:", err)
		os.Exit(1)
	}
	resLine, err := json.Marshal(res)
	if err != nil { // a NaN or infinite metric: a broken measurement
		fmt.Fprintln(os.Stderr, "lhbench: result:", err)
		os.Exit(1)
	}
	fmt.Println(string(metaLine))
	fmt.Println(string(resLine))
}

// setUp runs the workload's set-up setupReps times, keeping the last
// instance, and returns it with the median set-up time in seconds.
func setUp(ctx context.Context, name string, seed uint64) (bench, float64, []float64, error) {
	var b bench
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		b = workloads[name](seed)
		t0 := time.Now()
		if err := b.setup(ctx); err != nil {
			b.close()
			return nil, 0, nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return b, median(secs), secs, nil
}

func runUntraced(ctx context.Context, name string, seed uint64, d time.Duration, meta map[string]any) (*result, error) {
	b, setupS, reps, err := setUp(ctx, name, seed)
	if err != nil {
		return nil, err
	}
	defer b.close()
	meta["setup_reps_s"] = reps
	runtime.GC()
	steal0, total0 := cpuTicks()
	heap := startHeapSampler()
	ph, err := b.run(ctx, d, nil)
	heapMB := heap.stop()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		meta["cpu_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	correct := ph.wrong == 0
	if err := b.verify(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "lhbench: %s cross-check: %v\n", name, err)
		correct = false
	}
	opS, err := summarize(ph.op)
	if err != nil {
		return nil, fmt.Errorf("%s op stream: %w", name, err)
	}
	meta["op_stream"] = opS
	if ph.miss != nil {
		missS, err := summarize(ph.miss)
		if err != nil {
			return nil, fmt.Errorf("%s miss stream: %w", name, err)
		}
		meta["miss_stream"] = missS
	}
	meta["window_s"] = ph.window.Seconds()
	for k, v := range ph.info {
		meta[k] = v
	}
	return &result{
		Correct:   correct,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"setup_s":     {setupS, "s"},
			"heap_mb_p90": {heapMB, "MB"},
			"op_ms_p50":   {opS.P50, "ms"},
			"op_ms_tail":  {opS.Tail, "ms"},
			"ops_per_s":   {float64(ph.completed) / ph.window.Seconds(), "1/s"},
		},
	}, nil
}

// heapSampler records the live heap every sampleEvery while an op loop
// runs; its p90 is heap_mb_p90.
type heapSampler struct {
	stopc chan struct{}
	done  chan []float64
}

const sampleEvery = 20 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var mb []float64
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			mb = append(mb, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stopc:
				h.done <- mb
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() float64 {
	close(h.stopc)
	mb := <-h.done
	sort.Float64s(mb)
	return quantile(mb, 0.9)
}

// runtimeCounters reads the GC cycle count and the cumulative bytes
// allocated.
func runtimeCounters() (gcs, allocBytes uint64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// runMeta records what a reader needs to compare two results: the
// commit, toolchain, parallelism and machine.
func runMeta(name string, seed uint64, traced bool) map[string]any {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"traced":     traced,
		"commit":     commit + dirty,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the machine's stolen and total CPU time from
// /proc/stat (zero where it is unavailable). On a shared virtual machine
// the stolen share during the timed phase explains a slow run.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// printMetrics writes a readable table to stderr; stdout keeps the JSON.
func printMetrics(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}

// closedLoop runs op back to back until d has passed and collects the
// per-op latency. op reports (ok=false) an output that failed its check;
// an error fails the op. The loop is the workloads' single client.
func closedLoop(d time.Duration, op func(i int) (ok bool, err error)) *phase {
	ph := &phase{}
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		t0 := time.Now()
		ok, err := op(i)
		ms := float64(time.Since(t0)) / 1e6
		ph.attempted++
		switch {
		case err != nil:
			ph.failed++
			ms = failedMs
			fmt.Fprintf(os.Stderr, "lhbench: op %d: %v\n", i, err)
		case !ok:
			ph.failed++
			ph.wrong++
		default:
			ph.completed++
		}
		ph.op = append(ph.op, ms)
	}
	ph.window = time.Since(start)
	return ph
}

// storeDir makes a fresh directory under outDir.
func storeDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(outDir, prefix)
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// splitmix derives the i-th 64-bit value of the stream seeded by seed.
func splitmix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// permutation returns a seeded shuffle of 0..n-1.
func permutation(seed uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(splitmix(seed, uint64(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}
