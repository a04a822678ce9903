// Command perfbench is the repository's benchmark. It starts mltuned in
// this process, wired the way cmd/mltuned wires it by default, drives
// one named workload through the daemon's public HTTP, RPC and job
// APIs, checks every answer it can, and prints the workload's metrics.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The workloads are listed in workloads below and described, with every
// metric and the layer metrics expected to move it, in BENCHMARK.md.
// With --trace 0 the last line of standard output is a JSON object
// holding the end-to-end metrics; with --trace 1 it holds the per-layer
// metrics of a separate traced invocation, whose spans are also written
// to .bench_build/perfbench/trace-<workload>-<seed>.json. Earlier lines
// give the run key and the workload's own figures. The exit code is 1
// when an answer is wrong or a counter assertion fails, 2 on bad usage
// or a set-up error.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/hashx"
	"repro/internal/service"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"serve_hot": serveHot,
	"topm_cold": topMCold,
	"tune":      tune,
}

// workDir holds everything a run writes, relative to the directory the
// benchmark is started from.
const workDir = ".bench_build/perfbench"

// endToEnd and perLayer are the metric names every workload reports,
// as BENCHMARK.json lists them.
var (
	endToEnd = []string{"setup_s", "peak_rss_mb", "cpu_us_per_op", "p50_ms", "p90_ms"}
	perLayer = []string{
		"transport.self_us", "service.self_us", "core.self_us", "client.p99_ms",
		"daemon.route_mean_us", "service.shed_ratio",
		"cache.entry_hit_ratio", "cache.bind_hit_ratio", "cache.topm_hit_ratio", "cache.topm_seeded",
		"tuning.encode_ns_per_config", "core.predict_ns_per_config", "ann.forward_ns_per_config",
		"core.topm_ms", "core.topm_scored_fraction", "core.load_ms", "registry.put_ms", "devsim.measure_us",
		"tune.gather_share", "tune.train_share", "tune.sweep_share", "tune.second_stage_share",
		"tune.job_overhead_share", "tune.measured_fraction", "tune.stage1_invalid_ratio", "tune.stage2_invalid",
		"quality.slowdown", "quality.no_valid_share",
		"go.alloc_bytes_per_op", "go.gc_cycles_per_kop", "trace.overhead_pct",
	}
)

// setUpRepeats is how many times a run sets up; setup_s is the median.
const setUpRepeats = 3

func main() { os.Exit(mainErr()) }

func mainErr() int {
	name := flag.String("workload", "", "workload to run: serve_hot, topm_cold or tune")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced invocation and prints the per-layer metrics")
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	r := &run{
		name: *name, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, dir: dir,
		e2e: metrics{}, layers: metrics{}, tr: newTracer(),
	}
	if err := drive(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.name, err)
		return 2
	}

	key, err := json.Marshal(r.runKey())
	if err != nil {
		panic(err) // a plain struct always encodes
	}
	fmt.Println("run_key", string(key))
	for _, line := range r.report {
		fmt.Println("report", line)
	}
	out := r.e2e
	if r.traced {
		out = r.layers
		path := filepath.Join(workDir, fmt.Sprintf("trace-%s-%d.json", r.name, r.seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 2
		}
		fmt.Println("spans", path)
	}
	want := endToEnd
	if r.traced {
		want = perLayer
	}
	if err := out.validate(want); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	correct := r.check.ok()
	fmt.Println(result{Correct: correct, Attempted: r.attempted, Failed: r.failed + r.check.wrongCount(), Metrics: out}.encode())
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run is one invocation's state and results.
type run struct {
	name   string
	seed   int64
	window time.Duration
	traced bool
	dir    string

	e2e    metrics // end-to-end metrics (printed with --trace 0)
	layers metrics // per-layer metrics (printed with --trace 1)
	report []string
	served []servedInfo
	tr     *tracer
	check  checker

	attempted, failed int
}

// reportf adds one "name value unit" line of the workload's own figures.
func (r *run) reportf(name string, v float64, unit string) {
	r.report = append(r.report, fmt.Sprintf("%s %s %s", name, strconv.FormatFloat(v, 'g', 6, 64), unit))
}

// rng derives an independent deterministic stream from the run seed.
func (r *run) rng(stream ...uint64) *rand.Rand {
	h := hashx.Combine(uint64(r.seed), 0x9e3779b97f4a7c15)
	for _, s := range stream {
		h = hashx.Combine(h, s)
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// setUp runs f setUpRepeats times, each in a fresh directory, records
// the median time as setup_s, and returns the last daemon (earlier ones
// are stopped). The caller stops the returned daemon.
func (r *run) setUp(f func(dir string) (*daemon, error)) (*daemon, error) {
	var secs []float64
	var d *daemon
	for i := 0; i < setUpRepeats; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		next, err := f(filepath.Join(r.dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		d = next
	}
	r.e2e.set("setup_s", "s", median(secs))
	return d, nil
}

// recordServed adds a served model to the run key.
func (r *run) recordServed(key service.ModelKey, m *core.Model) {
	r.served = append(r.served, servedInfo{Key: key.String(), WeightFormat: m.WeightFormat(), SpaceSize: m.Space().Size()})
}

// checker collects wrong answers and failed counter assertions.
type checker struct {
	mu     sync.Mutex
	wrong  int
	broken int
	notes  int
}

const maxNotes = 20

func (c *checker) note(format string, args ...any) {
	if c.notes < maxNotes {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	c.notes++
}

// wrongf records one wrong answer: a failed operation.
func (c *checker) wrongf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wrong++
	c.note(format, args...)
}

// assertf records a failed assertion about what the run measured.
func (c *checker) assertf(ok bool, format string, args ...any) {
	if ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.broken++
	c.note(format, args...)
}

func (c *checker) wrongCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wrong
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wrong == 0 && c.broken == 0
}

// sameAnswer reports whether two answers agree bit for bit.
func sameAnswer(a, b answer) bool {
	if len(a.idx) != len(b.idx) || len(a.secs) != len(b.secs) {
		return false
	}
	for i := range a.idx {
		if a.idx[i] != b.idx[i] || math.Float64bits(a.secs[i]) != math.Float64bits(b.secs[i]) {
			return false
		}
	}
	return true
}

// servedInfo is one served model in the run key.
type servedInfo struct {
	Key          string `json:"key"`
	WeightFormat int    `json:"weight_format"`
	SpaceSize    int64  `json:"space_size"`
}

// runKey identifies what a run's figures may be compared with.
func (r *run) runKey() any {
	goamd64 := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				goamd64 = s.Value
			}
		}
	}
	return struct {
		Workload   string       `json:"workload"`
		Seed       int64        `json:"seed"`
		Seconds    float64      `json:"seconds"`
		Traced     bool         `json:"traced"`
		Nproc      int          `json:"nproc"`
		GOMAXPROCS int          `json:"gomaxprocs"`
		GOARCH     string       `json:"goarch"`
		GOAMD64    string       `json:"goamd64,omitempty"`
		Go         string       `json:"go"`
		Models     []servedInfo `json:"models"`
	}{r.name, r.seed, r.window.Seconds(), r.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.GOARCH, goamd64, runtime.Version(), r.served}
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS starts a new peak-RSS interval: writing 5 to clear_refs
// resets VmHWM to the current RSS. Where that is refused the peak covers
// the whole process, which is still a peak.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// window brackets a measured interval: wall time, Go runtime
// allocation and GC counts, and the daemon's counters.
type window struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
	c     counters
}

// cpuTime is the CPU time this process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// openWindow starts a window from a collected heap and, where Linux
// allows it, a reset peak-RSS mark, so peak_rss_mb is the peak inside
// the window rather than a leftover of set-up.
func openWindow(c *http.Client, base string) (*window, error) {
	w := &window{}
	var err error
	if w.c, err = fetchCounters(c, base); err != nil {
		return nil, err
	}
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	runtime.ReadMemStats(&w.mem)
	w.cpu = cpuTime()
	w.start = time.Now()
	return w, nil
}

// windowStats is what happened inside a window.
type windowStats struct {
	elapsed    time.Duration
	allocBytes float64
	gcCycles   float64
	cpu        time.Duration
	peakRSS    float64 // MiB
	diff       counters
}

func (w *window) close(c *http.Client, base string) (windowStats, error) {
	ws := windowStats{elapsed: time.Since(w.start), cpu: cpuTime() - w.cpu, peakRSS: peakRSSMiB()}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	ws.allocBytes = float64(mem.TotalAlloc - w.mem.TotalAlloc)
	ws.gcCycles = float64(mem.NumGC - w.mem.NumGC)
	now, err := fetchCounters(c, base)
	if err != nil {
		return ws, err
	}
	ws.diff = now.since(w.c)
	return ws, nil
}

// setRuntimeLayers records the Go runtime's per-operation cost, the
// daemon's cache and shedding ratios, and the mean of the given route
// histograms' means over a window.
func (r *run) setRuntimeLayers(ws windowStats, ops int, routes ...string) {
	d := ws.diff
	r.layers.set("go.alloc_bytes_per_op", "B", ratio(ws.allocBytes, float64(ops)))
	r.layers.set("go.gc_cycles_per_kop", "count", ratio(1000*ws.gcCycles, float64(ops)))
	var means []float64
	for _, route := range routes {
		means = append(means, d.meanMicros(route))
	}
	r.layers.set("daemon.route_mean_us", "us", mean(means))
	hits, misses := d["mltuned_serve_cache_hits_total"], d["mltuned_serve_cache_misses_total"]
	r.layers.set("cache.entry_hit_ratio", "ratio", ratio(hits, hits+misses))
	hits, misses = d["mltuned_bind_memo_hits_total"], d["mltuned_bind_memo_misses_total"]
	r.layers.set("cache.bind_hit_ratio", "ratio", ratio(hits, hits+misses))
	r.layers.set("cache.topm_seeded", "count", d["mltuned_topm_seeded_total"])
	shed := 0.0
	reads := 0.0
	for k, v := range d {
		switch {
		case strings.HasPrefix(k, "mltuned_shed_total"), strings.HasPrefix(k, "mltuned_rpc_shed_total"):
			shed += v
		case strings.HasPrefix(k, "mltuned_http_requests_total"), strings.HasPrefix(k, "mltuned_rpc_requests_total"):
			reads += v
		}
	}
	r.layers.set("service.shed_ratio", "ratio", ratio(shed, reads))
}

// probeModel is one model the layer probes time at each public entry:
// the served (bound) view, the tail its schema encodes, and the
// registry model and file it comes from.
type probeModel struct {
	model  *core.Model
	parent *core.Model
	tail   []float64
	file   string
}

// probeLayers times the compute layers under the served models: feature
// encoding (internal/tuning), the batched forward pass (core.Model over
// internal/ann), persistence (core.LoadModelFile, Registry.Put) and
// device simulation (internal/devsim). Every workload runs it on its own
// models and devices.
func (r *run) probeLayers(models []probeModel, meas []*core.SimMeasurer) error {
	const nIdx, block = 4096, 16
	var encNs, predNs, loadMs, putMs, measUs []float64
	for i, pm := range models {
		space := pm.model.Space()
		rng := r.rng(0x1a7e5, uint64(i))
		idxs := make([]int64, nIdx)
		for j := range idxs {
			idxs[j] = rng.Int63n(space.Size())
		}
		schema := pm.model.Schema()
		buf := make([]float64, 0, schema.Dim())
		t0 := time.Now()
		for _, idx := range idxs {
			buf = schema.EncodeIndex(idx, pm.tail, buf[:0])
		}
		encNs = append(encNs, float64(time.Since(t0).Nanoseconds())/nIdx)

		s := pm.model.NewBatchScratch()
		dst := make([]float64, 0, block)
		t0 = time.Now()
		for lo := 0; lo < nIdx; lo += block {
			dst = pm.model.PredictIndices(idxs[lo:lo+block], s, dst[:0])
		}
		predNs = append(predNs, float64(time.Since(t0).Nanoseconds())/nIdx)

		if pm.file != "" {
			t0 = time.Now()
			if _, err := core.LoadModelFile(pm.file); err != nil {
				return err
			}
			loadMs = append(loadMs, time.Since(t0).Seconds()*1e3)
		}
		reg, err := service.OpenRegistry(filepath.Join(r.dir, fmt.Sprintf("probe-put-%d", i)))
		if err != nil {
			return err
		}
		t0 = time.Now()
		if err := reg.Put(service.ModelKey{Benchmark: space.Name(), Device: "probe"}, pm.parent); err != nil {
			return err
		}
		putMs = append(putMs, time.Since(t0).Seconds()*1e3)
	}
	for i, m := range meas {
		rng := r.rng(0xde75, uint64(i))
		space := m.Space()
		const calls = 2000
		t0 := time.Now()
		for j := 0; j < calls; j++ {
			m.Measure(bgCtx, space.At(rng.Int63n(space.Size()))) // invalid configurations cost a call too
		}
		measUs = append(measUs, time.Since(t0).Seconds()*1e6/calls)
	}
	enc, pred := mean(encNs), mean(predNs)
	r.layers.set("tuning.encode_ns_per_config", "ns", enc)
	r.layers.set("core.predict_ns_per_config", "ns", pred)
	r.layers.set("ann.forward_ns_per_config", "ns", pred-enc)
	r.layers.set("core.load_ms", "ms", mean(loadMs))
	r.layers.set("registry.put_ms", "ms", mean(putMs))
	r.layers.set("devsim.measure_us", "us", mean(measUs))
	return nil
}

// probeTopM times a cold full-space top-10 sweep on each model and
// records how much of the space the sweep scored exactly.
func (r *run) probeTopM(models []*core.Model) {
	var msec, scored []float64
	for _, m := range models {
		t0 := time.Now()
		res := m.TopMIncremental(10, nil)
		msec = append(msec, time.Since(t0).Seconds()*1e3)
		scored = append(scored, float64(res.Scored)/float64(m.Space().Size()))
	}
	r.layers.set("core.topm_ms", "ms", mean(msec))
	r.layers.set("core.topm_scored_fraction", "ratio", mean(scored))
}
