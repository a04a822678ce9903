package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/service"
	"repro/internal/service/rpcclient"
)

type transport int

const (
	transportHTTP transport = iota
	transportRPC
)

func (tp transport) String() string {
	if tp == transportRPC {
		return "rpc"
	}
	return "http"
}

// The read mix of the serve workloads: each of serveConns callers sends
// predict-single, predict-batch and top-M requests 2 : 1 : 1.
const (
	serveConns  = 2
	batchSize   = 16
	topMSize    = 10
	recordEvery = 8 // every 8th answer per caller is kept for the checks
	traceOps    = 150
	warmFor     = 500 * time.Millisecond
)

type opKind int

const (
	opSingle opKind = iota
	opBatch
	opTopM
	numOps
)

var opNames = [numOps]string{"single", "batch", "topm"}

// servedTargets are the keys serve_hot reads: one answered by its exact
// model, one by the portable model bound through the bind memo.
var servedTargets = []target{
	{bench: servedBench, device: devsim.IntelI7},
	{bench: servedBench, device: devsim.NvidiaGTX980},
}

// readOp is one request of the mix.
type readOp struct {
	kind opKind
	t    int // index into servedTargets
	idxs []int64
}

func drawOp(rng *rand.Rand, size int64) readOp {
	op := readOp{t: rng.Intn(len(servedTargets))}
	switch rng.Intn(4) {
	case 0, 1:
		op.kind, op.idxs = opSingle, []int64{rng.Int63n(size)}
	case 2:
		op.kind, op.idxs = opBatch, make([]int64, batchSize)
		for i := range op.idxs {
			op.idxs[i] = rng.Int63n(size)
		}
	default:
		op.kind = opTopM
	}
	return op
}

func issue(rd reader, op readOp) (answer, error) {
	t := servedTargets[op.t]
	switch op.kind {
	case opSingle:
		return rd.predict(t, op.idxs[0])
	case opBatch:
		return rd.batch(t, op.idxs)
	}
	return rd.topM(t, topMSize)
}

type recorded struct {
	op  readOp
	ans answer
}

// loopStats is what a closed loop sent and got back.
type loopStats struct {
	lat     [numOps][]time.Duration
	sent    [numOps]int
	failed  int
	recs    []recorded
	elapsed time.Duration
	cpu     time.Duration // process CPU time, client and daemon together
}

func (ls *loopStats) add(o loopStats) {
	for k := range ls.lat {
		ls.lat[k] = append(ls.lat[k], o.lat[k]...)
		ls.sent[k] += o.sent[k]
	}
	ls.failed += o.failed
	ls.recs = append(ls.recs, o.recs...)
	ls.elapsed += o.elapsed
	ls.cpu += o.cpu
}

func (ls *loopStats) attempted() int { return ls.sent[opSingle] + ls.sent[opBatch] + ls.sent[opTopM] }

func (ls *loopStats) completed() int {
	return len(ls.lat[opSingle]) + len(ls.lat[opBatch]) + len(ls.lat[opTopM])
}

// closedLoop runs conns callers against rd for d; each sends its next
// request of the seeded mix only after the previous reply arrived.
func closedLoop(r *run, rd reader, conns int, d time.Duration, stream uint64) loopStats {
	size := bench.MustLookup(servedBench).Space().Size()
	per := make([]loopStats, conns)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng, st := r.rng(stream, uint64(w)), &per[w]
			for n := 0; time.Now().Before(deadline); n++ {
				op := drawOp(rng, size)
				t0 := time.Now()
				ans, err := issue(rd, op)
				lat := time.Since(t0)
				st.sent[op.kind]++
				if err != nil {
					if st.failed == 0 {
						fmt.Fprintf(os.Stderr, "perfbench: %s request failed: %v\n", opNames[op.kind], err)
					}
					st.failed++
					continue
				}
				st.lat[op.kind] = append(st.lat[op.kind], lat)
				if n%recordEvery == 0 {
					st.recs = append(st.recs, recorded{op, ans})
				}
			}
		}(w)
	}
	wg.Wait()
	all := loopStats{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	for _, st := range per {
		all.add(st)
	}
	return all
}

// subWindows is how many parts each transport's share of a serve_hot
// window is cut into (half a second each at --seconds 12). The parts of
// the two transports alternate, so both see the same host, and each
// figure is the median over a transport's parts, so a burst of
// interference from outside the benchmark moves a few parts, not the
// result.
const subWindows = 12

// serveFigures are one transport's figures over a serve_hot window.
type serveFigures struct {
	opsPerS, cpuPerOp float64
	p50, p90          [numOps]float64
}

// medianFigures takes each figure's median over the sub-windows.
func medianFigures(parts []loopStats) serveFigures {
	var f serveFigures
	var rate, cpu []float64
	var p50, p90 [numOps][]float64
	for _, p := range parts {
		rate = append(rate, float64(p.completed())/p.elapsed.Seconds())
		cpu = append(cpu, float64(p.cpu.Microseconds())/float64(p.completed()))
		for k := range p50 {
			lat := ms(p.lat[k])
			p50[k] = append(p50[k], median(lat))
			p90[k] = append(p90[k], percentile(lat, 0.9))
		}
	}
	f.opsPerS, f.cpuPerOp = median(rate), median(cpu)
	for k := range p50 {
		f.p50[k], f.p90[k] = median(p50[k]), median(p90[k])
	}
	return f
}

// servedModel is a served key's model as the registry serves it, with
// the device tail its encoder appends.
type servedModel struct {
	model *core.Model
	tail  []float64
}

// servedModels resolves servedTargets on the daemon's registry: the
// exact model itself, and the portable model bound to the catalog
// descriptor exactly as the daemon binds it.
func servedModels(d *daemon) ([]servedModel, error) {
	exact, err := d.reg.Get(exactKey)
	if err != nil {
		return nil, err
	}
	portable, err := d.reg.Get(portableKey)
	if err != nil {
		return nil, err
	}
	tail := deviceTail(devsim.MustLookup(servedTargets[1].device).Descriptor())
	bound, err := portable.WithDevice(tail)
	if err != nil {
		return nil, err
	}
	return []servedModel{{model: exact}, {model: bound, tail: tail}}, nil
}

// transports are serve_hot's two entry points, indexed by transport.
type transports [2]reader

func newTransports(d *daemon, hc *http.Client) (transports, *rpcclient.Client) {
	rc := rpcclient.New(d.rpcAddr, rpcclient.WithMaxIdle(serveConns))
	return transports{transportHTTP: httpReader{c: hc, base: d.base}, transportRPC: rpcReader{c: rc}}, rc
}

// other is the transport serve_hot checks tp's answers against.
func (tp transport) other() transport { return 1 - tp }

// serveHot is the serve_hot workload: known-device reads whose models,
// bindings and top-M answers are all cached after warm-up, so it
// measures transport, API core and per-configuration forward cost, and
// no sweeps. The same seeded mix runs over HTTP and over RPC in
// alternating sub-windows of one window.
func serveHot(r *run) error {
	hc := newHTTPClient(serveConns + 1)
	d, err := r.setUp(func(dir string) (*daemon, error) {
		models, err := trainServed(true)
		if err != nil {
			return nil, err
		}
		d, err := putAndServe(dir, models)
		if err != nil {
			return nil, err
		}
		hc.CloseIdleConnections()
		rds, rc := newTransports(d, hc)
		defer rc.Close()
		// Every top-M key first, so each later top-M is a memo hit.
		for _, t := range servedTargets {
			if _, err := rds[transportHTTP].topM(t, topMSize); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		for tp, rd := range rds {
			if ls := closedLoop(r, rd, serveConns, warmFor, 0x3a4+uint64(tp)); ls.failed > 0 {
				return nil, fmt.Errorf("warm-up over %s: %d requests failed", transport(tp), ls.failed)
			}
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	defer d.stop()
	rds, rc := newTransports(d, hc)
	defer rc.Close()
	models, err := servedModels(d)
	if err != nil {
		return err
	}
	for i, m := range models {
		r.recordServed(service.ModelKey{Benchmark: servedBench, Device: servedTargets[i].device}, m.model)
	}

	w, err := openWindow(hc, d.base)
	if err != nil {
		return err
	}
	var parts [len(rds)][]loopStats
	var ls [len(rds)]loopStats
	var peaks []float64 // peak RSS of each sub-window
	part := r.window / (2 * subWindows)
	for k := 0; k < subWindows; k++ {
		for tp, rd := range rds {
			resetPeakRSS()
			p := closedLoop(r, rd, serveConns, part, 0x5e7+uint64(2*k+tp))
			peaks = append(peaks, peakRSSMiB())
			parts[tp] = append(parts[tp], p)
			ls[tp].add(p)
		}
	}
	ws, err := w.close(hc, d.base)
	if err != nil {
		return err
	}
	for _, l := range ls {
		r.attempted += l.attempted()
		r.failed += l.failed
	}

	// What the window measured: every request reached the daemon's
	// route or method counters, and every top-M was a memo hit.
	routes := [len(rds)][numOps]string{
		transportHTTP: {httpRoute("GET /v1/predict"), httpRoute("POST /v1/predict"), httpRoute("GET /v1/topm")},
		transportRPC:  {rpcMethod("predict"), rpcMethod("predict_batch"), rpcMethod("topm")},
	}
	topms := 0.0
	for tp := range routes {
		for k, route := range routes[tp] {
			r.check.assertf(ws.diff[route] == float64(ls[tp].sent[k]),
				"%s: daemon counted %v requests, client sent %d", route, ws.diff[route], ls[tp].sent[k])
		}
		topms += float64(len(ls[tp].lat[opTopM]))
	}
	hits := ws.diff["mltuned_topm_cache_hits_total"]
	r.check.assertf(hits == topms && ws.diff["mltuned_topm_cache_misses_total"] == 0,
		"top-M memo: %v hits and %v misses for %v top-M answers, want all hits", hits, ws.diff["mltuned_topm_cache_misses_total"], topms)

	want := servedTopM(models)
	for tp := range rds {
		checkServed(r, ls[tp].recs, models, want, rds[transport(tp).other()])
	}
	q, err := servedQuality(want)
	if err != nil {
		return err
	}
	r.setQuality(q)

	// Each time figure is the geometric mean of the two transports'
	// figures, so a given relative change on either moves it by the same
	// amount. Peak RSS is the median of the sub-windows' peaks, so one
	// late garbage collection does not set it.
	var f [len(rds)]serveFigures
	for tp := range rds {
		f[tp] = medianFigures(parts[tp])
	}
	both := func(v func(serveFigures) float64) float64 {
		return geomean([]float64{v(f[transportHTTP]), v(f[transportRPC])})
	}
	r.e2e.set("peak_rss_mb", "MiB", median(peaks))
	r.e2e.set("cpu_us_per_op", "us", both(func(f serveFigures) float64 { return f.cpuPerOp }))
	r.e2e.set("p50_ms", "ms", both(func(f serveFigures) float64 { return f.p50[opSingle] }))
	r.e2e.set("p90_ms", "ms", both(func(f serveFigures) float64 { return f.p90[opSingle] }))
	for tp := range rds {
		name := transport(tp).String()
		r.reportf(name+"_rps", f[tp].opsPerS, "req/s")
		r.reportf(name+"_cpu_us_per_op", f[tp].cpuPerOp, "us")
		for k := opKind(0); k < numOps; k++ {
			r.reportf(fmt.Sprintf("%s_%s_p50_ms", name, opNames[k]), f[tp].p50[k], "ms")
			r.reportf(fmt.Sprintf("%s_%s_p90_ms", name, opNames[k]), f[tp].p90[k], "ms")
			r.reportf(fmt.Sprintf("%s_%s_count", name, opNames[k]), float64(len(ls[tp].lat[k])), "count")
		}
	}
	r.reportf("topm_hit_ratio", ratio(hits, topms), "ratio")
	if !r.traced {
		return nil
	}

	var all loopStats
	var p99 []float64
	for tp := range rds {
		all.add(ls[tp])
		p99 = append(p99, percentile(ms(ls[tp].lat[opSingle]), 0.99))
	}
	r.setRuntimeLayers(ws, all.completed(),
		counterKey("mltuned_http_request_duration_seconds", "route", "GET /v1/predict"),
		counterKey("mltuned_rpc_request_duration_seconds", "method", "predict"))
	r.layers.set("cache.topm_hit_ratio", "ratio", ratio(hits, float64(all.sent[opTopM])))
	r.layers.set("client.p99_ms", "ms", geomean(p99))
	var overhead []float64
	kinds := map[int]opKind{}
	via := map[int]transport{}
	for tp, rd := range rds {
		traced := traceServe(r, rd, serviceReader{d.srv}, models, transport(tp), kinds, via)
		overhead = append(overhead, median(ms(traced))/median(ms(ls[tp].lat[opSingle])))
	}
	r.layers.set("trace.overhead_pct", "%", 100*(geomean(overhead)-1))
	r.setSpanLayers()
	r.reportSelfByKind(kinds, via)
	r.setTuneLayersAbsent()

	exactFile, err := d.modelFile(exactKey)
	if err != nil {
		return err
	}
	portableFile, err := d.modelFile(portableKey)
	if err != nil {
		return err
	}
	portable, err := d.reg.Get(portableKey)
	if err != nil {
		return err
	}
	b := bench.MustLookup(servedBench)
	var meas []*core.SimMeasurer
	for _, t := range servedTargets {
		m, err := core.NewSimMeasurer(b, devsim.MustLookup(t.device), bench.Size{}, 3)
		if err != nil {
			return err
		}
		meas = append(meas, m)
	}
	probes := []probeModel{
		{model: models[0].model, parent: models[0].model, file: exactFile},
		{model: models[1].model, parent: portable, tail: models[1].tail, file: portableFile},
	}
	if err := r.probeLayers(probes, meas); err != nil {
		return err
	}
	r.probeTopM([]*core.Model{models[0].model, models[1].model})
	return nil
}

// servedTopM is each served model's Model.TopM(10), which every served
// top-M answer must equal.
func servedTopM(models []servedModel) []answer {
	want := make([]answer, len(models))
	for i, m := range models {
		want[i] = answerOf(m.model.TopM(topMSize))
	}
	return want
}

// checkServed checks the answers recorded over one transport outside the
// measured window: predictions bit-identical to core.Model.PredictIndices
// on the served model, top-M identical to want, and the other transport
// answering the same requests identically.
func checkServed(r *run, recs []recorded, models []servedModel, want []answer, other reader) {
	for i, rec := range recs {
		m := models[rec.op.t]
		switch rec.op.kind {
		case opTopM:
			if !sameAnswer(rec.ans, want[rec.op.t]) {
				r.check.wrongf("top-M for %s differs from Model.TopM", servedTargets[rec.op.t].device)
			}
		default:
			secs := m.model.PredictIndices(rec.op.idxs, m.model.NewBatchScratch(), nil)
			if !sameAnswer(rec.ans, answer{idx: rec.op.idxs, secs: secs}) {
				r.check.wrongf("%s %v for %s differs from Model.PredictIndices", opNames[rec.op.kind], rec.op.idxs, servedTargets[rec.op.t].device)
			}
		}
		if i < 256 {
			ans, err := issue(other, rec.op)
			if err != nil || !sameAnswer(ans, rec.ans) {
				r.check.wrongf("HTTP and RPC disagree on %s %v (%v)", opNames[rec.op.kind], rec.op.idxs, err)
			}
		}
	}
}

// servedQuality scores the served top-M lists against each served
// device's exhaustive optimum.
func servedQuality(want []answer) (quality, error) {
	b := bench.MustLookup(servedBench)
	var q quality
	for i, t := range servedTargets {
		m, err := core.NewSimMeasurer(b, devsim.MustLookup(t.device), bench.Size{}, 3)
		if err != nil {
			return q, err
		}
		opt, err := optimum(m)
		if err != nil {
			return q, err
		}
		q.add(m, opt, want[i].idx)
	}
	return q, nil
}

func answerOf(top []core.Predicted) answer {
	a := answer{idx: make([]int64, len(top)), secs: make([]float64, len(top))}
	for i, p := range top {
		a.idx[i], a.secs[i] = p.Index, p.Seconds
	}
	return a
}

// traceServe re-issues a seeded sample of the mix at each entry: the
// transport, the service.Server method, the core.Model call on the
// served model (top-M is a memo hit, so it has no core call), and the
// feature encoder. It records each traced request's type in kind and
// its transport, tp, in via, and returns the traced single-predict
// round trips.
func traceServe(r *run, rd reader, svc reader, models []servedModel, tp transport, kind map[int]opKind, via map[int]transport) []time.Duration {
	size := bench.MustLookup(servedBench).Space().Size()
	singles := make([][]time.Duration, serveConns)
	kinds := make([]map[int]opKind, serveConns)
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := r.rng(0x77ace, uint64(tp), uint64(w))
			kinds[w] = map[int]opKind{}
			scratch := make([]*core.BatchScratch, len(models))
			for i, m := range models {
				scratch[i] = m.model.NewBatchScratch()
			}
			for n := 0; n < traceOps; n++ {
				op := drawOp(rng, size)
				req := r.tr.request()
				kinds[w][req] = op.kind
				t0 := time.Now()
				outer, err := issue(rd, op)
				t1 := time.Now()
				r.tr.add(req, spanClient, "", t0, t1)
				if err != nil {
					r.check.wrongf("traced %s failed: %v", opNames[op.kind], err)
					continue
				}
				if op.kind == opSingle {
					singles[w] = append(singles[w], t1.Sub(t0))
				}
				t0 = time.Now()
				inner, err := issue(svc, op)
				r.tr.add(req, spanService, spanClient, t0, time.Now())
				if err != nil || !sameAnswer(inner, outer) {
					r.check.wrongf("service.Server disagrees with the transport on %s (%v)", opNames[op.kind], err)
				}
				if op.kind == opTopM {
					continue
				}
				m := models[op.t]
				t0 = time.Now()
				secs := m.model.PredictIndices(op.idxs, scratch[op.t], nil)
				r.tr.add(req, spanCore, spanService, t0, time.Now())
				if !sameAnswer(answer{idx: op.idxs, secs: secs}, outer) {
					r.check.wrongf("core.Model disagrees with the transport on %s", opNames[op.kind])
				}
				schema := m.model.Schema()
				buf := make([]float64, 0, schema.Dim())
				t0 = time.Now()
				for _, idx := range op.idxs {
					buf = schema.EncodeIndex(idx, m.tail, buf[:0])
				}
				r.tr.add(req, spanEncode, spanCore, t0, time.Now())
			}
		}(w)
	}
	wg.Wait()
	var all []time.Duration
	for w := range singles {
		all = append(all, singles[w]...)
		for req, k := range kinds[w] {
			kind[req], via[req] = k, tp
		}
	}
	return all
}

// setSpanLayers records each layer's mean self time from the spans.
func (r *run) setSpanLayers() {
	r.layers.set("transport.self_us", "us", r.tr.meanSelfMicros(spanClient, nil))
	r.layers.set("service.self_us", "us", r.tr.meanSelfMicros(spanService, nil))
	r.layers.set("core.self_us", "us", r.tr.meanSelfMicros(spanCore, nil))
}

// reportSelfByKind reports each layer's mean self time per request type,
// as <layer>.self_us.<type> lines, the transport layer once per
// transport under its name.
func (r *run) reportSelfByKind(kind map[int]opKind, via map[int]transport) {
	for k := opKind(0); k < numOps; k++ {
		for tp := transportHTTP; tp <= transportRPC; tp++ {
			keep := func(req int) bool { return kind[req] == k && via[req] == tp }
			r.reportf(fmt.Sprintf("%s.self_us.%s", tp, opNames[k]), r.tr.meanSelfMicros(spanClient, keep), "us")
		}
		keep := func(req int) bool { return kind[req] == k }
		r.reportf("service.self_us."+opNames[k], r.tr.meanSelfMicros(spanService, keep), "us")
		if k != opTopM { // a memo hit makes no core call
			r.reportf("core.self_us."+opNames[k], r.tr.meanSelfMicros(spanCore, keep), "us")
		}
	}
}
