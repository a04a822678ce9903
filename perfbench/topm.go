package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/hashx"
)

// coldBases are the catalog GPUs the portable model never trained on;
// topm_cold asks about perturbed copies of them.
var coldBases = []string{devsim.NvidiaGTX980, devsim.NvidiaC2070}

const (
	minColdOps   = 40 // a top-M sweep takes about half a second: enough for a p90 with 4 samples beyond it
	coldChecks   = 3  // descriptors whose answer is re-computed with Model.TopM
	coldQuality  = 8  // descriptors whose answer is scored against the device's exhaustive optimum
	coldTraceOps = 3
)

// coldDescriptor is the i-th unseen device of a seed's stream: a catalog
// GPU the portable model was not trained on, with its clock, memory
// bandwidth and compute-unit count perturbed. The bases alternate, so
// every run asks about each equally often. Distinct (seed, i) give
// distinct names, so no two requests describe the same device.
func coldDescriptor(seed int64, i int) devsim.Descriptor {
	rng := rand.New(rand.NewSource(int64(hashx.Combine(uint64(seed), uint64(i)) >> 1)))
	base := coldBases[(i%2+2)%2]
	d := devsim.MustLookup(base).Descriptor()
	d.Name = fmt.Sprintf("%s perturbed %d/%d", base, seed, i)
	d.ClockGHz *= 0.8 + 0.4*rng.Float64()
	d.MemBandwidthGBs *= 0.8 + 0.4*rng.Float64()
	d.ComputeUnits = max(1, d.ComputeUnits+rng.Intn(7)-3)
	return d
}

// topMCold is the topm_cold workload: one caller asks for the top-10 of
// hardware the daemon has never seen. Every descriptor resolves
// ephemerally through the portable model, so every request pays a full
// sweep of the space and no cache can answer it.
func topMCold(r *run) error {
	hc := newHTTPClient(2)
	d, err := r.setUp(func(dir string) (*daemon, error) {
		models, err := trainServed(false)
		if err != nil {
			return nil, err
		}
		d, err := putAndServe(dir, models)
		if err != nil {
			return nil, err
		}
		hc.CloseIdleConnections()
		h := httpReader{c: hc, base: d.base}
		for i := -2; i < 0; i++ { // warm-up devices, outside the measured stream
			desc := coldDescriptor(r.seed, i)
			if _, err := h.topM(target{bench: servedBench, desc: &desc}, topMSize); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	defer d.stop()
	h := httpReader{c: hc, base: d.base}
	portable, err := d.reg.Get(portableKey)
	if err != nil {
		return err
	}
	r.recordServed(portableKey, portable)

	w, err := openWindow(hc, d.base)
	if err != nil {
		return err
	}
	var lat []time.Duration
	var answers []answer
	for i := 0; i < minColdOps || time.Since(w.start) < r.window; i++ {
		desc := coldDescriptor(r.seed, i)
		t0 := time.Now()
		ans, err := h.topM(target{bench: servedBench, desc: &desc}, topMSize)
		elapsed := time.Since(t0)
		r.attempted++
		answers = append(answers, ans)
		if err != nil {
			if r.failed == 0 {
				fmt.Fprintln(os.Stderr, "perfbench: top-M request failed:", err)
			}
			r.failed++
			continue
		}
		lat = append(lat, elapsed)
	}
	ws, err := w.close(hc, d.base)
	if err != nil {
		return err
	}

	// The ephemeral path must bypass every cache, and each request must
	// have reached the top-M route.
	memo := ws.diff["mltuned_topm_cache_hits_total"] + ws.diff["mltuned_topm_cache_misses_total"]
	r.check.assertf(memo == 0, "top-M memo saw %v lookups, want 0 on the ephemeral path", memo)
	route := ws.diff[httpRoute("GET /v1/topm")]
	r.check.assertf(route == float64(r.attempted), "GET /v1/topm counted %v requests, client sent %d", route, r.attempted)

	q, err := checkCold(r, portable, answers)
	if err != nil {
		return err
	}
	r.setQuality(q)
	lms := ms(lat)
	r.e2e.set("peak_rss_mb", "MiB", ws.peakRSS)
	r.e2e.set("cpu_us_per_op", "us", ratio(float64(ws.cpu.Microseconds()), float64(len(lat))))
	r.e2e.set("p50_ms", "ms", median(lms))
	r.e2e.set("p90_ms", "ms", percentile(lms, 0.9))
	r.reportf("http_rps", float64(len(lat))/ws.elapsed.Seconds(), "req/s")
	r.reportf("topm_p50_ms", median(lms), "ms")
	r.reportf("topm_p90_ms", percentile(lms, 0.9), "ms")
	r.reportf("topm_count", float64(len(lat)), "count")
	r.reportf("topm_hit_ratio", ratio(ws.diff["mltuned_topm_cache_hits_total"], float64(r.attempted)), "ratio")
	if !r.traced {
		return nil
	}

	r.setRuntimeLayers(ws, len(lat), counterKey("mltuned_http_request_duration_seconds", "route", "GET /v1/topm"))
	r.layers.set("cache.topm_hit_ratio", "ratio", ratio(ws.diff["mltuned_topm_cache_hits_total"], float64(r.attempted)))
	r.layers.set("client.p99_ms", "ms", percentile(lms, 0.99))

	// Re-issue a seeded sample of the requests at each entry: HTTP, the
	// service.Server method, and the sweep on the bound core.Model.
	svc := serviceReader{d.srv}
	rng := r.rng(0xc01d)
	var traced []time.Duration
	var bound []*core.Model
	var descs []devsim.Descriptor
	var sweepMs, scored []float64
	for n := 0; n < coldTraceOps; n++ {
		i := rng.Intn(len(answers))
		desc := coldDescriptor(r.seed, i)
		t := target{bench: servedBench, desc: &desc}
		req := r.tr.request()
		t0 := time.Now()
		outer, err := h.topM(t, topMSize)
		t1 := time.Now()
		r.tr.add(req, spanClient, "", t0, t1)
		traced = append(traced, t1.Sub(t0))
		t0 = time.Now()
		inner, serr := svc.topM(t, topMSize)
		r.tr.add(req, spanService, spanClient, t0, time.Now())
		if err != nil || serr != nil || !sameAnswer(inner, outer) {
			r.check.wrongf("traced top-M for %s: HTTP and service.Server disagree (%v, %v)", desc.Name, err, serr)
		}
		m, err := portable.WithDevice(deviceTail(desc))
		if err != nil {
			return err
		}
		t0 = time.Now()
		res := m.TopMIncremental(topMSize, nil)
		t1 = time.Now()
		r.tr.add(req, spanCore, spanService, t0, t1)
		if !sameAnswer(answerOf(res.Top), outer) {
			r.check.wrongf("traced top-M for %s: core.Model disagrees with HTTP", desc.Name)
		}
		bound, descs = append(bound, m), append(descs, desc)
		sweepMs = append(sweepMs, t1.Sub(t0).Seconds()*1e3)
		scored = append(scored, float64(res.Scored)/float64(m.Space().Size()))
	}
	r.layers.set("core.topm_ms", "ms", mean(sweepMs))
	r.layers.set("core.topm_scored_fraction", "ratio", mean(scored))
	r.layers.set("trace.overhead_pct", "%", 100*(median(ms(traced))/median(lms)-1))
	r.setSpanLayers()
	r.setTuneLayersAbsent()

	file, err := d.modelFile(portableKey)
	if err != nil {
		return err
	}
	b := bench.MustLookup(servedBench)
	var probes []probeModel
	var meas []*core.SimMeasurer
	for n, m := range bound[:2] {
		probes = append(probes, probeModel{model: m, parent: portable, tail: deviceTail(descs[n]), file: file})
		dev, err := devsim.New(descs[n])
		if err != nil {
			return err
		}
		sm, err := core.NewSimMeasurer(b, dev, bench.Size{}, 3)
		if err != nil {
			return err
		}
		meas = append(meas, sm)
	}
	return r.probeLayers(probes, meas)
}

// checkCold re-computes a seeded subset of the answers with
// WithDevice(desc).TopM(10), which must return the same configurations
// in the same order, and scores another subset against each device's
// exhaustive optimum, returning their quality.
func checkCold(r *run, portable *core.Model, answers []answer) (quality, error) {
	rng := r.rng(0xc4ec)
	for _, i := range rng.Perm(len(answers))[:min(coldChecks, len(answers))] {
		if answers[i].idx == nil {
			continue // a failed request, already counted
		}
		desc := coldDescriptor(r.seed, i)
		m, err := portable.WithDevice(deviceTail(desc))
		if err != nil {
			return quality{}, err
		}
		if !sameAnswer(answers[i], answerOf(m.TopM(topMSize))) {
			r.check.wrongf("top-M for %s differs from WithDevice(desc).TopM", desc.Name)
		}
	}
	b := bench.MustLookup(servedBench)
	var q quality
	for _, i := range rng.Perm(len(answers))[:min(coldQuality, len(answers))] {
		if answers[i].idx == nil {
			continue // a failed request, already counted
		}
		dev, err := devsim.New(coldDescriptor(r.seed, i))
		if err != nil {
			return q, err
		}
		m, err := core.NewSimMeasurer(b, dev, bench.Size{}, 3)
		if err != nil {
			return q, err
		}
		opt, err := optimum(m)
		if err != nil {
			return q, err
		}
		q.add(m, opt, answers[i].idx)
	}
	return q, nil
}
