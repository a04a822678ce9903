package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/hashx"
	"repro/internal/service"
)

// tuneKeys are the keys the tune workload tunes, with the same N, M and
// paper-default model on every run. The stereo job sweeps the largest
// space (2.36M configurations); the AMD raycasting job finds no valid
// configuration on about half the seeds, which the workload reports as
// quality, not as a failed operation.
var tuneKeys = []service.ModelKey{
	{Benchmark: "convolution", Device: devsim.IntelI7},
	{Benchmark: "raycasting", Device: devsim.AMD7970},
	{Benchmark: "stereo", Device: devsim.NvidiaK40},
}

// tunePasses is how many times a run tunes every key, each time with
// another seed, so the job latency percentiles rest on more than one job
// per key; a later pass re-tunes and replaces the key's model.
const tunePasses = 2

// tuneJobs is the job list: every key once per pass.
var tuneJobs = func() []service.ModelKey {
	var jobs []service.ModelKey
	for range tunePasses {
		jobs = append(jobs, tuneKeys...)
	}
	return jobs
}()

const (
	tuneN     = 500
	tuneM     = 50
	pollEvery = 20 * time.Millisecond
	followUps = 200 // follow-up predicts on the tuned keys per phase of the traced run
)

// jobSeed is job i's tuning seed, derived from the run seed.
func jobSeed(seed int64, i int) int64 {
	return int64(hashx.Combine(uint64(seed), uint64(0x7e4e+i))>>33) + 1
}

func jobSpec(key service.ModelKey, n, m int, seed int64) service.JobSpec {
	return service.JobSpec{Kind: service.KindTune, Benchmark: key.Benchmark, Device: key.Device,
		Strategy: "ml", TrainingSamples: n, SecondStage: m, Seed: seed}
}

// runJob submits one tuning job over HTTP and polls it to a terminal
// state.
func runJob(hc *http.Client, base string, spec service.JobSpec) (*service.JobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var st service.JobStatus
	if err := doJSON(hc, req, &st); err != nil {
		return nil, fmt.Errorf("submitting %s: %w", spec.Key(), err)
	}
	// A cursor past any event keeps polls from shipping the event log.
	poll := base + "/v1/jobs/" + url.PathEscape(st.ID) + "?after=" + strconv.Itoa(1<<30)
	for !st.State.Done() {
		time.Sleep(pollEvery)
		req, err := http.NewRequest(http.MethodGet, poll, nil)
		if err != nil {
			return nil, err
		}
		var jw service.JobWithEvents
		if err := doJSON(hc, req, &jw); err != nil {
			return nil, fmt.Errorf("polling %s: %w", spec.Key(), err)
		}
		st = jw.JobStatus
	}
	return &st, nil
}

// tune is the tune workload: the daemon's write path. Tuning jobs run
// one at a time over HTTP and are polled to completion; each gathers
// devsim measurements, trains the ensemble, sweeps the full space,
// measures the second stage, and Puts the model.
func tune(r *run) error {
	hc := newHTTPClient(2)
	d, err := r.setUp(func(dir string) (*daemon, error) {
		d, err := startDaemon(dir)
		if err != nil {
			return nil, err
		}
		hc.CloseIdleConnections()
		st, err := runJob(hc, d.base, jobSpec(tuneJobs[0], 50, 5, 1))
		if err != nil || st.State != service.JobSucceeded {
			return nil, fmt.Errorf("warm-up job: %v %v", st, err)
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	defer d.stop()

	w, err := openWindow(hc, d.base)
	if err != nil {
		return err
	}
	starts := make([]time.Time, len(tuneJobs))
	lat := make([]time.Duration, len(tuneJobs))
	jobs := make([]*service.JobStatus, len(tuneJobs))
	for i, key := range tuneJobs {
		starts[i] = time.Now()
		jobs[i], err = runJob(hc, d.base, jobSpec(key, tuneN, tuneM, jobSeed(r.seed, i)))
		lat[i] = time.Since(starts[i])
		if err != nil {
			return err
		}
	}
	ws, err := w.close(hc, d.base)
	if err != nil {
		return err
	}
	r.attempted = len(tuneJobs)
	r.check.assertf(ws.diff[httpRoute("POST /v1/jobs")] == float64(len(tuneJobs)),
		"POST /v1/jobs counted %v requests, client sent %d", ws.diff[httpRoute("POST /v1/jobs")], len(tuneJobs))
	r.check.assertf(ws.diff["mltuned_jobs_submitted_total"] == float64(len(tuneJobs)),
		"daemon counted %v submitted jobs, client submitted %d", ws.diff["mltuned_jobs_submitted_total"], len(tuneJobs))

	// Each key's device and exhaustive optimum, the base of the jobs'
	// slowdown; job i tunes tuneKeys[i%len(tuneKeys)].
	meas := make([]*core.SimMeasurer, len(tuneKeys))
	opt := make([]float64, len(tuneKeys))
	for i, key := range tuneKeys {
		if meas[i], err = core.NewSimMeasurer(bench.MustLookup(key.Benchmark), devsim.MustLookup(key.Device), bench.Size{}, 3); err != nil {
			return err
		}
		if opt[i], err = optimum(meas[i]); err != nil {
			return err
		}
	}

	// A job that fails or saves no model is a failed operation. A job
	// whose second stage measured only invalid configurations succeeds
	// with no configuration found (the paper's "no prediction at all"):
	// that is the tuner's answer, counted in quality.no_valid_share. A
	// found configuration must be valid, and the tuned key must serve.
	h := httpReader{c: hc, base: d.base}
	var q quality
	for i, st := range jobs {
		key := tuneJobs[i]
		if st.State != service.JobSucceeded || st.Outcome == nil || !st.Outcome.ModelSaved {
			r.failed++
			r.report = append(r.report, fmt.Sprintf("job_failed %s state=%s error=%q", key, st.State, st.Error))
			continue
		}
		r.reportf(fmt.Sprintf("job%d_s", i), lat[i].Seconds(), "s") // jobs in run-key order
		q.lists++
		idx := int64(0) // any configuration: the follow-up only checks the key serves
		if !st.Outcome.Found {
			q.noValid++
			r.reportf(fmt.Sprintf("job%d_found", i), 0, "count")
		} else {
			m := meas[i%len(tuneKeys)]
			cfg, err := m.Space().FromMap(st.Outcome.Best)
			if err != nil {
				r.check.wrongf("%s: best %v is not a configuration: %v", key, st.Outcome.Best, err)
				continue
			}
			s, err := slowdownOf(m, opt[i%len(tuneKeys)], []int64{cfg.Index()})
			if err != nil {
				r.check.wrongf("%s: best %v is invalid on the device: %v", key, st.Outcome.Best, err)
				continue
			}
			q.slowdowns = append(q.slowdowns, s)
			idx = cfg.Index()
			r.reportf(fmt.Sprintf("job%d_slowdown", i), s, "ratio")
		}
		if _, err := h.predict(target{bench: key.Benchmark, device: key.Device}, idx); err != nil {
			r.check.wrongf("%s: follow-up predict failed: %v", key, err)
		}
	}
	r.setQuality(q)
	for _, key := range tuneKeys {
		m, err := d.reg.Get(key)
		if err != nil {
			return err
		}
		r.recordServed(key, m)
	}
	lms := ms(lat)
	r.e2e.set("peak_rss_mb", "MiB", ws.peakRSS)
	r.e2e.set("cpu_us_per_op", "us", ratio(float64(ws.cpu.Microseconds()), float64(len(tuneJobs))))
	r.e2e.set("p50_ms", "ms", median(lms))
	r.e2e.set("p90_ms", "ms", percentile(lms, 0.9))
	r.reportf("tune_s", ws.elapsed.Seconds(), "s")
	if !r.traced {
		return nil
	}

	r.setRuntimeLayers(ws, len(tuneJobs), counterKey("mltuned_job_duration_seconds", "kind", "tune"))
	r.layers.set("cache.topm_hit_ratio", "ratio", 0)
	r.layers.set("client.p99_ms", "ms", percentile(lms, 0.99))
	if err := traceTune(r, jobs, starts, lat); err != nil {
		return err
	}

	// Tracing overhead on the tuned keys' read path: the same follow-up
	// predicts untraced, then traced with their service and core calls.
	conv, err := d.reg.Get(tuneJobs[0])
	if err != nil {
		return err
	}
	size := conv.Space().Size()
	t := target{bench: tuneJobs[0].Benchmark, device: tuneJobs[0].Device}
	rng := r.rng(0xf011)
	var plain, traced []float64
	for n := 0; n < followUps; n++ {
		t0 := time.Now()
		if _, err := h.predict(t, rng.Int63n(size)); err != nil {
			r.check.wrongf("follow-up predict: %v", err)
		}
		plain = append(plain, time.Since(t0).Seconds())
	}
	svc := serviceReader{d.srv}
	scratch := conv.NewBatchScratch()
	for n := 0; n < followUps; n++ {
		idx := rng.Int63n(size)
		t0 := time.Now()
		outer, err := h.predict(t, idx)
		traced = append(traced, time.Since(t0).Seconds())
		inner, serr := svc.predict(t, idx)
		secs := conv.PredictIndices([]int64{idx}, scratch, nil)
		if err != nil || serr != nil || !sameAnswer(outer, inner) || !sameAnswer(outer, answer{idx: []int64{idx}, secs: secs}) {
			r.check.wrongf("follow-up predict %d: layers disagree (%v, %v)", idx, err, serr)
		}
	}
	r.layers.set("trace.overhead_pct", "%", 100*(median(traced)/median(plain)-1))

	file, err := d.modelFile(tuneJobs[0])
	if err != nil {
		return err
	}
	if err := r.probeLayers([]probeModel{{model: conv, parent: conv, file: file}}, meas); err != nil {
		return err
	}
	r.probeTopM([]*core.Model{conv})
	return nil
}

// traceTune re-issues every job in process: core.Session.Run of the same
// spec, with a timestamping observer splitting it into its stages, then
// Registry.Put of the model into a scratch registry. The in-process
// result must equal the daemon's.
func traceTune(r *run, jobs []*service.JobStatus, starts []time.Time, lat []time.Duration) error {
	reg, err := service.OpenRegistry(filepath.Join(r.dir, "trace-registry"))
	if err != nil {
		return err
	}
	var runWall, jobWall time.Duration
	var measured, attempts, invalid1 float64
	stage2 := 0
	for i, key := range tuneJobs {
		m, err := core.NewSimMeasurer(bench.MustLookup(key.Benchmark), devsim.MustLookup(key.Device), bench.Size{}, 3)
		if err != nil {
			return err
		}
		seed := jobSeed(r.seed, i)
		opts := core.Options{TrainingSamples: tuneN, SecondStage: tuneM, Seed: seed, Model: core.DefaultModelConfig(seed)}
		req := r.tr.request()
		stageStart := map[string]time.Time{}
		var trainEnd time.Time
		observe := func(ev core.Event) {
			now := time.Now()
			switch ev.Kind {
			case core.EventStageStarted:
				stageStart[ev.Stage] = now
				if ev.Stage == "second-stage" && !trainEnd.IsZero() {
					r.tr.add(req, "core.sweep", spanCore, trainEnd, now)
				}
			case core.EventStageFinished:
				r.tr.add(req, "core."+ev.Stage, spanCore, stageStart[ev.Stage], now)
				if ev.Stage == "train" {
					trainEnd = now
				}
			}
		}
		sess, err := core.NewSession(m, opts, core.WithObserver(observe))
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := sess.Run(bgCtx, "ml")
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("in-process %s: %w", key, err)
		}
		if err := reg.Put(key, res.Model); err != nil {
			return err
		}
		t2 := time.Now()
		r.tr.add(req, spanClient, "", starts[i], starts[i].Add(lat[i]))
		r.tr.add(req, spanService, spanClient, t0, t2)
		r.tr.add(req, spanCore, spanService, t0, t1)
		runWall += t1.Sub(t0)
		jobWall += lat[i]

		st := jobs[i]
		if st.Outcome != nil && (res.Found != st.Outcome.Found || res.Found && !maps.Equal(res.Best.Map(), st.Outcome.Best)) {
			r.check.wrongf("%s: daemon job and in-process Session.Run chose different configurations", key)
		}
		measured += res.MeasuredFraction
		attempts += float64(res.Attempts)
		invalid1 += float64(res.InvalidTrain)
		stage2 += res.InvalidSecond
	}
	// share is a stage's part of the Session.Run wall time.
	share := func(stage string) float64 {
		sum := time.Duration(0)
		for _, d := range r.tr.durations("core." + stage) {
			sum += d
		}
		return ratio(sum.Seconds(), runWall.Seconds())
	}
	r.layers.set("tune.gather_share", "ratio", share("gather"))
	r.layers.set("tune.train_share", "ratio", share("train"))
	r.layers.set("tune.sweep_share", "ratio", share("sweep"))
	r.layers.set("tune.second_stage_share", "ratio", share("second-stage"))
	r.layers.set("tune.job_overhead_share", "ratio", ratio((jobWall-runWall).Seconds(), jobWall.Seconds()))
	r.layers.set("tune.measured_fraction", "ratio", measured/float64(len(tuneJobs)))
	r.layers.set("tune.stage1_invalid_ratio", "ratio", ratio(invalid1, attempts))
	r.layers.set("tune.stage2_invalid", "count", float64(stage2))
	r.setSpanLayers()
	return nil
}

// setTuneLayersAbsent records the tuning-pipeline layer ratios of a
// workload that runs no tuning job.
func (r *run) setTuneLayersAbsent() {
	for _, name := range []string{"tune.gather_share", "tune.train_share", "tune.sweep_share",
		"tune.second_stage_share", "tune.job_overhead_share", "tune.measured_fraction",
		"tune.stage1_invalid_ratio"} {
		r.layers.set(name, "ratio", 0)
	}
	r.layers.set("tune.stage2_invalid", "count", 0)
}
