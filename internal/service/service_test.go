package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/devsim"
)

// devQ is the e2e test's device name, escaped for query strings (device
// names contain spaces).
var devQ = url.QueryEscape(devsim.IntelI7)

func TestModelKeyFileNameRoundTrip(t *testing.T) {
	keys := []ModelKey{
		{Benchmark: "convolution", Device: devsim.NvidiaK40},
		{Benchmark: "stereo", Device: devsim.IntelI7},
		{Benchmark: "weird@bench", Device: "dev/with spaces+plus"},
	}
	for _, k := range keys {
		name := k.fileName()
		if strings.ContainsAny(name, "/ ") {
			t.Errorf("%v: file name %q contains separators or spaces", k, name)
		}
		got, err := keyFromFileName(name)
		if err != nil {
			t.Errorf("%v: %v", k, err)
			continue
		}
		if got != k {
			t.Errorf("round trip %v -> %q -> %v", k, name, got)
		}
	}
	for _, bad := range []string{"noext", "noat.mlt", "%zz@x.mlt", "@dev.mlt"} {
		if _, err := keyFromFileName(bad); err == nil {
			t.Errorf("%q: accepted", bad)
		}
	}
}

// trainTinyModel fits a fast model to a handful of simulated
// measurements; registry tests need real, loadable artifacts.
func trainTinyModel(t *testing.T, seed int64) *core.Model {
	t.Helper()
	b := bench.MustLookup("convolution")
	m, err := core.NewSimMeasurer(b, devsim.MustLookup(devsim.IntelI7), bench.Size{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var samples []core.Sample
	for _, cfg := range b.Space().Sample(rng, 60) {
		secs, err := m.Measure(context.Background(), cfg)
		if err != nil {
			continue
		}
		samples = append(samples, core.Sample{Config: cfg, Seconds: secs})
	}
	mc := core.DefaultModelConfig(seed)
	mc.Ensemble.K = 2
	mc.Ensemble.Hidden = 6
	mc.Ensemble.Train.Epochs = 200
	model, err := core.TrainModel(b.Space(), samples, nil, mc)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func TestRegistryPutGetListReload(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 0 {
		t.Fatalf("fresh registry has %d models", reg.Len())
	}
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	if _, err := reg.Get(key); err == nil {
		t.Fatal("empty registry served a model")
	}
	model := trainTinyModel(t, 11)
	if err := reg.Put(key, model); err != nil {
		t.Fatal(err)
	}
	got, err := reg.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if got != model {
		t.Error("Put did not cache the model in memory")
	}
	list := reg.List()
	if len(list) != 1 || !list[0].Loaded || list[0].Benchmark != "convolution" {
		t.Errorf("listing %+v", list)
	}

	// A second registry over the same directory — the restart case —
	// must lazily serve the same model bit-identically.
	reg2, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg2.List(); len(got) != 1 || got[0].Loaded {
		t.Fatalf("restart listing %+v (model should not be loaded yet)", got)
	}
	loaded, err := reg2.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	cfg := model.Space().At(1234)
	if want, got := model.Predict(cfg, model.NewScratch()),
		loaded.Predict(loaded.Space().At(1234), loaded.NewScratch()); want != got {
		t.Errorf("reloaded prediction %v, want %v", got, want)
	}

	// Reload drops slots whose files disappeared and sweeps orphaned
	// Put temp files left by a crash.
	orphan := filepath.Join(dir, ".tmp-12345.mlt")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, key.fileName())); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get(key); err == nil {
		t.Error("registry served a model whose file was removed and reloaded away")
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file not swept by Reload: %v", err)
	}
}

// newTestServer builds a Server over the registry, failing the test on
// construction errors.
func newTestServer(t *testing.T, reg *Registry, workers, backlog int, opts ...Option) *Server {
	t.Helper()
	srv, err := New(reg, workers, backlog, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// jget GETs path and decodes the JSON body into out, asserting the
// status code.
func jget(t *testing.T, client *http.Client, base, path string, wantCode int, out any) {
	t.Helper()
	resp, err := client.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
}

func postJob(t *testing.T, client *http.Client, base string, spec map[string]any, wantCode int) JobStatus {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("POST /v1/jobs: status %d, want %d", resp.StatusCode, wantCode)
	}
	var st JobStatus
	if wantCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func waitForJob(t *testing.T, client *http.Client, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var st struct {
			JobStatus
			Events []EventRecord `json:"events"`
		}
		jget(t, client, base, "/v1/jobs/"+id, http.StatusOK, &st)
		if st.State.Done() {
			return st.JobStatus
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobStatus{}
}

func TestServiceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, reg, 2, 8)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// Submitting garbage fails fast with a 400, not a doomed job.
	postJob(t, client, ts.URL, map[string]any{"benchmark": "fft", "device": devsim.IntelI7}, http.StatusBadRequest)
	postJob(t, client, ts.URL, map[string]any{"benchmark": "convolution", "device": "TPU"}, http.StatusBadRequest)
	postJob(t, client, ts.URL, map[string]any{"benchmark": "convolution", "device": devsim.IntelI7,
		"strategy": "annealing"}, http.StatusBadRequest)

	// Predict before any model exists: 404.
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&device="+devQ+"&index=7",
		http.StatusNotFound, nil)

	// Submit a real (small) tuning job and poll it to completion.
	spec := map[string]any{
		"benchmark": "convolution", "device": devsim.IntelI7,
		"training_samples": 30, "second_stage": 8, "seed": 42,
		"ensemble_k": 2, "hidden": 6, "epochs": 200,
	}
	st := postJob(t, client, ts.URL, spec, http.StatusAccepted)
	if st.ID == "" || st.State != JobQueued && st.State != JobRunning {
		t.Fatalf("submission status %+v", st)
	}
	final := waitForJob(t, client, ts.URL, st.ID)
	if final.State != JobSucceeded {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	if final.Outcome == nil || !final.Outcome.Found || !final.Outcome.ModelSaved {
		t.Fatalf("outcome %+v", final.Outcome)
	}

	// The job must have streamed observer events, incrementally pollable.
	var withEvents struct {
		JobStatus
		Events []EventRecord `json:"events"`
	}
	jget(t, client, ts.URL, "/v1/jobs/"+st.ID, http.StatusOK, &withEvents)
	if len(withEvents.Events) == 0 {
		t.Fatal("no observer events recorded")
	}
	stages := map[string]bool{}
	for _, ev := range withEvents.Events {
		stages[ev.Stage] = true
	}
	if !stages["gather"] || !stages["train"] || !stages["second-stage"] {
		t.Errorf("event stages %v missing a tuner stage", stages)
	}
	lastSeq := withEvents.Events[len(withEvents.Events)-1].Seq
	var tail struct {
		Events []EventRecord `json:"events"`
	}
	jget(t, client, ts.URL, fmt.Sprintf("/v1/jobs/%s?after=%d", st.ID, lastSeq-1), http.StatusOK, &tail)
	if len(tail.Events) != 1 || tail.Events[0].Seq != lastSeq {
		t.Errorf("incremental poll after %d returned %d events", lastSeq-1, len(tail.Events))
	}

	// The trained model is on disk in the registry directory.
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	if _, err := os.Stat(filepath.Join(dir, key.fileName())); err != nil {
		t.Fatalf("model file missing: %v", err)
	}

	// The first server answers predict and top-M from the cached model.
	var pred struct {
		Index   int64          `json:"index"`
		Config  map[string]int `json:"config"`
		Seconds float64        `json:"seconds"`
	}
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&device="+devQ+"&index=7",
		http.StatusOK, &pred)
	if pred.Index != 7 || pred.Seconds <= 0 {
		t.Fatalf("prediction %+v", pred)
	}
	// The same configuration addressed by its parameter values must
	// agree with the index form.
	var byParams struct {
		Index   int64   `json:"index"`
		Seconds float64 `json:"seconds"`
	}
	params := ""
	for name, v := range pred.Config {
		params += fmt.Sprintf("&c.%s=%d", name, v)
	}
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&device="+devQ+params,
		http.StatusOK, &byParams)
	if byParams.Index != pred.Index || byParams.Seconds != pred.Seconds {
		t.Errorf("by-params prediction %+v, by-index %+v", byParams, pred)
	}

	var top struct {
		M   int `json:"m"`
		Top []struct {
			Index   int64   `json:"index"`
			Seconds float64 `json:"seconds"`
		} `json:"top"`
	}
	jget(t, client, ts.URL, "/v1/topm?benchmark=convolution&device="+devQ+"&m=5",
		http.StatusOK, &top)
	if top.M != 5 || len(top.Top) != 5 {
		t.Fatalf("top-M response %+v", top)
	}
	for i := 1; i < len(top.Top); i++ {
		a, b := top.Top[i-1], top.Top[i]
		if a.Seconds > b.Seconds || a.Seconds == b.Seconds && a.Index >= b.Index {
			t.Errorf("top-M not in (seconds, index) order at %d: %+v %+v", i, a, b)
		}
	}

	// --- Daemon restart: a fresh registry + server over the same
	// directory must serve identical answers from the persisted file. ---
	reg2, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := newTestServer(t, reg2, 1, 2)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	var listing struct {
		ResolutionOrder []string    `json:"resolution_order"`
		Models          []ModelInfo `json:"models"`
	}
	jget(t, ts2.Client(), ts2.URL, "/v1/models", http.StatusOK, &listing)
	if len(listing.Models) != 1 || listing.Models[0].Loaded {
		t.Fatalf("restarted registry listing %+v", listing.Models)
	}
	if len(listing.ResolutionOrder) == 0 {
		t.Fatal("listing does not surface the resolution order")
	}
	var pred2 struct {
		Seconds float64 `json:"seconds"`
	}
	jget(t, ts2.Client(), ts2.URL, "/v1/predict?benchmark=convolution&device="+devQ+"&index=7",
		http.StatusOK, &pred2)
	if pred2.Seconds != pred.Seconds {
		t.Errorf("prediction changed across restart: %v vs %v", pred2.Seconds, pred.Seconds)
	}
	var top2 struct {
		Top []struct {
			Index   int64   `json:"index"`
			Seconds float64 `json:"seconds"`
		} `json:"top"`
	}
	jget(t, ts2.Client(), ts2.URL, "/v1/topm?benchmark=convolution&device="+devQ+"&m=5",
		http.StatusOK, &top2)
	for i := range top.Top {
		if top2.Top[i] != top.Top[i] {
			t.Errorf("top-M %d changed across restart: %+v vs %+v", i, top2.Top[i], top.Top[i])
		}
	}

	// --- Reload: a server whose registry opened before the model was
	// written picks it up via POST /v1/reload. ---
	dir3 := t.TempDir()
	reg3, err := OpenRegistry(dir3)
	if err != nil {
		t.Fatal(err)
	}
	srv3 := newTestServer(t, reg3, 1, 2)
	ts3 := httptest.NewServer(srv3)
	defer ts3.Close()
	jget(t, ts3.Client(), ts3.URL, "/v1/predict?benchmark=convolution&device="+devQ+"&index=7",
		http.StatusNotFound, nil)
	src, err := os.ReadFile(filepath.Join(dir, key.fileName()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir3, key.fileName()), src, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := ts3.Client().Post(ts3.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	jget(t, ts3.Client(), ts3.URL, "/v1/predict?benchmark=convolution&device="+devQ+"&index=7",
		http.StatusOK, &pred2)
	if pred2.Seconds != pred.Seconds {
		t.Errorf("post-reload prediction %v, want %v", pred2.Seconds, pred.Seconds)
	}

	// Drain the servers; no jobs are running, so this must be immediate.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range []*Server{srv, srv2, srv3} {
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}
}

func TestQueueBackpressureCancelAndDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 16)
	q := NewQueue(1, 2, func(ctx context.Context, j *Job) {
		started <- j.ID
		select {
		case <-release:
			j.finish(&core.Result{Strategy: j.Spec.Strategy}, false, nil)
		case <-ctx.Done():
			j.finish(nil, false, ctx.Err())
		}
	}, nil)
	spec := JobSpec{Benchmark: "convolution", Device: devsim.IntelI7, Strategy: "ml"}

	running, err := q.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the single worker now blocks in the job

	queued := make([]*Job, 0, 2)
	for i := 0; i < 2; i++ {
		j, err := q.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	// Worker busy + backlog of 2 full: the next submission is shed.
	if _, err := q.Submit(spec); err != ErrQueueFull {
		t.Fatalf("overflow submission: %v, want ErrQueueFull", err)
	}

	// Cancel one queued job: it must never start, and its backlog slot
	// frees immediately — the next submission succeeds again.
	if _, err := q.Cancel(queued[0].ID); err != nil {
		t.Fatal(err)
	}
	if st := queued[0].State(); st != JobCanceled {
		t.Fatalf("canceled queued job state %s", st)
	}
	if _, err := q.Cancel("job-999999"); err == nil {
		t.Error("canceling an unknown job succeeded")
	}
	if _, err := q.Submit(spec); err != nil {
		t.Fatalf("submission after canceling a queued job: %v", err)
	}
	if _, err := q.Submit(spec); err != ErrQueueFull {
		t.Fatalf("backlog should be full again: %v", err)
	}

	// Graceful drain with the worker stuck: the deadline forces a hard
	// cancel of the running job; the untouched queued job never starts.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("drain: %v, want DeadlineExceeded", err)
	}
	if st := running.State(); st != JobCanceled {
		t.Errorf("running job after hard drain: %s", st)
	}
	if st := queued[1].State(); st != JobCanceled {
		t.Errorf("queued job after drain: %s", st)
	}
	if _, err := q.Submit(spec); err != ErrQueueClosed {
		t.Errorf("post-drain submission: %v, want ErrQueueClosed", err)
	}
	select {
	case id := <-started:
		t.Errorf("job %s started after drain", id)
	default:
	}
}

func TestQueueEvictsOldTerminalJobs(t *testing.T) {
	q := NewQueue(1, 8, func(ctx context.Context, j *Job) {
		j.finish(&core.Result{Strategy: "ml"}, false, nil)
	}, nil)
	q.mu.Lock()
	q.retain = 3
	q.mu.Unlock()
	var ids []string
	for i := 0; i < 6; i++ {
		j, err := q.Submit(JobSpec{Benchmark: "convolution", Device: devsim.IntelI7, Strategy: "ml"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
		for !j.State().Done() {
			time.Sleep(time.Millisecond)
		}
	}
	if got := len(q.Jobs()); got > 3 {
		t.Errorf("%d jobs retained, cap 3", got)
	}
	if _, ok := q.Get(ids[0]); ok {
		t.Error("oldest terminal job not evicted")
	}
	if _, ok := q.Get(ids[5]); !ok {
		t.Error("newest job evicted")
	}
}

func TestJobEventBufferBounded(t *testing.T) {
	j := newJob("job-x", JobSpec{})
	total := maxJobEvents * 2
	for i := 0; i < total; i++ {
		j.observe(core.Event{Kind: core.EventStageStarted, Stage: "gather"})
	}
	evs, dropped := j.eventsAfter(-1)
	if len(evs) > maxJobEvents {
		t.Errorf("buffer holds %d events, cap %d", len(evs), maxJobEvents)
	}
	if dropped == 0 {
		t.Error("no events reported dropped after overflowing the buffer")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("seq gap inside the buffer: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if last := evs[len(evs)-1].Seq; last != total-1 {
		t.Errorf("last seq %d, want %d", last, total-1)
	}
}

func TestQueueDrainLetsRunningJobsFinish(t *testing.T) {
	started := make(chan struct{}, 4)
	q := NewQueue(2, 4, func(ctx context.Context, j *Job) {
		started <- struct{}{}
		time.Sleep(30 * time.Millisecond)
		j.finish(&core.Result{Strategy: "ml"}, false, nil)
	}, nil)
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := q.Submit(JobSpec{Benchmark: "convolution", Device: devsim.IntelI7, Strategy: "ml"})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// Wait for both workers to pick up a job so the drain really races
	// against running work, not an empty pool.
	<-started
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The running jobs finished; only jobs still queued at drain time may
	// have been canceled.
	done := 0
	for _, j := range jobs {
		switch j.State() {
		case JobSucceeded:
			done++
		case JobCanceled:
		default:
			t.Errorf("job %s in state %s after drain", j.ID, j.State())
		}
	}
	if done == 0 {
		t.Error("no job finished across a graceful drain")
	}
}

// TestEventsAfterIncrementalPollerNoGap is the eventsAfter regression
// test: once the ring buffer wraps, an up-to-date incremental poller
// (?after= ≥ last seq it saw) must NOT be told it has a gap, while a
// client that really fell behind the retained window is told exactly how
// many events it lost.
func TestEventsAfterIncrementalPollerNoGap(t *testing.T) {
	j := newJob("job-gap", JobSpec{})
	emit := func(n int) {
		for i := 0; i < n; i++ {
			j.observe(core.Event{Kind: core.EventStageStarted, Stage: "gather"})
		}
	}

	// Fill the buffer without wrapping; incremental pollers see no gap.
	emit(100)
	evs, dropped := j.eventsAfter(49)
	if dropped != 0 || len(evs) != 50 || evs[0].Seq != 50 {
		t.Fatalf("pre-wrap poll: %d events from %d, dropped %d", len(evs), evs[0].Seq, dropped)
	}

	// An after below the stream start asks for everything; nothing was
	// dropped, so no gap may be reported.
	evs, dropped = j.eventsAfter(-100)
	if dropped != 0 || len(evs) != 100 {
		t.Fatalf("below-start poll: %d events, dropped %d", len(evs), dropped)
	}

	// An after beyond the stream end means fully caught up — no events,
	// no gap, and no integer overflow at MaxInt.
	for _, after := range []int{100, 5000, math.MaxInt} {
		evs, dropped = j.eventsAfter(after)
		if dropped != 0 || len(evs) != 0 {
			t.Fatalf("beyond-end poll after=%d: %d events, dropped %d", after, len(evs), dropped)
		}
	}

	// Wrap the ring buffer.
	emit(maxJobEvents * 2)
	total := 100 + maxJobEvents*2
	evs, dropped = j.eventsAfter(-1)
	if dropped == 0 {
		t.Fatal("full-stream poll after wrap reports no drop")
	}
	if want := total - len(evs); dropped != want {
		t.Errorf("full-stream poll dropped = %d, want %d", dropped, want)
	}

	// The regression: a poller that has seen everything up to the last
	// seq is up to date — no gap, no events.
	last := evs[len(evs)-1].Seq
	if last != total-1 {
		t.Fatalf("last seq %d, want %d", last, total-1)
	}
	tail, dropped := j.eventsAfter(last)
	if dropped != 0 {
		t.Errorf("up-to-date poller told it dropped %d events", dropped)
	}
	if len(tail) != 0 {
		t.Errorf("up-to-date poller got %d events", len(tail))
	}

	// A poller one event behind gets exactly that event, no gap.
	tail, dropped = j.eventsAfter(last - 1)
	if dropped != 0 || len(tail) != 1 || tail[0].Seq != last {
		t.Errorf("one-behind poller: %d events, dropped %d", len(tail), dropped)
	}

	// A poller behind the retained window is told its actual gap.
	first := evs[0].Seq
	_, dropped = j.eventsAfter(first - 10)
	if dropped != 9 {
		t.Errorf("lagging poller dropped = %d, want 9", dropped)
	}
}

// TestPredictBatchEndpoint exercises POST /v1/predict: by indices, by
// config maps, agreement with the single-prediction endpoint, and the
// validation failure modes.
func TestPredictBatchEndpoint(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	if err := reg.Put(key, trainTinyModel(t, 21)); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, reg, 1, 2)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	post := func(body any, wantCode int, out any) {
		t.Helper()
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("POST /v1/predict: status %d, want %d", resp.StatusCode, wantCode)
		}
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	}

	var batch struct {
		Predictions []struct {
			Index   int64          `json:"index"`
			Config  map[string]int `json:"config"`
			Seconds float64        `json:"seconds"`
		} `json:"predictions"`
	}
	post(map[string]any{
		"benchmark": "convolution", "device": devsim.IntelI7,
		"indices": []int64{7, 4242, 99},
	}, http.StatusOK, &batch)
	if len(batch.Predictions) != 3 {
		t.Fatalf("got %d predictions", len(batch.Predictions))
	}
	for i, want := range []int64{7, 4242, 99} {
		if batch.Predictions[i].Index != want || batch.Predictions[i].Seconds <= 0 {
			t.Errorf("prediction %d: %+v", i, batch.Predictions[i])
		}
	}

	// The batch agrees bit-for-bit with the single-prediction endpoint.
	var single struct {
		Seconds float64 `json:"seconds"`
	}
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&device="+devQ+"&index=4242",
		http.StatusOK, &single)
	if single.Seconds != batch.Predictions[1].Seconds {
		t.Errorf("batch %v != single %v for index 4242", batch.Predictions[1].Seconds, single.Seconds)
	}

	// By config maps: round-trips through the same configurations.
	var byCfg struct {
		Predictions []struct {
			Index   int64   `json:"index"`
			Seconds float64 `json:"seconds"`
		} `json:"predictions"`
	}
	post(map[string]any{
		"benchmark": "convolution", "device": devsim.IntelI7,
		"configs": []map[string]int{batch.Predictions[0].Config, batch.Predictions[2].Config},
	}, http.StatusOK, &byCfg)
	if len(byCfg.Predictions) != 2 ||
		byCfg.Predictions[0].Index != 7 || byCfg.Predictions[0].Seconds != batch.Predictions[0].Seconds ||
		byCfg.Predictions[1].Index != 99 || byCfg.Predictions[1].Seconds != batch.Predictions[2].Seconds {
		t.Errorf("by-config batch mismatch: %+v", byCfg.Predictions)
	}

	// Validation: none or both of indices/configs, out-of-range index,
	// bad config, oversized batch, unknown model.
	post(map[string]any{"benchmark": "convolution", "device": devsim.IntelI7}, http.StatusBadRequest, nil)
	post(map[string]any{"benchmark": "convolution", "device": devsim.IntelI7,
		"indices": []int64{1}, "configs": []map[string]int{{"wg_x": 8}}}, http.StatusBadRequest, nil)
	post(map[string]any{"benchmark": "convolution", "device": devsim.IntelI7,
		"indices": []int64{-1}}, http.StatusBadRequest, nil)
	post(map[string]any{"benchmark": "convolution", "device": devsim.IntelI7,
		"configs": []map[string]int{{"wg_x": 3}}}, http.StatusBadRequest, nil)
	big := make([]int64, maxPredictBatch+1)
	post(map[string]any{"benchmark": "convolution", "device": devsim.IntelI7,
		"indices": big}, http.StatusBadRequest, nil)
	post(map[string]any{"benchmark": "convolution", "device": "TPU",
		"indices": []int64{1}}, http.StatusNotFound, nil)
}

// TestTopMLimitAndCache checks that m beyond maxTopM is rejected with a
// 400 naming the limit (not silently clamped), and that the top-M cache
// serves identical results and is invalidated when the model changes.
func TestTopMLimitAndCache(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	if err := reg.Put(key, trainTinyModel(t, 31)); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, reg, 1, 2)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// Over the limit: a 400 naming the limit, not a truncated 200.
	resp, err := client.Get(ts.URL + fmt.Sprintf("/v1/topm?benchmark=convolution&device=%s&m=%d", devQ, maxTopM+1))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("m over limit: status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(apiErr.Error, fmt.Sprint(maxTopM)) {
		t.Errorf("error %q does not name the limit %d", apiErr.Error, maxTopM)
	}

	type topResp struct {
		Top []struct {
			Index   int64   `json:"index"`
			Seconds float64 `json:"seconds"`
		} `json:"top"`
	}
	var first, second topResp
	jget(t, client, ts.URL, "/v1/topm?benchmark=convolution&device="+devQ+"&m=5", http.StatusOK, &first)
	jget(t, client, ts.URL, "/v1/topm?benchmark=convolution&device="+devQ+"&m=5", http.StatusOK, &second)
	if len(first.Top) != 5 || len(second.Top) != 5 {
		t.Fatalf("top lengths %d/%d", len(first.Top), len(second.Top))
	}
	for i := range first.Top {
		if first.Top[i] != second.Top[i] {
			t.Errorf("cached top-M differs at %d: %+v vs %+v", i, first.Top[i], second.Top[i])
		}
	}

	// Replacing the model must invalidate the cache: a different model
	// yields a different ranking (and reload must pick it up).
	if err := reg.Put(key, trainTinyModel(t, 99)); err != nil {
		t.Fatal(err)
	}
	srv.cache.invalidate(key) // what the job path does after Put
	var after topResp
	jget(t, client, ts.URL, "/v1/topm?benchmark=convolution&device="+devQ+"&m=5", http.StatusOK, &after)
	same := true
	for i := range after.Top {
		if after.Top[i] != first.Top[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("top-M unchanged after the model was replaced (stale cache?)")
	}

	// And POST /v1/reload must drop everything too: predictions after a
	// reload come from the re-read file, not a stale in-memory model.
	resp, err = client.Post(ts.URL+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var reloaded topResp
	jget(t, client, ts.URL, "/v1/topm?benchmark=convolution&device="+devQ+"&m=5", http.StatusOK, &reloaded)
	for i := range reloaded.Top {
		if reloaded.Top[i] != after.Top[i] {
			t.Errorf("post-reload top-M differs at %d: %+v vs %+v", i, reloaded.Top[i], after.Top[i])
		}
	}
}

// TestServeCacheDropsStaleFill pins the fill-versus-invalidate race
// deterministically: a reader that fetched a model before a swap's
// invalidate must not repopulate the slot (or the portable binding)
// with it afterwards, and a fill at the current generation is stored.
func TestServeCacheDropsStaleFill(t *testing.T) {
	c := newServeCache(nil)
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	old := trainTinyModel(t, 31)

	gen := c.generation()
	c.invalidate(key) // the swap lands between lookup and fill
	if e := c.entry(key, old, gen); e.model != old {
		t.Fatal("stale fill did not serve the model it was given")
	}
	if _, ok := c.entries[key]; ok {
		t.Fatal("stale fill was stored after the invalidation")
	}

	gen = c.generation()
	e := c.entry(key, old, gen)
	if c.entries[key] != e || c.entry(key, old, gen) != e {
		t.Fatal("fill at the current generation was not stored and reused")
	}

	// The same race on the portable path: a binding of a parent fetched
	// before the invalidation must not be memoised.
	b := bench.MustLookup("convolution")
	vec, err := catalogVector(devsim.IntelI7)
	if err != nil {
		t.Fatal(err)
	}
	var samples []core.Sample
	for i, cfg := range b.Space().Sample(rand.New(rand.NewSource(32)), 40) {
		samples = append(samples, core.Sample{Config: cfg, Seconds: 1 + float64(i%7), Device: vec})
	}
	mc := core.DefaultModelConfig(32)
	mc.Ensemble.K = 1
	mc.Ensemble.Hidden = 4
	mc.Ensemble.Train.Epochs = 5
	mc.DeviceFeatures = true
	pm, err := core.TrainModel(b.Space(), samples, nil, mc)
	if err != nil {
		t.Fatal(err)
	}
	pkey := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	gen = c.generation()
	c.invalidateAll()
	if _, err := c.bound(pkey, pm, vec, gen); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.binds[pkey]; ok {
		t.Fatal("stale bind was memoised after the invalidation")
	}
}
