package service

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"

	"repro/internal/ann"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/tuning"
)

// deviceSampleInputs measures n valid convolution configurations on the
// named simulated device and returns them in POST /v1/samples form.
func deviceSampleInputs(t *testing.T, device string, seed int64, n int) []map[string]any {
	t.Helper()
	b := bench.MustLookup("convolution")
	m, err := core.NewSimMeasurer(b, devsim.MustLookup(device), bench.Size{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]map[string]any, 0, n)
	for _, cfg := range b.Space().Sample(rng, 8*n) {
		if len(out) == n {
			break
		}
		secs, err := m.Measure(context.Background(), cfg)
		if err != nil {
			continue
		}
		out = append(out, map[string]any{"index": cfg.Index(), "seconds": secs})
	}
	if len(out) < n {
		t.Fatalf("only %d valid samples on %s", len(out), device)
	}
	return out
}

// smallTrainModel is the fast ensemble the portable API tests train.
var smallTrainModel = map[string]any{"ensemble": map[string]any{
	"k": 2, "hidden": 6, "train": map[string]any{"epochs": 150}}}

// TestPortableServingEndToEnd is the portable acceptance path: pool two
// devices' stored samples into a <bench>@* model via POST /v1/train,
// then serve /v1/predict and /v1/topm for a third device that never
// trained — by catalog name and by inline descriptor — with the
// documented resolution order.
func TestPortableServingEndToEnd(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, reg, 2, 8)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// Ingesting under the portable slot is rejected with guidance.
	jpost(t, client, ts.URL, "/v1/samples", map[string]any{
		"benchmark": "convolution", "device": "*",
		"samples": []map[string]any{{"index": 1, "seconds": 0.1}}}, http.StatusBadRequest, nil)

	// One device's samples are not enough to pool: fail fast at submit.
	jpost(t, client, ts.URL, "/v1/samples", map[string]any{
		"benchmark": "convolution", "device": devsim.IntelI7, "source": "unit",
		"samples": deviceSampleInputs(t, devsim.IntelI7, 3, 30)}, http.StatusOK, nil)
	jpost(t, client, ts.URL, "/v1/train", map[string]any{
		"benchmark": "convolution", "device": "*", "seed": 5, "model": smallTrainModel},
		http.StatusBadRequest, nil)

	// Second device ingested; pooled training may queue now.
	jpost(t, client, ts.URL, "/v1/samples", map[string]any{
		"benchmark": "convolution", "device": devsim.AMD7970, "source": "unit",
		"samples": deviceSampleInputs(t, devsim.AMD7970, 4, 30)}, http.StatusOK, nil)

	// The benchmark-only sample listing enumerates both devices — the
	// pooled-training UX this PR adds.
	var sets []SampleSetInfo
	jget(t, client, ts.URL, "/v1/samples?benchmark=convolution", http.StatusOK, &sets)
	if len(sets) != 2 {
		t.Fatalf("benchmark-only sample listing: %+v", sets)
	}

	var st JobStatus
	jpost(t, client, ts.URL, "/v1/train", map[string]any{
		"benchmark": "convolution", "device": "*", "seed": 5, "model": smallTrainModel},
		http.StatusAccepted, &st)
	final := waitForJob(t, client, ts.URL, st.ID)
	if final.State != JobSucceeded {
		t.Fatalf("portable train job finished %s: %s", final.State, final.Error)
	}

	// The job surfaced which devices were pooled.
	var withEvents struct {
		Events []EventRecord `json:"events"`
	}
	jget(t, client, ts.URL, "/v1/jobs/"+st.ID, http.StatusOK, &withEvents)
	pooled := false
	for _, ev := range withEvents.Events {
		if ev.Kind == "pooled-devices" {
			pooled = true
			if ev.Done != 2 {
				t.Fatalf("pooled-devices event %+v, want Done=2", ev)
			}
		}
	}
	if !pooled {
		t.Fatal("no pooled-devices event on the train job")
	}

	// The registry lists the portable slot, flagged.
	var listing struct {
		ResolutionOrder []string    `json:"resolution_order"`
		Models          []ModelInfo `json:"models"`
	}
	jget(t, client, ts.URL, "/v1/models?benchmark=convolution", http.StatusOK, &listing)
	if len(listing.Models) != 1 || !listing.Models[0].Portable || listing.Models[0].Device != PortableDevice {
		t.Fatalf("portable model listing: %+v", listing.Models)
	}
	if len(listing.ResolutionOrder) != 2 {
		t.Fatalf("resolution order: %v", listing.ResolutionOrder)
	}

	// Predict for a device with NO exact model and NO training samples:
	// resolution falls back to the portable model.
	k40 := url.QueryEscape(devsim.NvidiaK40)
	var pred struct {
		Resolution string  `json:"resolution"`
		Device     string  `json:"device"`
		Seconds    float64 `json:"seconds"`
	}
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&device="+k40+"&index=7",
		http.StatusOK, &pred)
	if pred.Resolution != "portable" || pred.Seconds <= 0 || pred.Device != devsim.NvidiaK40 {
		t.Fatalf("portable predict %+v", pred)
	}

	// Different devices bind differently: the same configuration may
	// predict a different time on another device through the same model.
	var pred2 struct {
		Resolution string  `json:"resolution"`
		Seconds    float64 `json:"seconds"`
	}
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&device="+url.QueryEscape(devsim.NvidiaC2070)+"&index=7",
		http.StatusOK, &pred2)
	if pred2.Resolution != "portable" {
		t.Fatalf("portable predict for second device %+v", pred2)
	}

	// Top-M through the portable binding, cached per resolved device.
	var top struct {
		Resolution string `json:"resolution"`
		Top        []struct {
			Index   int64   `json:"index"`
			Seconds float64 `json:"seconds"`
		} `json:"top"`
	}
	jget(t, client, ts.URL, "/v1/topm?benchmark=convolution&device="+k40+"&m=5", http.StatusOK, &top)
	if top.Resolution != "portable" || len(top.Top) != 5 {
		t.Fatalf("portable top-M %+v", top)
	}

	// Inline descriptor: genuinely unseen hardware. Derived from the
	// GTX980 with a different shape so it matches no catalog entry.
	desc := devsim.MustLookup(devsim.NvidiaGTX980).Descriptor()
	desc.Name = "Hypothetical GPU X"
	desc.ComputeUnits = 24
	desc.MemBandwidthGBs = 512
	descJSON, err := json.Marshal(desc)
	if err != nil {
		t.Fatal(err)
	}
	var inline struct {
		Resolution string  `json:"resolution"`
		Device     string  `json:"device"`
		Seconds    float64 `json:"seconds"`
	}
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&index=7&descriptor="+url.QueryEscape(string(descJSON)),
		http.StatusOK, &inline)
	if inline.Resolution != "portable" || inline.Device != "Hypothetical GPU X" || inline.Seconds <= 0 {
		t.Fatalf("inline-descriptor predict %+v", inline)
	}

	// The batch endpoint takes the descriptor inline too.
	var batch struct {
		Resolution  string `json:"resolution"`
		Predictions []struct {
			Seconds float64 `json:"seconds"`
		} `json:"predictions"`
	}
	jpost(t, client, ts.URL, "/v1/predict", map[string]any{
		"benchmark": "convolution", "descriptor": json.RawMessage(descJSON),
		"indices": []int64{1, 7, 9}}, http.StatusOK, &batch)
	if batch.Resolution != "portable" || len(batch.Predictions) != 3 {
		t.Fatalf("inline-descriptor batch %+v", batch)
	}

	// A 40 GHz clock passes Descriptor.Validate but puts the clock
	// feature outside the int16 screen's input domain, so the daemon's
	// top-M takes the exact sweep. Its answer must be the library's.
	hot := desc
	hot.Name = "Hypothetical GPU X 40GHz"
	hot.ClockGHz = 40
	hotVec := tuning.DeviceVector(&hot, nil)
	if !slices.ContainsFunc(hotVec, func(v float64) bool { return v > ann.QuantInputHi }) {
		t.Fatalf("descriptor features %v stay inside the int16 domain", hotVec)
	}
	hotJSON, err := json.Marshal(hot)
	if err != nil {
		t.Fatal(err)
	}
	var hotTop TopMResponse
	jget(t, client, ts.URL, "/v1/topm?benchmark=convolution&m=8&descriptor="+url.QueryEscape(string(hotJSON)),
		http.StatusOK, &hotTop)
	pm, err := reg.Get(ModelKey{Benchmark: "convolution", Device: PortableDevice})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := pm.WithDevice(hotVec)
	if err != nil {
		t.Fatal(err)
	}
	want := bound.TopM(8)
	if hotTop.Resolution != "portable" || len(hotTop.Top) != len(want) {
		t.Fatalf("out-of-domain top-M %+v, want %d entries", hotTop, len(want))
	}
	for i, p := range want {
		if got := hotTop.Top[i]; got.Index != p.Index || got.Seconds != p.Seconds {
			t.Fatalf("out-of-domain top-M entry %d = %+v, want %+v", i, got, p)
		}
	}

	// A malformed descriptor is a 400 naming the problem, not a 500.
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&index=1&descriptor=%7Bnope",
		http.StatusBadRequest, nil)
	bad := desc
	bad.ComputeUnits = 0
	badJSON, _ := json.Marshal(bad)
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&index=1&descriptor="+url.QueryEscape(string(badJSON)),
		http.StatusBadRequest, nil)

	// A device outside the catalog without a descriptor cannot resolve.
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&device=UnknownHW&index=1",
		http.StatusNotFound, nil)
	// The portable slot itself is not addressable.
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&device=%2A&index=1",
		http.StatusBadRequest, nil)

	// An exact model, once trained, wins over the portable fallback.
	jpost(t, client, ts.URL, "/v1/train", map[string]any{
		"benchmark": "convolution", "device": devsim.IntelI7, "seed": 5, "model": smallTrainModel},
		http.StatusAccepted, &st)
	if final := waitForJob(t, client, ts.URL, st.ID); final.State != JobSucceeded {
		t.Fatalf("exact train job finished %s: %s", final.State, final.Error)
	}
	var exact struct {
		Resolution string `json:"resolution"`
	}
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&device="+devQ+"&index=7",
		http.StatusOK, &exact)
	if exact.Resolution != "exact" {
		t.Fatalf("exact model not preferred: %+v", exact)
	}
}

// TestPortableTrainInlineSamples covers the inline-sample pooled path:
// per-record device labels become features, and records without a label
// are rejected at submission.
func TestPortableTrainInlineSamples(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, reg, 1, 4)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	mk := func(device string, inputs []map[string]any) []map[string]any {
		out := make([]map[string]any, len(inputs))
		for i, in := range inputs {
			cp := map[string]any{}
			for k, v := range in {
				cp[k] = v
			}
			cp["device"] = device
			out[i] = cp
		}
		return out
	}
	a := mk(devsim.IntelI7, deviceSampleInputs(t, devsim.IntelI7, 11, 15))
	b := mk(devsim.NvidiaK40, deviceSampleInputs(t, devsim.NvidiaK40, 12, 15))

	// Labels missing on inline samples: rejected at submission.
	noLabel := deviceSampleInputs(t, devsim.IntelI7, 13, 3)
	jpost(t, client, ts.URL, "/v1/train", map[string]any{
		"benchmark": "convolution", "device": "*", "samples": noLabel},
		http.StatusBadRequest, nil)

	var st JobStatus
	jpost(t, client, ts.URL, "/v1/train", map[string]any{
		"benchmark": "convolution", "device": "*", "seed": 3,
		"model": smallTrainModel, "samples": append(a, b...)},
		http.StatusAccepted, &st)
	if final := waitForJob(t, client, ts.URL, st.ID); final.State != JobSucceeded {
		t.Fatalf("inline portable train finished %s: %s", final.State, final.Error)
	}
	var pred struct {
		Resolution string  `json:"resolution"`
		Seconds    float64 `json:"seconds"`
	}
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&device="+url.QueryEscape(devsim.AMD7970)+"&index=3",
		http.StatusOK, &pred)
	if pred.Resolution != "portable" || pred.Seconds <= 0 {
		t.Fatalf("predict after inline portable train: %+v", pred)
	}
}
