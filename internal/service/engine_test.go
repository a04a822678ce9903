package service

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/devsim"
)

// TestServedEngineEndToEnd checks the serving contract over HTTP: the
// engine field of /v1/stats and /v1/models is always "float64", and a
// single predict and a top-M answer — set, order and exact seconds —
// match the exact scorer of the model in the registry bit for bit.
func TestServedEngineEndToEnd(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	model := trainTinyModel(t, 41)
	if err := reg.Put(key, model); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newTestServer(t, reg, 1, 2))
	defer ts.Close()
	client := ts.Client()

	var stats struct {
		Engine string `json:"engine"`
	}
	jget(t, client, ts.URL, "/v1/stats", http.StatusOK, &stats)
	if stats.Engine != "float64" {
		t.Errorf("/v1/stats engine %q, want float64", stats.Engine)
	}
	var listing struct {
		Engine string `json:"engine"`
		Models []struct {
			Loaded       bool `json:"loaded"`
			WeightFormat int  `json:"weight_format"`
		} `json:"models"`
	}
	var single struct {
		Seconds float64 `json:"seconds"`
	}
	jget(t, client, ts.URL, "/v1/predict?benchmark=convolution&device="+devQ+"&index=4242",
		http.StatusOK, &single)
	if want := model.PredictIndices([]int64{4242}, model.NewBatchScratch(), nil)[0]; single.Seconds != want {
		t.Errorf("predict seconds %v, exact scorer %v", single.Seconds, want)
	}
	jget(t, client, ts.URL, "/v1/models", http.StatusOK, &listing)
	if listing.Engine != "float64" {
		t.Errorf("/v1/models engine %q, want float64", listing.Engine)
	}
	if len(listing.Models) != 1 || !listing.Models[0].Loaded {
		t.Fatalf("listing %+v", listing.Models)
	}
	if wf := listing.Models[0].WeightFormat; wf != 4 {
		t.Errorf("loaded model reports weight_format %d, want 4", wf)
	}

	var top struct {
		Top []struct {
			Index   int64   `json:"index"`
			Seconds float64 `json:"seconds"`
		} `json:"top"`
	}
	jget(t, client, ts.URL, "/v1/topm?benchmark=convolution&device="+devQ+"&m=8",
		http.StatusOK, &top)
	want := model.TopM(8)
	if len(top.Top) != len(want) {
		t.Fatalf("top-M length %d, want %d", len(top.Top), len(want))
	}
	for i, p := range want {
		if top.Top[i].Index != p.Index || top.Top[i].Seconds != p.Seconds {
			t.Errorf("top-M %d: served %+v, model %+v", i, top.Top[i], p)
		}
	}
}

// TestTopMSeededAcrossPut checks the serve cache warm-starts top-M
// sweeps across a model swap: after Put replaces the model with an
// equivalent retrain, the next top-M query must be a cache miss (the
// entry was rebuilt) but a *seeded* sweep — counted in
// mltuned_topm_seeded_total — and its answer must match a cold sweep's.
func TestTopMSeededAcrossPut(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	if err := reg.Put(key, trainTinyModel(t, 51)); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, reg, 1, 2)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	type topResp struct {
		Top []struct {
			Index   int64   `json:"index"`
			Seconds float64 `json:"seconds"`
		} `json:"top"`
	}
	var first topResp
	jget(t, client, ts.URL, "/v1/topm?benchmark=convolution&device="+devQ+"&m=5", http.StatusOK, &first)
	if len(first.Top) != 5 {
		t.Fatalf("top-M length %d", len(first.Top))
	}
	cm := srv.metrics.cache
	if got := cm.topmSeededC.Value(); got != 0 {
		t.Fatalf("cold sweep counted as seeded (%d)", got)
	}

	// Retraining deterministically from the same seed swaps in a model
	// with identical content: the retained previous result seeds the
	// sweep and the answer is unchanged.
	if err := reg.Put(key, trainTinyModel(t, 51)); err != nil {
		t.Fatal(err)
	}
	srv.cache.invalidate(key) // what the job path does after Put
	var second topResp
	jget(t, client, ts.URL, "/v1/topm?benchmark=convolution&device="+devQ+"&m=5", http.StatusOK, &second)
	if got := cm.topmSeededC.Value(); got != 1 {
		t.Errorf("mltuned_topm_seeded_total = %d after swap, want 1", got)
	}
	for i := range first.Top {
		if second.Top[i] != first.Top[i] {
			t.Errorf("seeded top-M differs at %d: %+v vs %+v", i, second.Top[i], first.Top[i])
		}
	}

	// A genuinely different model must also go through the seeding path
	// (the retained result still prunes), and the answer must reflect
	// the new model — the warm start never serves stale data.
	if err := reg.Put(key, trainTinyModel(t, 52)); err != nil {
		t.Fatal(err)
	}
	srv.cache.invalidate(key)
	var third topResp
	jget(t, client, ts.URL, "/v1/topm?benchmark=convolution&device="+devQ+"&m=5", http.StatusOK, &third)
	if got := cm.topmSeededC.Value(); got != 2 {
		t.Errorf("mltuned_topm_seeded_total = %d after second swap, want 2", got)
	}
	same := true
	for i := range third.Top {
		if third.Top[i] != first.Top[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("top-M unchanged after a different model was swapped in (stale warm start?)")
	}

	// The stats endpoint exports the counter under its metric name.
	var stats struct {
		Telemetry struct {
			Metrics []struct {
				Name string `json:"name"`
			} `json:"metrics"`
		} `json:"telemetry"`
	}
	jget(t, client, ts.URL, "/v1/stats", http.StatusOK, &stats)
	found := false
	for _, m := range stats.Telemetry.Metrics {
		if m.Name == "mltuned_topm_seeded_total" {
			found = true
		}
	}
	if !found {
		t.Error("mltuned_topm_seeded_total missing from /v1/stats telemetry")
	}
}
