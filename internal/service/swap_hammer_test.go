package service

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/devsim"
)

// TestModelSwapHammer races model swaps against readers under the race
// detector: predicts and top-M requests stay in flight while the served
// model is swapped (Put) and the registry's loaded models are dropped
// (Reload), so every iteration races a fresh load of the artifact —
// whose weights alias the loaded buffer — and the serve cache's
// invalidation against readers still scoring the replaced model. Every
// reader request must succeed.
func TestModelSwapHammer(t *testing.T) {
	if testing.Short() && !raceEnabled {
		// The hammer earns its seconds under -race; plain -short runs get
		// coverage of the same paths from the functional tests.
		t.Skip("skipping model swap hammer in -short without -race")
	}

	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	models := []*core.Model{trainTinyModel(t, 21), trainTinyModel(t, 22)}
	if err := reg.Put(key, models[0]); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, reg, 1, 4)

	stop := make(chan struct{})
	errs := make(chan error, 8)
	const readers = 4
	for g := 0; g < readers; g++ {
		go func(g int) {
			idx := int64(g)
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				req := PredictRequest{Benchmark: "convolution", Device: devsim.IntelI7,
					HasIndex: true, Index: idx % 64}
				if _, err := srv.Predict(&req); err != nil {
					errs <- err
					return
				}
				if g == 0 {
					// Top-M screens with the int16 tables quantised at load
					// from the weights, which alias the loaded buffer.
					top := TopMRequest{Benchmark: "convolution", Device: devsim.IntelI7, M: 3}
					if _, err := srv.TopM(&top); err != nil {
						errs <- err
						return
					}
				}
				idx += 3
			}
		}(g)
	}

	// Swap loop: each round first drops every cached model (the next
	// predict then loads the artifact fresh from disk), then replaces
	// the artifact under the readers' feet.
	deadline := time.Now().Add(3 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		if _, err := srv.ReloadModels(); err != nil {
			t.Error(err)
			break
		}
		err := srv.swapModel(key, func() error { return reg.Put(key, models[i%len(models)]) })
		if err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	for g := 0; g < readers; g++ {
		if err := <-errs; err != nil {
			t.Fatalf("reader failed mid-swap: %v", err)
		}
	}
}
