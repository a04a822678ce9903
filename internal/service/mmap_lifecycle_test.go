package service

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/mmapx"
	"repro/internal/storage"
)

// TestMmapSwapLifecycle hammers the zero-copy model lifecycle under
// the race detector: predicts stay in flight while the served model is
// swapped (Put) and the registry's mapped cache is dropped (Reload),
// so every iteration races an old mapping's retirement against
// readers still scoring out of it. The properties pinned:
//
//   - no use-after-unmap: a mapping is closed only by the finalizer of
//     a model no reader can reach any more, so the hammer must never
//     fault (a violation crashes the test process);
//   - no leaked mappings: once the mapped models are unreachable, GC
//     must return mmapx.Live() to its baseline — nothing in the
//     serve cache, registry, or scratch pools may pin an arena whose
//     model was replaced.
func TestMmapSwapLifecycle(t *testing.T) {
	if testing.Short() && !raceEnabled {
		// The hammer earns its seconds under -race; plain -short runs get
		// coverage of the same paths from the functional tests.
		t.Skip("skipping mmap lifecycle hammer in -short without -race")
	}
	baseline := mmapx.Live()

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
					// from the weights, which alias the arena.
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
	// predict then maps the artifact fresh from disk — the path a serve
	// replica's install takes), then replaces the artifact under the
	// readers' feet.
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

	// Retirement: the last swap left a heap-trained model in every
	// cache, so every mapped model is now unreachable and GC must close
	// their arenas. Finalizers need GC cycles to run, so poll.
	for wait := 0; mmapx.Live() > baseline && wait < 100; wait++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := mmapx.Live(); got > baseline {
		t.Fatalf("%d mappings leaked after the swap hammer (baseline %d, live %d)", got-baseline, baseline, got)
	}
}

// TestMapperBackendServesMapped pins that a localfs-backed registry
// actually takes the zero-copy path: a v4 artifact written by Put and
// re-read after a reload serves out of a memory mapping on platforms
// that support it, and the mapping is accounted in mmapx.Live.
func TestMapperBackendServesMapped(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Backend().(storage.Mapper); !ok {
		t.Fatal("localfs backend does not implement storage.Mapper")
	}
	key := ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}
	if err := reg.Put(key, trainTinyModel(t, 23)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil { // drop the Put-cached heap model
		t.Fatal(err)
	}
	before := mmapx.Live()
	m, err := reg.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if m.WeightFormat() != 4 {
		t.Fatalf("freshly trained model persisted as v%d, want v4", m.WeightFormat())
	}
	if runtime.GOOS == "linux" && mmapx.Live() != before+1 {
		t.Fatalf("mapped load did not register a live mapping (before %d, after %d)", before, mmapx.Live())
	}
}
