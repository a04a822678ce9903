package core

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/ann"
	"repro/internal/bench"
	"repro/internal/devsim"
	"repro/internal/tuning"
)

// paperConvModel trains the paper-default convolution model (k=11,
// hidden=30) on simulated K40 measurements, shared across the heavy
// top-M tests.
var (
	paperConvOnce  sync.Once
	paperConvModel *Model
	paperConvErr   error
)

func paperConvolutionModel(t testing.TB) *Model {
	t.Helper()
	if testing.Short() {
		t.Skip("paper-scale convolution model: skipped in -short")
	}
	paperConvOnce.Do(func() {
		bm := bench.MustLookup("convolution")
		meas, err := NewSimMeasurer(bm, devsim.MustLookup(devsim.NvidiaK40), bench.Size{}, 3)
		if err != nil {
			paperConvErr = err
			return
		}
		rng := rand.New(rand.NewSource(8))
		var samples []Sample
		for _, cfg := range bm.Space().Sample(rng, 400) {
			secs, err := meas.Measure(context.Background(), cfg)
			if err != nil {
				continue
			}
			samples = append(samples, Sample{Config: cfg, Seconds: secs})
		}
		mc := DefaultModelConfig(8) // paper defaults: k=11, hidden=30
		mc.Ensemble.Train.Epochs = 30
		paperConvModel, paperConvErr = TrainModel(bm.Space(), samples, nil, mc)
	})
	if paperConvErr != nil {
		t.Fatal(paperConvErr)
	}
	return paperConvModel
}

// v4LoadedConvolutionModel is paperConvolutionModel taken through
// SaveFile and the memory-mapped LoadModelFile: its int16 tables are the
// ones every load rebuilds from the file's weights.
func v4LoadedConvolutionModel(t testing.TB) *Model {
	t.Helper()
	path := filepath.Join(t.TempDir(), "conv.mlt")
	if err := paperConvolutionModel(t).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.arena == nil {
		t.Fatal("v4 LoadModelFile did not retain the arena")
	}
	return m
}

// portableOutOfDomainModel trains a small portable convolution model
// pooled from three catalog devices and binds it to a GTX980 descriptor
// whose 40 GHz clock puts the clock feature (clock/5 GHz = 8) outside
// the int16 tables' input domain. Descriptor.Validate accepts it, so a
// client can send it.
func portableOutOfDomainModel(t testing.TB) *Model {
	t.Helper()
	if testing.Short() {
		t.Skip("portable convolution model: skipped in -short")
	}
	bm := bench.MustLookup("convolution")
	rng := rand.New(rand.NewSource(9))
	var samples []Sample
	for _, name := range []string{devsim.IntelI7, devsim.AMD7970, devsim.NvidiaK40} {
		dev := devsim.MustLookup(name)
		desc := dev.Descriptor()
		vec := tuning.DeviceVector(&desc, nil)
		meas, err := NewSimMeasurer(bm, dev, bench.Size{}, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range bm.Space().Sample(rng, 150) {
			secs, err := meas.Measure(context.Background(), cfg)
			if err != nil {
				continue
			}
			samples = append(samples, Sample{Config: cfg, Seconds: secs, Device: vec})
		}
	}
	mc := DefaultModelConfig(9)
	mc.Ensemble.K = 3
	mc.Ensemble.Hidden = 12
	mc.Ensemble.Train.Epochs = 30
	mc.DeviceFeatures = true
	portable, err := TrainModel(bm.Space(), samples, nil, mc)
	if err != nil {
		t.Fatal(err)
	}
	desc := devsim.MustLookup(devsim.NvidiaGTX980).Descriptor()
	desc.ClockGHz = 40
	if err := desc.Validate(); err != nil {
		t.Fatalf("out-of-domain descriptor rejected: %v", err)
	}
	bound, err := portable.WithDevice(tuning.DeviceVector(&desc, nil))
	if err != nil {
		t.Fatal(err)
	}
	return bound
}

// refusedTestModel is trainedTestModel with one first-layer weight set
// to 4e4, past the int16 range: the quantiser refuses the ensemble.
func refusedTestModel(t testing.TB) *Model {
	t.Helper()
	m := trainedTestModel(t)
	st := m.ensemble.State()
	st.Nets[0].Weights[0][0] = 4e4
	ensemble, err := ann.EnsembleFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	refused := *m
	refused.ensemble = ensemble
	refused.q16 = quantizeScreen(ensemble)
	if refused.q16 != nil {
		t.Fatal("quantiser accepted a 4e4 weight")
	}
	return &refused
}

// TestTopMEngineSetIdentity pins the screen-selection contract: each
// model class takes the int16 screen only where its own inputs allow it
// — no option picks it — and every one returns exactly the set, order
// and seconds of an unscreened exhaustive exact sweep, for every worker
// count. Rows are named after the path they must take:
//
//   - "int16": a freshly trained model takes the int16 screen, which
//     must prune — fewer than 5% of the space pays an exact score;
//   - "v4-loaded": the same model saved and loaded back through the
//     memory mapping takes the int16 screen its load quantised, under
//     the same pruning requirement;
//   - "exact-out-of-domain": a portable model bound to an out-of-domain
//     descriptor takes the exact sweep, because the int16 error proof
//     does not cover its features;
//   - "exact-refused": a model the quantiser refuses takes the exact
//     sweep.
//
// The exact rows score every configuration.
func TestTopMEngineSetIdentity(t *testing.T) {
	const M = 50
	for _, tc := range []struct {
		name  string
		model func(t testing.TB) *Model
		int16 bool
	}{
		{"int16", paperConvolutionModel, true},
		{"v4-loaded", v4LoadedConvolutionModel, true},
		{"exact-out-of-domain", portableOutOfDomainModel, false},
		{"exact-refused", refusedTestModel, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.model(t)
			if got := m.newScreen() != nil; got != tc.int16 {
				t.Fatalf("int16 screen engaged = %v, want %v", got, tc.int16)
			}
			want := bruteTopM(m, M)
			res := m.TopMIncremental(M, nil)
			if !samePredicted(res.Top, want) {
				t.Fatal("screened TopM differs from the exhaustive exact sweep")
			}
			size := m.Space().Size()
			if tc.int16 && res.Scored*20 >= size {
				t.Fatalf("int16 screen scored %d of %d configs (≥ 5%%): it did not prune", res.Scored, size)
			}
			if !tc.int16 && res.Scored != size {
				t.Fatalf("exact sweep scored %d of %d configs, want all", res.Scored, size)
			}
			t.Logf("scored %d of %d configs (%.2f%%)", res.Scored, size, 100*float64(res.Scored)/float64(size))
			for _, workers := range []int{1, 3, 8} {
				if got := m.topM(M, workers); !samePredicted(got, want) {
					t.Fatalf("workers=%d: screened TopM differs from the exhaustive exact sweep", workers)
				}
			}
		})
	}
}

// BenchmarkTopMOutOfDomain measures the exact fallback's cost: one
// full-space top-M sweep of a portable convolution model bound to a
// descriptor outside the int16 input domain, so no configuration is
// pruned and every one pays the exact forward pass.
func BenchmarkTopMOutOfDomain(b *testing.B) {
	m := portableOutOfDomainModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if top := m.topM(200, 1); len(top) != 200 {
			b.Fatalf("TopM returned %d configs", len(top))
		}
	}
}

// retrainedTestModel retrains trainedTestModel's problem with one more
// epoch: a registry-swap stand-in whose weights differ slightly
// everywhere, the incremental path's motivating case.
func retrainedTestModel(t testing.TB) *Model {
	t.Helper()
	m := trainedTestModel(t)
	space := m.Space()
	rng := rand.New(rand.NewSource(77))
	samples := make([]Sample, 0, 300)
	for _, cfg := range space.Sample(rng, 300) {
		lx := math.Log2(float64(cfg.Value("x")))
		ly := math.Log2(float64(cfg.Value("y")))
		secs := 0.5 + (lx-3)*(lx-3) + 0.3*(ly-2)*(ly-2) + 0.1*float64(cfg.Value("a"))
		if cfg.Bool("z") {
			secs *= 1.2
		}
		samples = append(samples, Sample{Config: cfg, Seconds: secs})
	}
	mc := DefaultModelConfig(77)
	mc.Ensemble.K = 5
	mc.Ensemble.Hidden = 12
	mc.Ensemble.Train = ann.TrainConfig{Epochs: 61, LearningRate: 0.3, Momentum: 0.9, BatchSize: 8}
	model, err := TrainModel(space, samples, nil, mc)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func samePredicted(a, b []Predicted) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTopMIncrementalExactReuse: when nothing a prediction depends on
// changed, the previous result is returned with zero forward passes.
func TestTopMIncrementalExactReuse(t *testing.T) {
	m := trainedTestModel(t)
	const M = 50
	cold := m.TopMIncremental(M, nil)
	if cold.Scored <= 0 {
		t.Fatalf("cold sweep reports %d exact scores", cold.Scored)
	}
	if !samePredicted(cold.Top, m.TopM(M)) {
		t.Fatal("cold incremental result differs from TopM")
	}
	warm := m.TopMIncremental(M, cold)
	if warm.Scored != 0 {
		t.Fatalf("unchanged model re-scored %d configs, want 0", warm.Scored)
	}
	if !samePredicted(warm.Top, cold.Top) {
		t.Fatal("reused result differs from the previous one")
	}
}

// TestTopMIncrementalAfterRetrain is the acceptance pin: after a
// simulated registry swap (same space, new weights), the seeded sweep
// returns the identical set to a cold sweep of the new model while
// paying strictly fewer exact forward passes.
func TestTopMIncrementalAfterRetrain(t *testing.T) {
	const M = 50
	prev := trainedTestModel(t).TopMIncremental(M, nil)
	m2 := retrainedTestModel(t)

	cold := m2.TopMIncremental(M, nil)
	warm := m2.TopMIncremental(M, prev)
	if !samePredicted(cold.Top, m2.TopM(M)) {
		t.Fatal("cold incremental result differs from TopM")
	}
	if !samePredicted(warm.Top, cold.Top) {
		t.Fatal("seeded sweep returned a different set than the cold sweep")
	}
	if warm.Scored == 0 {
		t.Fatal("retrained model claims pure reuse (fingerprint failed to change)")
	}
	if warm.Scored >= cold.Scored {
		t.Fatalf("seeded sweep scored %d configs, cold scored %d — warm start saved nothing",
			warm.Scored, cold.Scored)
	}
	t.Logf("cold scored %d, seeded scored %d (%.1f%%)",
		cold.Scored, warm.Scored, 100*float64(warm.Scored)/float64(cold.Scored))
}

// TestTopMIncrementalWorkerInvariant: the seeded sweep's result must not
// depend on the partition count.
func TestTopMIncrementalWorkerInvariant(t *testing.T) {
	const M = 30
	prev := trainedTestModel(t).TopMIncremental(M, nil)
	m2 := retrainedTestModel(t)
	want := bruteTopM(m2, M)
	for _, workers := range []int{1, 2, 3, 5, 8} {
		got := m2.topMIncremental(M, workers, prev)
		if !samePredicted(got.Top, want) {
			t.Fatalf("workers=%d: seeded result differs from specification", workers)
		}
	}
}

// TestTopMIncrementalRejectsForeignPrev: a previous result for another M
// or another space must be ignored, not misused.
func TestTopMIncrementalRejectsForeignPrev(t *testing.T) {
	m := trainedTestModel(t)
	const M = 40
	want := m.TopM(M)

	otherM := m.TopMIncremental(M+10, nil)
	got := m.TopMIncremental(M, otherM)
	if !samePredicted(got.Top, want) {
		t.Fatal("prev with different M corrupted the result")
	}

	foreign := &TopMResult{M: M, Top: []Predicted{{Index: m.Space().Size() + 5, Seconds: 1}}}
	got = m.TopMIncremental(M, foreign)
	if !samePredicted(got.Top, want) {
		t.Fatal("prev with out-of-range indices corrupted the result")
	}
}

// TestTopMIncrementalInt16Engine: the warm-started sweep composes with
// the int16 screen without changing the answer.
func TestTopMIncrementalInt16Engine(t *testing.T) {
	const M = 50
	prev := trainedTestModel(t).TopMIncremental(M, nil)
	m2 := retrainedTestModel(t)
	if m2.newScreen() == nil {
		t.Fatal("retrained model does not take the int16 screen")
	}
	warm := m2.TopMIncremental(M, prev)
	if !samePredicted(warm.Top, bruteTopM(m2, M)) {
		t.Fatal("int16-screened seeded sweep differs from the scalar specification")
	}
}

// TestMemberFingerprints pins the generation-tag behaviour the
// incremental path keys on: stable across calls, sensitive to weights.
func TestMemberFingerprints(t *testing.T) {
	m1 := trainedTestModel(t)
	m2 := retrainedTestModel(t)
	a := m1.ensemble.MemberFingerprints(nil)
	b := m1.ensemble.MemberFingerprints(nil)
	if !tagsEqual(a, b) {
		t.Fatal("member fingerprints unstable across calls")
	}
	if tagsEqual(a, m2.ensemble.MemberFingerprints(nil)) {
		t.Fatal("retrained ensemble produced identical member fingerprints")
	}
	// Same space, same samples (only the epoch count differs), so the
	// non-weight fingerprint must match: the member tags alone carry the
	// retrain.
	if m1.sweepFingerprint() != m2.sweepFingerprint() {
		t.Fatal("sweep fingerprints differ despite identical non-weight inputs")
	}
}
