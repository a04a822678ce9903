package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/ann"
	"repro/internal/tuning"
)

// TestGoldenV4ModelBitIdentical pins the arena layout itself: the
// committed artifact must load bit-identically — through both the
// copy (reader) and zero-copy (mmap) paths — AND be byte-identical to
// what Save emits for the same model, so the writer cannot drift
// silently. The committed file predates the int8 engine's retirement
// and carries its "QNT8" section: the reader skips it, and Save emits
// the artifact minus that section.
func TestGoldenV4ModelBitIdentical(t *testing.T) {
	modelPath := filepath.Join("testdata", "golden_v4.mlt")
	predPath := filepath.Join("testdata", "golden_v4_predictions.json")

	if *updateGolden {
		model := goldenPortableModel(t)
		if err := model.SaveFile(modelPath); err != nil {
			t.Fatal(err)
		}
		writeGoldenPredictions(t, predPath, goldenBoundPredictions(t, model))
	}

	raw, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatalf("golden model missing (regenerate with -update): %v", err)
	}
	nl := bytes.IndexByte(raw, '\n')
	var hdr struct {
		Version int             `json:"version"`
		Schema  json.RawMessage `json:"schema"`
	}
	if err := json.Unmarshal(raw[:nl], &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Version != 4 || hdr.Schema == nil {
		t.Fatalf("golden file is not version 4 with schema: version=%d", hdr.Version)
	}
	if (nl+1)%binAlign4 != 0 {
		t.Fatalf("v4 body starts at file offset %d, want a multiple of %d", nl+1, binAlign4)
	}
	if !bytes.HasPrefix(raw[nl+1:], binMagic4[:]) {
		t.Fatalf("v4 body does not start with the arena magic: %q", raw[nl+1:nl+9])
	}

	// Copy path: the plain reader.
	model, err := LoadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if model.WeightFormat() != 4 {
		t.Fatalf("WeightFormat() = %d, want 4", model.WeightFormat())
	}
	preds := readGoldenPredictions(t, predPath)
	checkGoldenPredictions(t, model, preds)

	// Zero-copy path: the memory mapping. Predictions must match bit for
	// bit and, on mmap platforms, actually serve out of the mapping.
	mapped, err := LoadModelFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.arena == nil {
		t.Fatal("v4 LoadModelFile did not retain the arena")
	}
	if runtime.GOOS == "linux" && !mapped.arena.Mapped() {
		t.Fatal("v4 arena is not memory-mapped on linux")
	}
	if mapped.q16 == nil {
		t.Fatal("v4 load did not prebuild the int16 tables")
	}
	checkGoldenPredictions(t, mapped, preds)

	// Byte-stability: re-saving either loaded model reproduces the
	// artifact exactly, less the retired int8 section.
	want := withoutV4Section(t, raw, "QNT8")
	for _, m := range []*Model{model, mapped} {
		var out bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatal("re-saved v4 model differs from the committed golden bytes")
		}
	}
}

// withoutV4Section returns the v4 file image raw with every section
// tagged tag removed.
func withoutV4Section(t *testing.T, raw []byte, tag string) []byte {
	t.Helper()
	nl := bytes.IndexByte(raw, '\n')
	out := append([]byte(nil), raw[:nl+1+binAlign4]...) // header line + magic block
	body := raw[nl+1:]
	for off := binAlign4; off < len(body); {
		if off+binAlign4 > len(body) {
			t.Fatalf("v4 image truncated at body offset %d", off)
		}
		end := off + binAlign4 + int(binary.LittleEndian.Uint32(body[off+4:off+8]))
		if rem := end % binAlign4; rem != 0 {
			end += binAlign4 - rem
		}
		if string(body[off:off+4]) != tag {
			out = append(out, body[off:end]...)
		}
		off = end
	}
	return out
}

// TestV4EngineTablesMatchQuantisation pins the core claim of the arena:
// the int16 tables decoded from a v4 file are bit-identical —
// predictions and bounds — to quantising the loaded ensemble from
// scratch, and a freshly trained model carries the same tables.
func TestV4EngineTablesMatchQuantisation(t *testing.T) {
	model := goldenPortableModel(t)
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelBytes(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.q16 == nil || model.q16 == nil {
		t.Fatal("trained or v4-loaded model lacks the int16 tables")
	}
	fresh, err := ann.QuantizeEnsemble(loaded.ensemble)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.q16.ErrorBound() != fresh.ErrorBound() {
		t.Fatal("decoded table bound differs from fresh quantisation")
	}
	rng := rand.New(rand.NewSource(3))
	dim := loaded.q16.InputDim()
	const count = 32
	xs := make([]float64, dim*count)
	for i := range xs {
		xs[i] = ann.QuantInputLo + rng.Float64()*(ann.QuantInputHi-ann.QuantInputLo)
	}
	for _, q := range []*ann.QuantizedEnsemble{model.q16, fresh} {
		a := make([]float64, count)
		b := make([]float64, count)
		alb, aub := make([]float64, count), make([]float64, count)
		blb, bub := make([]float64, count), make([]float64, count)
		loaded.q16.PredictBatch(xs, count, loaded.q16.NewQuantScratch(count), a)
		q.PredictBatch(xs, count, q.NewQuantScratch(count), b)
		loaded.q16.PredictBatchBounds(xs, count, loaded.q16.NewQuantScratch(count), alb, aub)
		q.PredictBatchBounds(xs, count, q.NewQuantScratch(count), blb, bub)
		for i := range a {
			if a[i] != b[i] || alb[i] != blb[i] || aub[i] != bub[i] {
				t.Fatalf("sample %d: decoded %g [%g, %g] != %g [%g, %g]", i, a[i], alb[i], aub[i], b[i], blb[i], bub[i])
			}
		}
	}
}

// FuzzModelV4Codec feeds mutated v4 images to LoadModelBytes:
// truncation and corruption must produce errors, never panics, and any
// input that does load must re-save deterministically.
func FuzzModelV4Codec(f *testing.F) {
	space := tuning.NewSpace("fz4", tuning.Pow2Param("wg", 1, 8), tuning.BoolParam("v"))
	var samples []Sample
	for idx := int64(0); idx < space.Size(); idx++ {
		samples = append(samples, Sample{Config: space.At(idx), Seconds: 1e-3 + 1e-4*float64(idx)})
	}
	cfg := DefaultModelConfig(5)
	cfg.Ensemble.K = 2
	cfg.Ensemble.Hidden = 3
	cfg.Ensemble.Train.Epochs = 10
	model, err := TrainModel(space, samples, nil, cfg)
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := model.Save(&valid); err != nil {
		f.Fatal(err)
	}

	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())/2])
	f.Add(valid.Bytes()[:len(valid.Bytes())-3])
	corrupt := append([]byte(nil), valid.Bytes()...)
	corrupt[len(corrupt)/2] ^= 0x40
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModelBytes(data, nil)
		if err != nil {
			return // rejecting is fine; not panicking is the property
		}
		var once, twice bytes.Buffer
		if err := m.Save(&once); err != nil {
			t.Fatalf("loaded model fails to save: %v", err)
		}
		if err := m.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("Save is not deterministic")
		}
	})
}

// benchInstallModel builds a synthetic model with the given ensemble
// size directly from state — no training — so the install benchmark can
// scale model size freely.
func benchInstallModel(b *testing.B, members, hidden int) *Model {
	b.Helper()
	space := tuning.NewSpace("inst", tuning.Pow2Param("wg", 1, 64), tuning.Pow2Param("wi", 1, 16))
	schema := tuning.ParamSchema(space)
	dim := schema.Dim()
	rng := rand.New(rand.NewSource(41))
	nets := make([]ann.NetworkState, members)
	for i := range nets {
		n := ann.MustNew(rng, []int{dim, hidden, 1}, ann.Sigmoid, ann.Linear)
		nets[i] = n.State()
	}
	ensemble, err := ann.EnsembleFromState(ann.EnsembleState{Nets: nets})
	if err != nil {
		b.Fatal(err)
	}
	return &Model{
		space:    space,
		schema:   schema,
		ensemble: ensemble,
		scaler:   ann.TargetScaler{Mean: -5, Std: 1},
		logT:     true,
		q16:      quantizeScreen(ensemble),
	}
}

// BenchmarkModelInstall measures install-to-servable latency per
// persistence version and model size. The acceptance claim is the
// scaling shape: v3 decode cost grows with the weight count (every
// float copied, the int16 tables rebuilt), while v4 stays near-flat
// as the model grows — the mmap open and section walk touch metadata
// only, and weight pages fault in lazily as predictions first use them
// (that deferral is the point: replica installs stop paying for model
// size up front).
func BenchmarkModelInstall(b *testing.B) {
	for _, size := range []struct {
		name            string
		members, hidden int
	}{
		{"small", 3, 16},
		{"large", 11, 256},
	} {
		model := benchInstallModel(b, size.members, size.hidden)
		dir := b.TempDir()
		v4Path := filepath.Join(dir, "m4.mlt")
		if err := model.SaveFile(v4Path); err != nil {
			b.Fatal(err)
		}
		v3Path := filepath.Join(dir, "m3.mlt")
		if err := saveV3ModelFile(v3Path, model); err != nil {
			b.Fatal(err)
		}
		for _, v := range []struct {
			name string
			path string
		}{{"v3", v3Path}, {"v4", v4Path}} {
			fi, err := os.Stat(v.path)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", v.name, size.name), func(b *testing.B) {
				b.ReportMetric(float64(fi.Size()), "file-bytes")
				for i := 0; i < b.N; i++ {
					m, err := LoadModelFile(v.path)
					if err != nil {
						b.Fatal(err)
					}
					if m.ensemble.Size() != size.members {
						b.Fatal("wrong model")
					}
				}
			})
		}
	}
}
