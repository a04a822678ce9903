package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/ann"
	"repro/internal/devsim"
	"repro/internal/tuning"
)

// retiredV4Sections are the section tags earlier builds wrote into v4
// files — the Q14 sigmoid table, the prebuilt int16 tables and the
// retired int8 tables — which the reader now skips like any unknown tag.
var retiredV4Sections = []string{"QNT8", "QLUT", "Q16T"}

// TestGoldenV4ModelBitIdentical pins the arena layout itself: the
// committed artifact must load bit-identically — through the reader,
// the file loader, and a misaligned image that forces the copy-decode
// fallback big-endian hosts always take — with its int16 screen rebuilt
// from the weights, AND Save must emit exactly the artifact minus its
// retired sections, so the writer cannot drift silently.
// The committed file is frozen: it was written by a build that
// persisted the sections in retiredV4Sections, and it is the pin that
// such files still load, so -update leaves it alone.
func TestGoldenV4ModelBitIdentical(t *testing.T) {
	modelPath := filepath.Join("testdata", "golden_v4.mlt")
	predPath := filepath.Join("testdata", "golden_v4_predictions.json")

	raw, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatalf("golden model missing: %v", err)
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
	for _, tag := range retiredV4Sections {
		if len(withoutV4Sections(t, raw, tag)) == len(raw) {
			t.Fatalf("golden file lacks the retired %q section it exists to pin", tag)
		}
	}

	// Aliasing path: the image is 8-aligned, so on a little-endian host
	// the weights alias it in place.
	if _, ok := float64s(raw[nl+1 : nl+9]); littleEndian && !ok {
		t.Fatal("float64s refused the 8-aligned golden image")
	}
	model, err := LoadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if model.WeightFormat() != 4 {
		t.Fatalf("WeightFormat() = %d, want 4", model.WeightFormat())
	}
	preds := readGoldenPredictions(t, predPath)
	checkGoldenPredictions(t, model, preds)
	fromFile, err := LoadModelFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenPredictions(t, fromFile, preds)

	// Copy-decode fallback: the same image one byte off 8-alignment, so
	// float64s refuses every section and the weights are decoded.
	shifted := make([]byte, len(raw)+1)[1:]
	copy(shifted, raw)
	if _, ok := float64s(shifted[nl+1 : nl+9]); ok {
		t.Fatal("float64s accepted a misaligned image")
	}
	copied, err := LoadModelBytes(shifted)
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenPredictions(t, copied, preds)

	// Every load quantises the weights, and the screen engages once the
	// model is bound to the golden device.
	loaded := []*Model{model, fromFile, copied}
	desc := devsim.MustLookup(devsim.NvidiaK40).Descriptor()
	for _, m := range loaded {
		if m.q16 == nil {
			t.Fatal("v4 load did not build the int16 tables")
		}
		bound, err := m.WithDevice(tuning.DeviceVector(&desc, nil))
		if err != nil {
			t.Fatal(err)
		}
		if bound.newScreen() == nil {
			t.Fatal("v4-loaded model bound to a catalog device does not take the int16 screen")
		}
	}

	// Byte-stability: re-saving any loaded model reproduces the
	// artifact exactly, less the retired sections.
	want := withoutV4Sections(t, raw, retiredV4Sections...)
	for _, m := range loaded {
		var out bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatal("re-saved v4 model differs from the committed golden bytes less the retired sections")
		}
	}
}

// withoutV4Sections returns the v4 file image raw with every section
// tagged with one of tags removed.
func withoutV4Sections(t *testing.T, raw []byte, tags ...string) []byte {
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
		if !slices.Contains(tags, string(body[off:off+4])) {
			out = append(out, body[off:end]...)
		}
		off = end
	}
	return out
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
	// A file from a build that still wrote the retired table sections.
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_v4.mlt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModelBytes(data)
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

// alignedBuf returns an 8-byte-aligned buffer of n bytes (backed by a
// []uint64 so the alignment is guaranteed, not incidental); slicing a
// byte off the front yields a deliberately misaligned view.
func alignedBuf(n int) []byte {
	raw := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(raw))), len(raw)*8)[:n]
}

func TestFloat64sRoundTrip(t *testing.T) {
	if !littleEndian {
		t.Skip("float64s never aliases on a big-endian host")
	}
	vals := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1)}
	buf := alignedBuf(8 * len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	got, ok := float64s(buf)
	if !ok {
		t.Fatalf("float64s refused an aligned buffer")
	}
	for i, v := range vals {
		if got[i] != v {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], v)
		}
	}
	if _, ok := float64s(buf[:12]); ok {
		t.Fatalf("accepted a length not a multiple of 8")
	}
}

func TestMisalignedRejected(t *testing.T) {
	buf := alignedBuf(24)
	if _, ok := float64s(buf[1:17]); ok {
		t.Fatalf("float64s accepted a misaligned buffer")
	}
}

func TestEmptyReinterpretation(t *testing.T) {
	if s, ok := float64s(nil); littleEndian && (!ok || s != nil) {
		t.Fatalf("float64s(nil): ok=%v s=%v", ok, s)
	}
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

// BenchmarkModelInstall measures LoadModelFile's file-to-servable
// latency per persistence version and model size. Every load reads the
// file into one heap buffer and rebuilds the int16 screening tables
// from the weights, so both versions grow with the weight count; v4
// skips the weight decode v3 pays (the section walk touches metadata
// only, and the quantisation pass reads the weights in place in the
// buffer). Measured on a 2-vCPU Linux host, median of seven
// interleaved 500-iteration runs: v4 small ≈ 33 µs and v4 large
// ≈ 186 µs (most of it the quantisation pass), against ≈ 38 µs and
// ≈ 271 µs for v3.
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
