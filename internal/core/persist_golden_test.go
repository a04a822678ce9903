package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/devsim"
	"repro/internal/tuning"
)

// saveLegacyModel writes m in the retired gob-bodied layout (versions 1
// and 2). Production code only *reads* those versions now; the golden
// tests keep a writer so `-update` can regenerate the compatibility
// artifacts without digging old builds out of history.
func saveLegacyModel(w io.Writer, m *Model, version int) error {
	params := make([]paramHeader, len(m.space.Params()))
	for i, p := range m.space.Params() {
		params[i] = paramHeader{Name: p.Name, Values: append([]int(nil), p.Values...)}
	}
	hdr := modelHeader{
		Format:       modelFormat,
		Version:      version,
		Space:        spaceHeader{Name: m.space.Name(), Params: params},
		LogTransform: m.logT,
		Members:      m.ensemble.Size(),
	}
	if version >= modelVersionV2 && m.schema.TailDim() > 0 {
		hdr.Schema = &schemaHeader{Device: m.schema.DeviceFields(), Input: m.schema.InputFields()}
	}
	line, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(line, '\n')); err != nil {
		return err
	}
	payload := modelPayload{Scaler: m.scaler, Ensemble: m.ensemble.State()}
	return gob.NewEncoder(w).Encode(&payload)
}

// saveV3Model writes m in the retired version-3 layout: the v2 header
// and the 8-aligned binary section body of persistbin.go. Like
// saveLegacyModel it exists for `-update` and for the v3 install
// benchmark; Save always writes version 4.
func saveV3Model(w io.Writer, m *Model) error {
	params := make([]paramHeader, len(m.space.Params()))
	for i, p := range m.space.Params() {
		params[i] = paramHeader{Name: p.Name, Values: append([]int(nil), p.Values...)}
	}
	hdr := modelHeader{
		Format:       modelFormat,
		Version:      modelVersionV3,
		Space:        spaceHeader{Name: m.space.Name(), Params: params},
		LogTransform: m.logT,
		Members:      m.ensemble.Size(),
	}
	if m.schema.TailDim() > 0 {
		hdr.Schema = &schemaHeader{Device: m.schema.DeviceFields(), Input: m.schema.InputFields()}
	}
	line, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	st := m.ensemble.State()
	shape, totalWeights, err := encodeShapeSection(st)
	if err != nil {
		return err
	}
	body := append([]byte(nil), binMagic[:]...)
	for _, sec := range []struct {
		tag     string
		payload []byte
	}{
		{binSecScaler, encodeScalerSection(m.scaler)},
		{binSecShape, shape},
		{binSecWeights, encodeWeightSection(st, totalWeights)},
	} {
		body = append(body, sec.tag...)
		body = binary.LittleEndian.AppendUint32(body, uint32(len(sec.payload)))
		body = append(body, sec.payload...)
		// Pad to 8 bytes relative to the end of the magic.
		for (len(body)-len(binMagic))%8 != 0 {
			body = append(body, 0)
		}
	}
	_, err = w.Write(append(append(line, '\n'), body...))
	return err
}

// saveV3ModelFile is saveV3Model to the named file.
func saveV3ModelFile(path string, m *Model) error {
	var buf bytes.Buffer
	if err := saveV3Model(&buf, m); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// goldenPortableModel trains the deterministic portable model behind the
// v2 and v3 golden files.
func goldenPortableModel(t *testing.T) *Model {
	t.Helper()
	space := goldenSpace()
	model, err := TrainModel(space, twoDeviceSamples(space, 48), nil, portableTestConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// goldenBoundPredictions samples pinned predictions from the model bound
// to a fixed catalog device.
func goldenBoundPredictions(t *testing.T, m *Model) []goldenPrediction {
	t.Helper()
	desc := devsim.MustLookup(devsim.NvidiaK40).Descriptor()
	bound, err := m.WithDevice(tuning.DeviceVector(&desc, nil))
	if err != nil {
		t.Fatal(err)
	}
	space := m.Space()
	scratch := bound.NewScratch()
	var preds []goldenPrediction
	for idx := int64(0); idx < space.Size(); idx += 7 {
		secs := bound.Predict(space.At(idx), scratch)
		preds = append(preds, goldenPrediction{
			Index: idx, Bits: strconv.FormatUint(math.Float64bits(secs), 16)})
	}
	return preds
}

func checkGoldenPredictions(t *testing.T, m *Model, preds []goldenPrediction) {
	t.Helper()
	if len(preds) == 0 {
		t.Fatal("no golden predictions")
	}
	desc := devsim.MustLookup(devsim.NvidiaK40).Descriptor()
	bound, err := m.WithDevice(tuning.DeviceVector(&desc, nil))
	if err != nil {
		t.Fatal(err)
	}
	scratch := bound.NewScratch()
	space := m.Space()
	for _, p := range preds {
		wantBits, err := strconv.ParseUint(p.Bits, 16, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got := bound.Predict(space.At(p.Index), scratch); math.Float64bits(got) != wantBits {
			t.Errorf("index %d: predicted %v (bits %x), golden bits %s",
				p.Index, got, math.Float64bits(got), p.Bits)
		}
	}
}

func writeGoldenPredictions(t *testing.T, path string, preds []goldenPrediction) {
	t.Helper()
	buf, err := json.MarshalIndent(preds, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGoldenPredictions(t *testing.T, path string) []goldenPrediction {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden predictions missing (regenerate with -update): %v", err)
	}
	var preds []goldenPrediction
	if err := json.Unmarshal(buf, &preds); err != nil {
		t.Fatal(err)
	}
	return preds
}

// TestGoldenV2ModelBitIdentical pins the gob-bodied schema-aware layout:
// a version-2 artifact must keep loading and predicting bit-identically
// even though Save no longer emits it.
func TestGoldenV2ModelBitIdentical(t *testing.T) {
	modelPath := filepath.Join("testdata", "golden_v2.mlt")
	predPath := filepath.Join("testdata", "golden_v2_predictions.json")

	if *updateGolden {
		model := goldenPortableModel(t)
		var legacy bytes.Buffer
		if err := saveLegacyModel(&legacy, model, modelVersionV2); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(modelPath, legacy.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		writeGoldenPredictions(t, predPath, goldenBoundPredictions(t, model))
	}

	raw, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatalf("golden model missing (regenerate with -update): %v", err)
	}
	var hdr struct {
		Version int             `json:"version"`
		Schema  json.RawMessage `json:"schema"`
	}
	if err := json.Unmarshal(raw[:bytes.IndexByte(raw, '\n')], &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Version != 2 || hdr.Schema == nil {
		t.Fatalf("golden file is not version 2 with schema: version=%d", hdr.Version)
	}
	model, err := LoadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !model.Portable() {
		t.Fatal("v2 golden lost its device block")
	}
	if model.WeightFormat() != 2 {
		t.Fatalf("WeightFormat() = %d, want 2", model.WeightFormat())
	}
	checkGoldenPredictions(t, model, readGoldenPredictions(t, predPath))
}

// TestGoldenV3ModelBitIdentical pins the binary layout itself: the
// committed artifact must load bit-identically, and re-saving it — Save
// always writes version 4 — must yield a v4 file that loads to the same
// predictions, bit for bit.
func TestGoldenV3ModelBitIdentical(t *testing.T) {
	modelPath := filepath.Join("testdata", "golden_v3.mlt")
	predPath := filepath.Join("testdata", "golden_v3_predictions.json")

	if *updateGolden {
		model := goldenPortableModel(t)
		if err := saveV3ModelFile(modelPath, model); err != nil {
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
	if hdr.Version != 3 || hdr.Schema == nil {
		t.Fatalf("golden file is not version 3 with schema: version=%d", hdr.Version)
	}
	if !bytes.HasPrefix(raw[nl+1:], binMagic[:]) {
		t.Fatalf("v3 body does not start with the binary magic: %q", raw[nl+1:nl+9])
	}
	model, err := LoadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if model.WeightFormat() != 3 {
		t.Fatalf("WeightFormat() = %d, want 3", model.WeightFormat())
	}
	preds := readGoldenPredictions(t, predPath)
	checkGoldenPredictions(t, model, preds)

	// Re-save: the v3 model is written as v4 and reloads to the same
	// predictions.
	var out bytes.Buffer
	if err := model.Save(&out); err != nil {
		t.Fatal(err)
	}
	resaved, err := LoadModel(bytes.NewReader(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if resaved.WeightFormat() != 4 {
		t.Fatalf("re-saved v3 model has WeightFormat() = %d, want 4", resaved.WeightFormat())
	}
	checkGoldenPredictions(t, resaved, preds)
}

// TestWeightFormatFreshModel pins that untrained-from-disk models report
// the version Save would write.
func TestWeightFormatFreshModel(t *testing.T) {
	if got := goldenModel(t).WeightFormat(); got != maxModelVersion {
		t.Fatalf("WeightFormat() = %d, want %d", got, maxModelVersion)
	}
}

// FuzzModelV3Codec feeds mutated model files to LoadModel, and so to
// LoadModelBytes, the one parser behind every version: truncation and
// corruption must produce errors, never panics, and any input that does
// load must re-save deterministically. The committed v3 golden file
// seeds the v3 binary body decoder.
func FuzzModelV3Codec(f *testing.F) {
	space := tuning.NewSpace("fz", tuning.Pow2Param("wg", 1, 8), tuning.BoolParam("v"))
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
	f.Add([]byte("{\"format\":\"mltune-model\",\"version\":3,\"space\":{\"name\":\"x\",\"params\":[{\"name\":\"a\",\"values\":[1,2]}]}}\nMLT3\x00\x00\x00\x00"))
	corrupt := append([]byte(nil), valid.Bytes()...)
	corrupt[len(corrupt)-9] ^= 0x40
	f.Add(corrupt)
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_v3.mlt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
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
