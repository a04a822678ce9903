package ann

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// arenaInputs builds deterministic in-domain inputs for a round-trip
// comparison batch.
func arenaInputs(rng *rand.Rand, dim, count int) []float64 {
	xs := make([]float64, dim*count)
	for i := range xs {
		xs[i] = QuantInputLo + rng.Float64()*(QuantInputHi-QuantInputLo)
	}
	return xs
}

// TestQuantTablesRoundTrip pins the serialised-table contract:
// decode(encode(q)) predicts bit-identically to q, reports the same
// error bound, and re-encodes to the same bytes (serialisation is
// deterministic, so v4 files are byte-stable).
func TestQuantTablesRoundTrip(t *testing.T) {
	for _, ec := range engineCases(t) {
		t.Run(ec.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			q, err := QuantizeEnsemble(ec.e)
			if err != nil {
				t.Fatal(err)
			}
			enc := q.AppendTables(nil)
			dec, err := QuantizedEnsembleFromTables(enc, nil)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if dec.ErrorBound() != q.ErrorBound() {
				t.Errorf("decoded bound %g != %g", dec.ErrorBound(), q.ErrorBound())
			}
			if dec.InputDim() != q.InputDim() {
				t.Errorf("decoded input dim %d != %d", dec.InputDim(), q.InputDim())
			}
			if !bytes.Equal(dec.AppendTables(nil), enc) {
				t.Errorf("re-encoded tables differ from original encoding")
			}
			count := 16
			xs := arenaInputs(rng, q.InputDim(), count)
			want := make([]float64, count)
			got := make([]float64, count)
			wantLb := make([]float64, count)
			wantUb := make([]float64, count)
			gotLb := make([]float64, count)
			gotUb := make([]float64, count)
			q.PredictBatch(xs, count, q.NewQuantScratch(count), want)
			dec.PredictBatch(xs, count, dec.NewQuantScratch(count), got)
			q.PredictBatchBounds(xs, count, q.NewQuantScratch(count), wantLb, wantUb)
			dec.PredictBatchBounds(xs, count, dec.NewQuantScratch(count), gotLb, gotUb)
			for i := 0; i < count; i++ {
				if got[i] != want[i] || gotLb[i] != wantLb[i] || gotUb[i] != wantUb[i] {
					t.Fatalf("sample %d: decoded tables diverged: %g/%g/%g vs %g/%g/%g",
						i, got[i], gotLb[i], gotUb[i], want[i], wantLb[i], wantUb[i])
				}
			}
		})
	}
}

// TestQuantTablesMisalignedPayloadFallsBack pins the copy-decode path: a
// payload at an odd byte offset cannot alias typed slices, so decoding
// must copy — and still predict identically.
func TestQuantTablesMisalignedPayloadFallsBack(t *testing.T) {
	ecs := engineCases(t)
	q, err := QuantizeEnsemble(ecs[0].e)
	if err != nil {
		t.Fatal(err)
	}
	enc := q.AppendTables(nil)
	buf := make([]byte, len(enc)+1)
	copy(buf[1:], enc)
	dec, err := QuantizedEnsembleFromTables(buf[1:], new(int))
	if err != nil {
		t.Fatalf("misaligned decode: %v", err)
	}
	if dec.hold != nil {
		t.Error("copy-decoded tables retained hold reference")
	}
	rng := rand.New(rand.NewSource(17))
	xs := arenaInputs(rng, q.InputDim(), 8)
	want := make([]float64, 8)
	got := make([]float64, 8)
	q.PredictBatch(xs, 8, q.NewQuantScratch(8), want)
	dec.PredictBatch(xs, 8, dec.NewQuantScratch(8), got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %g != %g", i, got[i], want[i])
		}
	}
}

// TestQuantTablesRejectCorruption pins panic-freedom and fail-closed
// decoding: every truncation prefix and a sweep of single-byte metadata
// corruptions must return an error or well-formed tables — never
// panic, never index out of bounds.
func TestQuantTablesRejectCorruption(t *testing.T) {
	ecs := engineCases(t)
	q, err := QuantizeEnsemble(ecs[0].e)
	if err != nil {
		t.Fatal(err)
	}
	enc := q.AppendTables(nil)
	decode := func(b []byte) error { _, err := QuantizedEnsembleFromTables(b, nil); return err }
	t.Run("int16", func(t *testing.T) {
		for cut := 0; cut < len(enc); cut++ {
			if err := decode(enc[:cut]); err == nil {
				t.Fatalf("truncation at %d bytes decoded successfully", cut)
			}
		}
		// Single-byte corruptions of the metadata region: must not
		// panic. (Corrupted array payloads decode to different — but
		// structurally valid — tables; that is the section checksum's
		// job at the persistence layer, not this codec's.)
		metaEnd := 64
		if metaEnd > len(enc) {
			metaEnd = len(enc)
		}
		for pos := 0; pos < metaEnd; pos++ {
			for _, flip := range []byte{0xFF, 0x80, 0x01} {
				mut := append([]byte(nil), enc...)
				if mut[pos] == flip {
					continue
				}
				mut[pos] = flip
				_ = decode(mut) // must simply not panic
			}
		}
	})
}

// FuzzQuantTables feeds arbitrary bytes to the decoder: any input must
// either fail cleanly or produce tables that predict without panicking.
// The seeds cover the paper topology and a deep topology.
func FuzzQuantTables(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, sizes := range [][]int{{3, 4, 1}, {3, 5, 4, 1}} {
		acts := make([]Activation, len(sizes)-1)
		for i := range acts {
			acts[i] = Sigmoid
		}
		acts[len(acts)-1] = Linear
		e := &Ensemble{nets: []*Network{MustNew(rng, sizes, acts...)}}
		if q, err := QuantizeEnsemble(e); err == nil {
			f.Add(q.AppendTables(nil))
		}
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := QuantizedEnsembleFromTables(data, nil)
		if err != nil {
			return
		}
		dim := q.InputDim()
		if dim < 1 || dim > qaMaxLayerSize {
			t.Fatalf("decoded tables have input dim %d", dim)
		}
		xs := make([]float64, dim)
		dst := make([]float64, 1)
		q.PredictBatch(xs, 1, q.NewQuantScratch(1), dst)
		if math.IsNaN(dst[0]) && !math.IsNaN(q.ErrorBound()) {
			// NaN output from finite tables would break screening.
			t.Fatalf("decoded tables predict NaN with finite bound")
		}
	})
}
