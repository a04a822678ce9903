package tuning

import (
	"math"

	"repro/internal/ann"
)

// Encoder maps configurations to fixed-length float feature vectors for
// the neural network. Following the paper (§3: "our method uses values of
// tuning parameters to directly predict execution time"), each parameter
// contributes exactly one feature. Power-of-two-valued parameters are
// encoded as log2(value) so that doubling steps are equidistant, then all
// features are scaled to [0, 1] per parameter; binary parameters map to
// {0, 1} directly. The scaling keeps sigmoid units in their sensitive
// range without requiring a data-dependent standardization pass.
//
// The per-value features are precomputed at construction time, so Encode
// and EncodeIndex are table lookups — no transcendentals in the
// full-space prediction sweep.
type Encoder struct {
	space  *Space
	useLog []bool    // per parameter: encode as log2
	lo, hi []float64 // per parameter: raw feature range before scaling
	// feat[i][pos] is the scaled feature of parameter i's pos-th value,
	// exactly as Encode would compute it.
	feat [][]float64
	// featQ14[i][pos] is feat[i][pos] in Q14 fixed point, rounded exactly
	// as ann.QuantizeQ14 — the int16 screening tables' input convention —
	// so the quantised sweep pays a table lookup instead of a float encode
	// plus per-feature rounding.
	featQ14 [][]int16
}

// NewEncoder builds an encoder for the given space.
func NewEncoder(space *Space) *Encoder {
	e := &Encoder{
		space:   space,
		useLog:  make([]bool, len(space.params)),
		lo:      make([]float64, len(space.params)),
		hi:      make([]float64, len(space.params)),
		feat:    make([][]float64, len(space.params)),
		featQ14: make([][]int16, len(space.params)),
	}
	for i, p := range space.params {
		e.useLog[i] = allPositivePow2(p.Values) && len(p.Values) > 2
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range p.Values {
			f := e.raw(i, v)
			lo = math.Min(lo, f)
			hi = math.Max(hi, f)
		}
		e.lo[i], e.hi[i] = lo, hi
		e.feat[i] = make([]float64, len(p.Values))
		e.featQ14[i] = make([]int16, len(p.Values))
		for pos, v := range p.Values {
			f := e.scale(i, e.raw(i, v))
			e.feat[i][pos] = f
			e.featQ14[i][pos] = ann.QuantizeQ14(f)
		}
	}
	return e
}

// Dim returns the feature-vector length (one feature per parameter).
func (e *Encoder) Dim() int { return len(e.space.params) }

// raw returns the unscaled feature for parameter i at value v.
func (e *Encoder) raw(i, v int) float64 {
	if e.useLog[i] {
		return math.Log2(float64(v))
	}
	return float64(v)
}

// scale maps parameter i's raw feature f into [0, 1].
func (e *Encoder) scale(i int, f float64) float64 {
	if e.hi[i] > e.lo[i] {
		return (f - e.lo[i]) / (e.hi[i] - e.lo[i])
	}
	return 0
}

// Encode appends the feature vector for cfg to dst and returns it.
// Passing a dst with sufficient capacity avoids allocation in the
// full-space prediction sweep.
func (e *Encoder) Encode(cfg Config, dst []float64) []float64 {
	for i, v := range cfg.values {
		pos := e.space.params[i].IndexOf(v)
		if pos < 0 {
			// Foreign config (not produced by this space): fall back to
			// computing the feature directly, as before precomputation.
			dst = append(dst, e.scale(i, e.raw(i, v)))
			continue
		}
		dst = append(dst, e.feat[i][pos])
	}
	return dst
}

// EncodeIndex appends the feature vector of the configuration with the
// given dense space index to dst and returns it. It is bit-identical to
// Encode(space.At(idx), dst) but decodes the index digits directly, never
// materialising the Config — the allocation-free primitive of the blocked
// full-space prediction sweep. It panics if idx is out of range, matching
// Space.At.
func (e *Encoder) EncodeIndex(idx int64, dst []float64) []float64 {
	if idx < 0 || idx >= e.space.size {
		panic("tuning: EncodeIndex index out of range")
	}
	base := len(dst)
	n := len(e.space.params)
	for i := 0; i < n; i++ {
		dst = append(dst, 0)
	}
	for i := n - 1; i >= 0; i-- {
		arity := int64(e.space.params[i].Arity())
		dst[base+i] = e.feat[i][idx%arity]
		idx /= arity
	}
	return dst
}

// EncodeIndexQ14 is EncodeIndex in Q14 fixed point: it appends the int16
// feature vector of the configuration with the given dense space index,
// each feature exactly ann.QuantizeQ14 of what EncodeIndex would
// produce: the from-scratch layout the int16 screen's incremental sweep
// (built from Q14Levels) must reproduce. It panics if idx is out of
// range, matching Space.At.
func (e *Encoder) EncodeIndexQ14(idx int64, dst []int16) []int16 {
	if idx < 0 || idx >= e.space.size {
		panic("tuning: EncodeIndexQ14 index out of range")
	}
	base := len(dst)
	n := len(e.space.params)
	for i := 0; i < n; i++ {
		dst = append(dst, 0)
	}
	for i := n - 1; i >= 0; i-- {
		arity := int64(e.space.params[i].Arity())
		dst[base+i] = e.featQ14[i][idx%arity]
		idx /= arity
	}
	return dst
}

// Q14Levels returns, per parameter in encode order, the Q14 feature
// value of each parameter level — the tables behind EncodeIndexQ14, in
// the exact digit layout of EncodeIndex (last parameter fastest). The
// int16 screen's incremental full-space sweeper is built from them. The
// returned slices are fresh copies; callers may keep them.
func (e *Encoder) Q14Levels() [][]int16 {
	out := make([][]int16, len(e.featQ14))
	for i, lv := range e.featQ14 {
		out[i] = append([]int16(nil), lv...)
	}
	return out
}

func allPositivePow2(values []int) bool {
	for _, v := range values {
		if v <= 0 || v&(v-1) != 0 {
			return false
		}
	}
	return true
}
