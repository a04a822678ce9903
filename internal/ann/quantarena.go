package ann

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mmapx"
)

// Serialised int16 tables for the v4 weight arena.
//
// A v4 model file carries the int16 screening tables alongside the
// float64 weights, so a serve replica installs a replicated model with
// *no* quantisation pass: the tables are rebuilt by aliasing typed
// slices straight into the (memory-mapped) payload. AppendTables and
// QuantizedEnsembleFromTables own the byte layout; the core persistence
// layer only frames the payload in a section.
//
// Layout (little-endian):
//
//	u32 memberCount | u32 layerTotal | f64 bound
//	per member:          u32 layerCount
//	per member/layer:    u32 in | u32 out | i32 k | u32 flags   (flags bit0 = linear)
//	pad to 8 bytes
//	arrays, grouped by element type so every block stays aligned:
//	  all biases  (int64, per member/layer: out values)
//	  all weights (int16, per member/layer: in·out values)
//
// k is the per-layer scale exponent (shift and invOut derive from it).
//
// Decoding is zero-copy when the payload is little-endian-native and
// each block lands on its element alignment — guaranteed for payloads
// at a 64-byte file offset, checked at runtime regardless — and falls
// back to copy-decoding otherwise. All counts are validated against
// the payload length before any slice is taken: truncated or corrupted
// tables return an error, never panic.

const (
	qaMaxMembers   = 1 << 12
	qaMaxLayers    = 1 << 8
	qaMaxLayerSize = 1 << 20
)

// qaShape is the decoded metadata prelude.
type qaShape struct {
	bound  float64
	layers [][4]int32 // per flattened layer: in, out, k, flags
	counts []int      // layers per member
	arrOff int        // byte offset of the arrays region
}

func qaPad8(n int) int { return (n + 7) &^ 7 }

// qaParseShape validates and decodes the metadata prelude.
func qaParseShape(data []byte) (*qaShape, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("ann: quant tables truncated (%d bytes)", len(data))
	}
	members := int(binary.LittleEndian.Uint32(data[0:]))
	layerTotal := int(binary.LittleEndian.Uint32(data[4:]))
	bound := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
	if members < 1 || members > qaMaxMembers {
		return nil, fmt.Errorf("ann: quant tables member count %d out of range", members)
	}
	if layerTotal < members || layerTotal > members*qaMaxLayers {
		return nil, fmt.Errorf("ann: quant tables layer total %d out of range", layerTotal)
	}
	if !(bound >= 0) || bound > 1e9 {
		return nil, fmt.Errorf("ann: quant tables error bound %g out of range", bound)
	}
	metaLen := 16 + 4*members + 16*layerTotal
	if len(data) < qaPad8(metaLen) {
		return nil, fmt.Errorf("ann: quant tables truncated before layer metadata")
	}
	sh := &qaShape{
		bound:  bound,
		counts: make([]int, members),
		layers: make([][4]int32, 0, layerTotal),
		arrOff: qaPad8(metaLen),
	}
	sum := 0
	for m := 0; m < members; m++ {
		c := int(binary.LittleEndian.Uint32(data[16+4*m:]))
		if c < 1 || c > qaMaxLayers {
			return nil, fmt.Errorf("ann: quant tables member %d layer count %d out of range", m, c)
		}
		sh.counts[m] = c
		sum += c
	}
	if sum != layerTotal {
		return nil, fmt.Errorf("ann: quant tables layer counts sum %d != total %d", sum, layerTotal)
	}
	off := 16 + 4*members
	for l := 0; l < layerTotal; l++ {
		var lay [4]int32
		for f := 0; f < 4; f++ {
			lay[f] = int32(binary.LittleEndian.Uint32(data[off+4*f:]))
		}
		if lay[0] < 1 || lay[0] > qaMaxLayerSize || lay[1] < 1 || lay[1] > qaMaxLayerSize ||
			int64(lay[0])*int64(lay[1]) > qaMaxLayerSize {
			return nil, fmt.Errorf("ann: quant tables layer %d shape %dx%d out of range", l, lay[0], lay[1])
		}
		sh.layers = append(sh.layers, lay)
		off += 16
	}
	return sh, nil
}

// qaBlock carves the next element block of n elements of elemSize bytes
// out of the arrays region, returning its bytes.
func qaBlock(data []byte, off *int, n, elemSize int) ([]byte, error) {
	need := n * elemSize
	if *off+need > len(data) {
		return nil, fmt.Errorf("ann: quant tables truncated in array region (need %d at %d of %d)", need, *off, len(data))
	}
	b := data[*off : *off+need]
	*off += need
	return b, nil
}

// AppendTables serialises the int16 tables (see the layout comment).
// The output is deterministic for given tables.
func (q *QuantizedEnsemble) AppendTables(dst []byte) []byte {
	layerTotal := 0
	for _, ls := range q.members {
		layerTotal += len(ls)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(q.members)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(layerTotal))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q.bound))
	for _, ls := range q.members {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ls)))
	}
	for _, ls := range q.members {
		for _, l := range ls {
			k := int32(math.Round(-math.Log2(l.invOut))) - qFrac
			flags := uint32(0)
			if l.linear {
				flags |= 1
			}
			dst = binary.LittleEndian.AppendUint32(dst, uint32(l.in))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(l.out))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
			dst = binary.LittleEndian.AppendUint32(dst, flags)
		}
	}
	for len(dst)%8 != 0 {
		dst = append(dst, 0)
	}
	for _, ls := range q.members {
		for _, l := range ls {
			for _, b := range l.b {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(b))
			}
		}
	}
	for _, ls := range q.members {
		for _, l := range ls {
			for _, w := range l.w {
				dst = binary.LittleEndian.AppendUint16(dst, uint16(w))
			}
		}
	}
	return dst
}

// QuantizedEnsembleFromTables rebuilds the int16 tables from serialised
// tables, aliasing the payload in place when alignment and byte order
// allow (hold then pins the payload's backing store) and copy-decoding
// otherwise. No re-quantisation happens either way.
func QuantizedEnsembleFromTables(data []byte, hold any) (*QuantizedEnsemble, error) {
	sh, err := qaParseShape(data)
	if err != nil {
		return nil, err
	}
	totalB, totalW := 0, 0
	for _, lay := range sh.layers {
		totalB += int(lay[1])
		totalW += int(lay[0]) * int(lay[1])
	}
	off := sh.arrOff
	bBytes, err := qaBlock(data, &off, totalB, 8)
	if err != nil {
		return nil, err
	}
	wBytes, err := qaBlock(data, &off, totalW, 2)
	if err != nil {
		return nil, err
	}
	// Alias either every block or none: a partial alias would leave some
	// slices pointing into the mapping after hold is dropped.
	biases, okB := mmapx.Int64s(bBytes)
	weights, okW := mmapx.Int16s(wBytes)
	if !okB || !okW {
		hold = nil
		biases = make([]int64, totalB)
		for i := range biases {
			biases[i] = int64(binary.LittleEndian.Uint64(bBytes[8*i:]))
		}
		weights = make([]int16, totalW)
		for i := range weights {
			weights[i] = int16(binary.LittleEndian.Uint16(wBytes[2*i:]))
		}
	}
	q := &QuantizedEnsemble{
		members: make([][]qLayer, len(sh.counts)),
		lut:     sigmoidLut(),
		hold:    hold,
		bound:   sh.bound,
	}
	li, bo, wo := 0, 0, 0
	for m := range q.members {
		layers := make([]qLayer, sh.counts[m])
		for l := range layers {
			lay := sh.layers[li]
			li++
			in, out, k := int(lay[0]), int(lay[1]), int(lay[2])
			linear := lay[3]&1 != 0
			if k < -qFrac || k > qMaxShift {
				return nil, fmt.Errorf("ann: quant tables layer scale %d out of range", k)
			}
			if !linear && k+qFrac-qLutBits < 0 {
				return nil, fmt.Errorf("ann: quant tables non-linear layer scale %d under the grid floor", k)
			}
			ql := qLayer{
				in:     in,
				out:    out,
				w:      weights[wo : wo+in*out],
				b:      biases[bo : bo+out],
				invOut: math.Ldexp(1, -(k + qFrac)),
				linear: linear,
			}
			if !linear {
				ql.shift = uint(k + qFrac - qLutBits)
			}
			layers[l] = ql
			bo += out
			wo += in * out
		}
		if err := qaCheckTopology(layers, m); err != nil {
			return nil, err
		}
		q.members[m] = layers
		if m == 0 {
			q.inDim = layers[0].in
		} else if layers[0].in != q.inDim {
			return nil, fmt.Errorf("ann: quant tables member %d input width %d != %d", m, layers[0].in, q.inDim)
		}
		for _, l := range layers {
			if l.out > q.maxWidth {
				q.maxWidth = l.out
			}
		}
	}
	return q, nil
}

// qaCheckTopology rejects decoded int16 members whose layer chain could
// not have come from QuantizeEnsemble: the forward pass assumes a
// single linear output fed by matching widths.
func qaCheckTopology(layers []qLayer, m int) error {
	for i, l := range layers {
		last := i == len(layers)-1
		if l.linear != last {
			return fmt.Errorf("ann: quant tables member %d: linear flag misplaced at layer %d", m, i)
		}
		if last && l.out != 1 {
			return fmt.Errorf("ann: quant tables member %d: output width %d", m, l.out)
		}
		if !last && layers[i+1].in != l.out {
			return fmt.Errorf("ann: quant tables member %d: layer %d width %d feeds %d", m, i, l.out, layers[i+1].in)
		}
	}
	return nil
}

// SigmoidTableQ14 exposes the shared Q14 sigmoid LUT for the v4
// arena's QLUT section. The table is model-independent; writers embed
// it for self-containment and loaders verify it against this shared
// copy instead of aliasing per-model tables (one hot 16 KiB table
// shared across every installed model is kinder to L1/L2 than many).
func SigmoidTableQ14() []int16 { return sigmoidLut() }
