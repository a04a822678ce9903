package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/ann"
)

// Version-3 binary model body.
//
// The v1/v2 body is a gob stream; decoding it dominates replica model
// installs (reflection-driven, allocation-heavy). The v3 body is a flat
// little-endian section stream designed so a reader can jump straight
// to the weights:
//
//	magic   "MLT3" + 4 reserved zero bytes          (8 bytes)
//	section tag[4] | uint32 length | payload | pad  (repeated)
//
// Every section payload is padded to an 8-byte boundary *relative to
// the magic*, and the section header is 8 bytes, so each section —
// including the raw weight block — starts 8-aligned within the body.
// Unknown tags are skipped on read (additive sections stay
// backward compatible); the three defined sections are:
//
//	"SCAL"  target scaler: Mean, Std            (2 × float64)
//	"ENSH"  ensemble shape: member count, then per member the layer
//	        count, the layer sizes (uint32) and the activation codes
//	        (uint8, see actCode)
//	"WGTS"  all weights, member-major layer-major, float64, in the
//	        exact layout ann.NetworkState records
//
// This build only reads v3 bodies — Save writes v4 (persistbin4.go),
// which reuses the section payload encodings below. Reading validates
// every length against hard limits before allocating, and any
// truncation or corruption returns an error — never a panic.

var binMagic = [8]byte{'M', 'L', 'T', '3', 0, 0, 0, 0}

const (
	binSecScaler  = "SCAL"
	binSecShape   = "ENSH"
	binSecWeights = "WGTS"

	// Decode limits: far above any real model, low enough that a
	// corrupted length field cannot drive a huge allocation.
	binMaxMembers   = 1 << 12
	binMaxLayers    = 1 << 8
	binMaxLayerSize = 1 << 20
	binMaxWeights   = 1 << 27 // 1 GiB of float64s
)

// actCode pins the on-disk activation encoding independently of the
// Activation enum's numeric values.
func actCode(name string) (uint8, bool) {
	switch name {
	case "sigmoid":
		return 0, true
	case "tanh":
		return 1, true
	case "relu":
		return 2, true
	case "linear":
		return 3, true
	}
	return 0, false
}

func actName(code uint8) (string, bool) {
	switch code {
	case 0:
		return "sigmoid", true
	case 1:
		return "tanh", true
	case 2:
		return "relu", true
	case 3:
		return "linear", true
	}
	return "", false
}

// encodeScalerSection encodes the SCAL payload.
func encodeScalerSection(scaler ann.TargetScaler) []byte {
	var scal [16]byte
	binary.LittleEndian.PutUint64(scal[0:], math.Float64bits(scaler.Mean))
	binary.LittleEndian.PutUint64(scal[8:], math.Float64bits(scaler.Std))
	return scal[:]
}

// encodeShapeSection encodes the ENSH payload (the v3 encoding, reused by
// the v4 writer) and returns the total weight count the shape implies.
func encodeShapeSection(st ann.EnsembleState) ([]byte, int, error) {
	var shape []byte
	u32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		shape = append(shape, b[:]...)
	}
	u32(uint32(len(st.Nets)))
	totalWeights := 0
	for _, n := range st.Nets {
		u32(uint32(len(n.Weights)))
		for _, sz := range n.Sizes {
			u32(uint32(sz))
		}
		for _, a := range n.Acts {
			code, ok := actCode(a)
			if !ok {
				return nil, 0, fmt.Errorf("core: binary encode: unknown activation %q", a)
			}
			shape = append(shape, code)
		}
		for _, lw := range n.Weights {
			totalWeights += len(lw)
		}
	}
	return shape, totalWeights, nil
}

// encodeWeightSection encodes the WGTS payload, member-major
// layer-major float64 little-endian.
func encodeWeightSection(st ann.EnsembleState, totalWeights int) []byte {
	weights := make([]byte, 0, totalWeights*8)
	var b [8]byte
	for _, n := range st.Nets {
		for _, lw := range n.Weights {
			for _, v := range lw {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				weights = append(weights, b[:]...)
			}
		}
	}
	return weights
}

// binCursor walks a fully-read v3 body with bounds-checked reads.
type binCursor struct {
	buf []byte
	off int
}

func (c *binCursor) take(n int) ([]byte, error) {
	if n < 0 || c.off+n > len(c.buf) {
		return nil, fmt.Errorf("core: v3 model body truncated (want %d bytes at offset %d of %d)", n, c.off, len(c.buf))
	}
	p := c.buf[c.off : c.off+n]
	c.off += n
	return p, nil
}

func (c *binCursor) u32() (uint32, error) {
	p, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(p), nil
}

// decodeBinaryPayload parses a v3 body into the scaler and ensemble
// state. members is the header's advertised member count, cross-checked
// against the shape section.
func decodeBinaryPayload(body []byte, members int) (ann.TargetScaler, ann.EnsembleState, error) {
	var scaler ann.TargetScaler
	var st ann.EnsembleState

	c := &binCursor{buf: body}
	magic, err := c.take(8)
	if err != nil {
		return scaler, st, err
	}
	if string(magic) != string(binMagic[:]) {
		return scaler, st, fmt.Errorf("core: v3 model body has bad magic %q", magic[:4])
	}

	var scal, shape, weights []byte
	for c.off < len(c.buf) {
		hdr, err := c.take(8)
		if err != nil {
			return scaler, st, err
		}
		tag := string(hdr[:4])
		length := int(binary.LittleEndian.Uint32(hdr[4:]))
		payload, err := c.take(length)
		if err != nil {
			return scaler, st, err
		}
		if pad := (8 - c.off%8) % 8; pad > 0 {
			if _, err := c.take(pad); err != nil {
				return scaler, st, err
			}
		}
		switch tag {
		case binSecScaler:
			scal = payload
		case binSecShape:
			shape = payload
		case binSecWeights:
			weights = payload
		default:
			// Unknown section: skip. Additive sections from a newer minor
			// revision must not break this reader.
		}
	}
	if scal == nil || shape == nil || weights == nil {
		return scaler, st, fmt.Errorf("core: v3 model body is missing a required section (have scaler=%t shape=%t weights=%t)",
			scal != nil, shape != nil, weights != nil)
	}
	scaler, err = parseScalerSection(scal)
	if err != nil {
		return scaler, st, err
	}
	st.Nets, _, err = parseShapeSection(shape, members)
	if err != nil {
		return scaler, st, err
	}
	if err := decodeWeightSection(st.Nets, weights); err != nil {
		return scaler, st, err
	}
	return scaler, st, nil
}

// parseScalerSection decodes a SCAL payload.
func parseScalerSection(scal []byte) (ann.TargetScaler, error) {
	var scaler ann.TargetScaler
	if len(scal) != 16 {
		return scaler, fmt.Errorf("core: model scaler section is %d bytes, want 16", len(scal))
	}
	scaler.Mean = math.Float64frombits(binary.LittleEndian.Uint64(scal[0:]))
	scaler.Std = math.Float64frombits(binary.LittleEndian.Uint64(scal[8:]))
	return scaler, nil
}

// parseShapeSection decodes an ENSH payload into per-member topologies
// (Weights left nil) plus the total weight count the shape implies,
// validating every length against the decode limits. members, when
// positive, is cross-checked against the header's advertised count.
func parseShapeSection(shape []byte, members int) ([]ann.NetworkState, int, error) {
	sc := &binCursor{buf: shape}
	k, err := sc.u32()
	if err != nil {
		return nil, 0, err
	}
	if k == 0 || k > binMaxMembers {
		return nil, 0, fmt.Errorf("core: model body claims %d ensemble members", k)
	}
	if members > 0 && int(k) != members {
		return nil, 0, fmt.Errorf("core: model body has %d members, header says %d", k, members)
	}
	nets := make([]ann.NetworkState, k)
	totalWeights := 0
	for i := range nets {
		layers, err := sc.u32()
		if err != nil {
			return nil, 0, err
		}
		if layers == 0 || layers > binMaxLayers {
			return nil, 0, fmt.Errorf("core: model member %d claims %d weight layers", i, layers)
		}
		sizes := make([]int, layers+1)
		for j := range sizes {
			sz, err := sc.u32()
			if err != nil {
				return nil, 0, err
			}
			if sz == 0 || sz > binMaxLayerSize {
				return nil, 0, fmt.Errorf("core: model member %d layer size %d out of range", i, sz)
			}
			sizes[j] = int(sz)
		}
		acts := make([]string, layers)
		rawActs, err := sc.take(int(layers))
		if err != nil {
			return nil, 0, err
		}
		for j, code := range rawActs {
			name, ok := actName(code)
			if !ok {
				return nil, 0, fmt.Errorf("core: model member %d has unknown activation code %d", i, code)
			}
			acts[j] = name
		}
		nets[i] = ann.NetworkState{Sizes: sizes, Acts: acts}
		for l := 0; l < int(layers); l++ {
			totalWeights += (sizes[l] + 1) * sizes[l+1]
			if totalWeights > binMaxWeights {
				return nil, 0, fmt.Errorf("core: model claims more than %d weights", binMaxWeights)
			}
		}
	}
	if sc.off != len(sc.buf) {
		return nil, 0, fmt.Errorf("core: model shape section has %d trailing bytes", len(sc.buf)-sc.off)
	}
	return nets, totalWeights, nil
}

// shapeWeightCount returns the weight count nets imply (shared by the
// weight-section validators).
func shapeWeightCount(nets []ann.NetworkState) int {
	total := 0
	for _, n := range nets {
		for l := 0; l < len(n.Acts); l++ {
			total += (n.Sizes[l] + 1) * n.Sizes[l+1]
		}
	}
	return total
}

// decodeWeightSection fills nets' Weights by copying out of a WGTS
// payload: the byte-order-independent path of every version (the v4
// loader's zero-copy alias path, float64s, lives in persistbin4.go).
func decodeWeightSection(nets []ann.NetworkState, weights []byte) error {
	totalWeights := shapeWeightCount(nets)
	if len(weights) != totalWeights*8 {
		return fmt.Errorf("core: model weight section is %d bytes, shape wants %d", len(weights), totalWeights*8)
	}
	off := 0
	for i := range nets {
		n := &nets[i]
		n.Weights = make([][]float64, len(n.Acts))
		for l := range n.Weights {
			cnt := (n.Sizes[l] + 1) * n.Sizes[l+1]
			lw := make([]float64, cnt)
			for j := range lw {
				lw[j] = math.Float64frombits(binary.LittleEndian.Uint64(weights[off:]))
				off += 8
			}
			n.Weights[l] = lw
		}
	}
	return nil
}
