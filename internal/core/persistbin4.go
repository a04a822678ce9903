package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/ann"
	"repro/internal/mmapx"
)

// Version-4 binary model body: the zero-copy weight arena.
//
// The v3 body made replica installs parse a flat buffer instead of a
// gob stream, but installing still copied every weight to the heap.
// The v4 body removes the copy. It is a single contiguous arena laid
// out so a loader can point the ensemble's float64 weight slices
// straight into a read-only memory mapping of the file:
//
//	magic   "MLT4" + 4 reserved zero bytes, padded to 64   (64 bytes)
//	section tag[4] | uint32 length | 56 reserved zero bytes (64-byte
//	        header), payload, zero padding to the next 64-byte boundary
//
// The JSON header line above the body is space-padded so the body —
// and therefore every section payload — starts at a 64-byte *file*
// offset: payloads are cache-line aligned in the mapping, and the
// float64 weights land on their natural alignment. Sections:
//
//	"SCAL"  target scaler: Mean, Std                (2 × float64)
//	"ENSH"  ensemble shape (identical payload encoding to v3)
//	"WGTS"  all weights, member-major layer-major float64 LE — the
//	        ensemble aliases this in place (ann.EnsembleFromStateShared)
//
// The int16 top-M screening tables are not persisted: they derive from
// the weights, and every load rebuilds them with the same quantisation
// pass training runs (quantizeScreen). Files written by earlier builds
// also carry "QLUT" (the Q14 sigmoid table), "Q16T" (prebuilt int16
// tables) and "QNT8" (retired int8 tables) sections; the reader skips
// them like any unknown tag. Writing is deterministic byte for byte.
// Reading validates every length before allocating and returns errors —
// never panics — on truncation or corruption. On platforms or payloads
// where aliasing is impossible (big-endian, misaligned buffer) the
// loader transparently copy-decodes; predictions are identical.

var binMagic4 = [8]byte{'M', 'L', 'T', '4', 0, 0, 0, 0}

const (
	binAlign4  = 64
	binMaxBody = 1 << 31 // caps corrupted section lengths
)

// binWriter4 appends 64-byte-aligned sections deterministically.
type binWriter4 struct {
	w   io.Writer
	off int // bytes written past the body start
	err error
}

func (bw *binWriter4) write(p []byte) {
	if bw.err != nil {
		return
	}
	_, bw.err = bw.w.Write(p)
	bw.off += len(p)
}

func (bw *binWriter4) pad() {
	if rem := bw.off % binAlign4; rem != 0 {
		var zero [binAlign4]byte
		bw.write(zero[:binAlign4-rem])
	}
}

func (bw *binWriter4) section(tag string, payload []byte) {
	var hdr [binAlign4]byte
	copy(hdr[:4], tag)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	bw.write(hdr[:])
	bw.write(payload)
	bw.pad()
}

// writeBinaryPayloadV4 writes the v4 arena body.
func writeBinaryPayloadV4(w io.Writer, scaler ann.TargetScaler, st ann.EnsembleState) error {
	bw := &binWriter4{w: w}
	bw.write(binMagic4[:])
	bw.pad()
	bw.section(binSecScaler, encodeScalerSection(scaler))
	shape, totalWeights, err := encodeShapeSection(st)
	if err != nil {
		return err
	}
	bw.section(binSecShape, shape)
	bw.section(binSecWeights, encodeWeightSection(st, totalWeights))
	if bw.err != nil {
		return fmt.Errorf("core: writing v4 model body: %w", bw.err)
	}
	return nil
}

// v4Sections holds the located section payloads (sub-slices of the
// body, not copies).
type v4Sections struct {
	scal, shape, weights []byte
}

// parseV4Sections walks the v4 body and locates the known sections.
func parseV4Sections(body []byte) (*v4Sections, error) {
	if len(body) < binAlign4 || !bytes.Equal(body[:8], binMagic4[:]) {
		return nil, fmt.Errorf("core: v4 model body has bad magic")
	}
	s := &v4Sections{}
	off := binAlign4
	for off < len(body) {
		if off+binAlign4 > len(body) {
			return nil, fmt.Errorf("core: v4 model body truncated in a section header at offset %d", off)
		}
		tag := string(body[off : off+4])
		length := int(binary.LittleEndian.Uint32(body[off+4 : off+8]))
		if length < 0 || length > binMaxBody {
			return nil, fmt.Errorf("core: v4 section %q claims %d bytes", tag, length)
		}
		payloadOff := off + binAlign4
		if payloadOff+length > len(body) {
			return nil, fmt.Errorf("core: v4 section %q truncated (want %d bytes at offset %d of %d)",
				tag, length, payloadOff, len(body))
		}
		payload := body[payloadOff : payloadOff+length]
		switch tag {
		case binSecScaler:
			s.scal = payload
		case binSecShape:
			s.shape = payload
		case binSecWeights:
			s.weights = payload
		default:
			// Unknown section: skip. Additive sections from a newer minor
			// revision, and the table sections of older builds, must not
			// break this reader.
		}
		end := payloadOff + length
		if rem := end % binAlign4; rem != 0 {
			end += binAlign4 - rem
		}
		if end < off+binAlign4 { // overflow guard
			return nil, fmt.Errorf("core: v4 section %q has a degenerate length", tag)
		}
		off = end
	}
	if s.scal == nil || s.shape == nil || s.weights == nil {
		return nil, fmt.Errorf("core: v4 model body is missing a required section (have scaler=%t shape=%t weights=%t)",
			s.scal != nil, s.shape != nil, s.weights != nil)
	}
	return s, nil
}

// decodeBinaryPayloadV4 decodes a v4 body into its scaler and ensemble.
// arena, when non-nil, is the memory mapping backing body; it is
// threaded through as the hold reference of the ensemble, which aliases
// the body in place. With a nil arena (heap-owned body) aliasing is
// still safe — the slices keep the buffer alive — so installs skip the
// weight copy either way.
func decodeBinaryPayloadV4(body []byte, members int, arena *mmapx.Data) (ann.TargetScaler, *ann.Ensemble, error) {
	secs, err := parseV4Sections(body)
	if err != nil {
		return ann.TargetScaler{}, nil, err
	}
	scaler, err := parseScalerSection(secs.scal)
	if err != nil {
		return ann.TargetScaler{}, nil, err
	}
	nets, totalWeights, err := parseShapeSection(secs.shape, members)
	if err != nil {
		return ann.TargetScaler{}, nil, err
	}
	if len(secs.weights) != totalWeights*8 {
		return ann.TargetScaler{}, nil, fmt.Errorf("core: v4 weight section is %d bytes, shape wants %d", len(secs.weights), totalWeights*8)
	}

	// Zero-copy install: alias the weight arena in place. The fallback
	// copy-decode covers big-endian hosts and misaligned buffers.
	var ensemble *ann.Ensemble
	if ws, ok := mmapx.Float64s(secs.weights); ok {
		off := 0
		for i := range nets {
			n := &nets[i]
			n.Weights = make([][]float64, len(n.Acts))
			for l := range n.Weights {
				cnt := (n.Sizes[l] + 1) * n.Sizes[l+1]
				n.Weights[l] = ws[off : off+cnt : off+cnt]
				off += cnt
			}
		}
		ensemble, err = ann.EnsembleFromStateShared(ann.EnsembleState{Nets: nets}, arena)
	} else {
		if err := decodeWeightSection(nets, secs.weights); err != nil {
			return ann.TargetScaler{}, nil, err
		}
		ensemble, err = ann.EnsembleFromState(ann.EnsembleState{Nets: nets})
	}
	if err != nil {
		return ann.TargetScaler{}, nil, err
	}
	return scaler, ensemble, nil
}
