package mmapx

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

func TestOpenServesFileBytes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	want := bytes.Repeat([]byte{0xa5, 0x5a, 0x01, 0xfe}, 1024)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer d.Close()
	if !bytes.Equal(d.Bytes(), want) {
		t.Fatalf("Bytes mismatch: got %d bytes", len(d.Bytes()))
	}
	if runtime.GOOS == "linux" && !d.Mapped() {
		t.Fatalf("expected a real mapping on linux")
	}
}

func TestOpenEmptyFileFallsBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer d.Close()
	if d.Mapped() {
		t.Fatalf("empty file must not be mapped")
	}
	if len(d.Bytes()) != 0 {
		t.Fatalf("expected empty bytes, got %d", len(d.Bytes()))
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatalf("expected an error for a missing file")
	}
}

func TestCloseIsIdempotentAndCountsLive(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	if err := os.WriteFile(path, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	before := Live()
	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mapped() && Live() != before+1 {
		t.Fatalf("Live = %d, want %d", Live(), before+1)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if Live() != before {
		t.Fatalf("Live = %d after Close, want %d", Live(), before)
	}
}

func TestFinalizerUnmapsDroppedData(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	if err := os.WriteFile(path, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	before := Live()
	d, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Mapped() {
		t.Skip("no real mapping on this platform")
	}
	d = nil
	_ = d
	deadline := time.Now().Add(5 * time.Second)
	for Live() != before {
		if time.Now().After(deadline) {
			t.Fatalf("mapping leaked: Live = %d, want %d", Live(), before)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

func TestFromBytes(t *testing.T) {
	b := []byte{1, 2, 3}
	d := FromBytes(b)
	if d.Mapped() {
		t.Fatalf("FromBytes must not be mapped")
	}
	if !bytes.Equal(d.Bytes(), b) {
		t.Fatalf("Bytes mismatch")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// alignedBuf returns an 8-byte-aligned buffer of n bytes (backed by a
// []uint64 so the alignment is guaranteed, not incidental); slicing a
// byte off the front yields a deliberately misaligned view.
func alignedBuf(n int) []byte {
	raw := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(raw))), len(raw)*8)[:n]
}

func TestFloat64sRoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1)}
	buf := alignedBuf(8 * len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	got, ok := Float64s(buf)
	if !ok {
		t.Fatalf("Float64s refused an aligned buffer")
	}
	for i, v := range vals {
		if got[i] != v {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], v)
		}
	}
	if _, ok := Float64s(buf[:12]); ok {
		t.Fatalf("accepted a length not a multiple of 8")
	}
}

func TestIntReinterpretation(t *testing.T) {
	buf := alignedBuf(16)
	binary.LittleEndian.PutUint64(buf[0:], uint64(0xfffffffffffffff6)) // -10
	binary.LittleEndian.PutUint64(buf[8:], 10)
	if s, ok := Int64s(buf); !ok || s[0] != -10 || s[1] != 10 {
		t.Fatalf("Int64s: ok=%v s=%v", ok, s)
	}
	binary.LittleEndian.PutUint16(buf[0:], uint16(0x8000)) // -32768
	if s, ok := Int16s(buf[:2]); !ok || s[0] != -32768 {
		t.Fatalf("Int16s: ok=%v s=%v", ok, s)
	}
}

func TestMisalignedRejected(t *testing.T) {
	buf := alignedBuf(24)
	if _, ok := Float64s(buf[1:17]); ok {
		t.Fatalf("Float64s accepted a misaligned buffer")
	}
	if _, ok := Int64s(buf[1:17]); ok {
		t.Fatalf("Int64s accepted a misaligned buffer")
	}
	if _, ok := Int16s(buf[1:5]); ok {
		t.Fatalf("Int16s accepted a misaligned buffer")
	}
}

func TestEmptyReinterpretation(t *testing.T) {
	if s, ok := Float64s(nil); !ok || s != nil {
		t.Fatalf("Float64s(nil): ok=%v s=%v", ok, s)
	}
	if s, ok := Int16s([]byte{}); !ok || s != nil {
		t.Fatalf("Int16s(empty): ok=%v s=%v", ok, s)
	}
}
