// Package mmapx memory-maps read-only files and reinterprets aligned
// byte ranges as typed slices — the zero-copy substrate of the v4 model
// arena. On platforms without mmap (or when a file cannot be mapped)
// Open degrades to a plain read, so callers never need a second code
// path: they always hold a *Data and slice its Bytes.
//
// Lifecycle: a mapped Data is unmapped by Close, which is idempotent
// and also installed as a GC finalizer — a model dropped by a registry
// swap releases its address space at the next collection even if nobody
// calls Close explicitly. Any struct that keeps a typed slice aliasing
// the mapping MUST also keep a reference to the Data (an interior
// pointer into mapped memory does not root the Data object for the GC),
// which is why the model loader threads a hold reference through every
// structure it builds over an arena. Live reports the number of currently
// mapped regions; the mmap-lifecycle tests assert it returns to zero
// once the last holder is collected.
//
// Mapped files must only ever be replaced by rename (the localfs
// backend's atomic-swap discipline): the mapping pins the old inode, so
// readers of a swapped-out model keep a consistent view. Truncating a
// mapped file in place would deliver SIGBUS on access; nothing in this
// repository does that.
package mmapx

import (
	"encoding/binary"
	"os"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Data is a read-only byte region: an mmap'd file, a read-copied file,
// or caller-provided bytes. The bytes must be treated as immutable —
// mapped regions are PROT_READ and writing them faults.
type Data struct {
	b      []byte
	mapped bool
	closed atomic.Bool
}

// live counts currently mapped (not yet unmapped) regions.
var live atomic.Int64

// Live returns the number of mapped regions that have not been
// unmapped yet — the leak detector behind the mmap-lifecycle tests.
func Live() int { return int(live.Load()) }

// Open maps the named file read-only. When mapping is unavailable (non
// unix platform, empty file, or a map failure) it falls back to reading
// the file into memory; either way the returned Data serves the file's
// bytes. Mapped Data carries a finalizer, so an abandoned mapping is
// reclaimed at GC; callers that know their lifetime should still Close.
func Open(path string) (*Data, error) {
	d, err := openMapped(path)
	if err == nil && d != nil {
		live.Add(1)
		runtime.SetFinalizer(d, (*Data).Close)
		return d, nil
	}
	if err != nil {
		return nil, err
	}
	// nil, nil: mapping unsupported or not worthwhile — read-copy.
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &Data{b: b}, nil
}

// FromBytes wraps caller-owned bytes in a Data (no mapping, Close is a
// no-op): the uniform handle for the memory storage backend and for
// replication installs that already hold the artifact in memory.
func FromBytes(b []byte) *Data { return &Data{b: b} }

// Bytes returns the region. The slice aliases the mapping (or the
// wrapped buffer) and is only valid until Close.
func (d *Data) Bytes() []byte { return d.b }

// Mapped reports whether the region is an actual memory mapping (false
// for the read-copy fallback and FromBytes).
func (d *Data) Mapped() bool { return d.mapped }

// Close unmaps a mapped region. Idempotent; a no-op for unmapped Data.
// After Close every slice derived from Bytes is invalid.
func (d *Data) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	if !d.mapped {
		return nil
	}
	runtime.SetFinalizer(d, nil)
	err := unmap(d.b)
	d.b = nil
	live.Add(-1)
	return err
}

// littleEndian reports whether the host matches the arena's on-disk
// byte order; reinterpretation is only valid when it does.
var littleEndian = func() bool {
	var probe [2]byte
	binary.LittleEndian.PutUint16(probe[:], 1)
	return binary.NativeEndian.Uint16(probe[:]) == 1
}()

// aligned reports whether b's data pointer is a multiple of align.
func aligned(b []byte, align uintptr) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%align == 0
}

// Float64s reinterprets b as little-endian float64s in place. ok is
// false — and the caller must copy-decode instead — when the host is
// big-endian, b's length is not a multiple of 8, or b is misaligned.
func Float64s(b []byte) (s []float64, ok bool) {
	if !littleEndian || len(b)%8 != 0 || !aligned(b, 8) {
		return nil, false
	}
	if len(b) == 0 {
		return nil, true
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8), true
}

// Int64s reinterprets b as little-endian int64s in place (see Float64s).
func Int64s(b []byte) (s []int64, ok bool) {
	if !littleEndian || len(b)%8 != 0 || !aligned(b, 8) {
		return nil, false
	}
	if len(b) == 0 {
		return nil, true
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8), true
}

// Int16s reinterprets b as little-endian int16s in place (see Float64s).
func Int16s(b []byte) (s []int16, ok bool) {
	if !littleEndian || len(b)%2 != 0 || !aligned(b, 2) {
		return nil, false
	}
	if len(b) == 0 {
		return nil, true
	}
	return unsafe.Slice((*int16)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/2), true
}
