// Package pool recycles the large per-epoch scratch buffers the reader
// pipeline burns through: differential-magnitude series, synthesis
// difference arrays, SIC residuals and reconstruction waveforms, and
// capture-container IO blocks. At 25 Msps a single epoch allocates
// several multi-hundred-KiB slices per decode; recycling them through
// sync.Pool keeps the allocator and GC out of the hot path when
// epochs stream through continuously.
//
// Buffers returned by the getters are zeroed over their requested
// length, so callers can rely on clean scratch exactly as if freshly
// allocated. Putting a buffer back is always optional — dropping one
// on an error path merely costs a future allocation.
package pool

import "sync"

// minRetain is the smallest capacity worth recycling. Anything under a
// few KiB is cheaper to allocate fresh than to rendezvous through the
// pool (and pooling tiny slices would pin them as the canonical entry,
// forcing reallocation for every real epoch-sized request).
const minRetain = 1 << 10

// slices is a sync.Pool of []T that recycles its boxes as well as its
// buffers: a sync.Pool holds pointers, and boxing a slice header for
// every Put would cost a heap allocation per round trip. The box a Get
// empties is parked in boxes for the next Put to reuse, so a Get+Put
// pair at steady state allocates nothing.
type slices[T any] struct {
	bufs  sync.Pool // *[]T, each holding a recyclable buffer
	boxes sync.Pool // *[]T, empty, ready for the next Put
}

// get returns a pooled buffer resliced to n, or nil when the pool is
// empty or its buffer is too small (which is then dropped).
func (p *slices[T]) get(n int) []T {
	v := p.bufs.Get()
	if v == nil {
		return nil
	}
	box := v.(*[]T)
	buf := *box
	*box = nil
	p.boxes.Put(box)
	if cap(buf) < n {
		return nil
	}
	return buf[:n]
}

func (p *slices[T]) put(buf []T) {
	if cap(buf) < minRetain {
		return
	}
	box, _ := p.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = buf
	p.bufs.Put(box)
}

var (
	complexPool slices[complex128]
	floatPool   slices[float64]
	bytePool    slices[byte]
)

// Complex returns a zeroed []complex128 of length n.
func Complex(n int) []complex128 {
	if buf := complexPool.get(n); buf != nil {
		clear(buf)
		return buf
	}
	return make([]complex128, n)
}

// ComplexUninit returns a []complex128 of length n with unspecified
// contents — for callers that provably overwrite (or never read) every
// element, e.g. a copy destination. Skipping the clear matters: at
// epoch scale the memclr of a multi-MiB recycled buffer is pure memory
// bandwidth spent on values the caller immediately replaces.
func ComplexUninit(n int) []complex128 {
	if buf := complexPool.get(n); buf != nil {
		return buf
	}
	return make([]complex128, n)
}

// PutComplex recycles a buffer obtained from Complex (or anywhere
// else). The caller must not use buf after the call.
func PutComplex(buf []complex128) { complexPool.put(buf) }

// Float returns a zeroed []float64 of length n.
func Float(n int) []float64 {
	if buf := floatPool.get(n); buf != nil {
		clear(buf)
		return buf
	}
	return make([]float64, n)
}

// FloatUninit is Float without the clear, for callers that provably
// overwrite every element — e.g. a shard-sweep stripe buffer whose
// kernel writes the full destination range.
func FloatUninit(n int) []float64 {
	if buf := floatPool.get(n); buf != nil {
		return buf
	}
	return make([]float64, n)
}

// PutFloat recycles a buffer obtained from Float.
func PutFloat(buf []float64) { floatPool.put(buf) }

// Bytes returns a zeroed []byte of length n (capture-container IO
// blocks).
func Bytes(n int) []byte {
	if buf := bytePool.get(n); buf != nil {
		clear(buf)
		return buf
	}
	return make([]byte, n)
}

// PutBytes recycles a buffer obtained from Bytes.
func PutBytes(buf []byte) { bytePool.put(buf) }
