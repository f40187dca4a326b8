package iq

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// SampleBytes is the serialized size of one sample: its real and
// imaginary parts as little-endian IEEE-754 float64 bit patterns. The
// LFIQ container and the gateway's chunk frames share this layout, so
// samples round-trip bit-exactly (NaN payloads and signed zeros
// included) across files, hosts and the wire.
const SampleBytes = 16

// nativeLE reports a little-endian host, where a []complex128's memory
// already is its serialized form, so the codec is one memmove — about
// 8× the per-sample loop on amd64 at an 8192-sample chunk.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// sampleMem views samples as their in-memory bytes.
func sampleMem(s []complex128) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), SampleBytes*len(s))
}

// PutSamples serializes src into dst, which must hold
// SampleBytes*len(src) bytes.
func PutSamples(dst []byte, src []complex128) {
	dst = dst[:SampleBytes*len(src)]
	if nativeLE {
		copy(dst, sampleMem(src))
		return
	}
	putSamplesLE(dst, src)
}

// GetSamples deserializes SampleBytes*len(dst) bytes of src into dst —
// the inverse of PutSamples.
func GetSamples(dst []complex128, src []byte) {
	src = src[:SampleBytes*len(dst)]
	if nativeLE {
		copy(sampleMem(dst), src)
		return
	}
	getSamplesLE(dst, src)
}

// putSamplesLE is PutSamples's portable form, for big-endian hosts.
func putSamplesLE(dst []byte, src []complex128) {
	for i, s := range src {
		b := dst[SampleBytes*i : SampleBytes*i+SampleBytes]
		binary.LittleEndian.PutUint64(b[0:8], math.Float64bits(real(s)))
		binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(imag(s)))
	}
}

// getSamplesLE is GetSamples's portable form, for big-endian hosts.
func getSamplesLE(dst []complex128, src []byte) {
	for i := range dst {
		b := src[SampleBytes*i : SampleBytes*i+SampleBytes]
		re := math.Float64frombits(binary.LittleEndian.Uint64(b[0:8]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(b[8:16]))
		dst[i] = complex(re, im)
	}
}
