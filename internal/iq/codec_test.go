package iq

import (
	"bytes"
	"math"
	"testing"
)

// TestSampleCodecBitExact: PutSamples writes each sample as its
// little-endian float64 bit patterns, real part first, whichever path
// the host takes; the portable and native paths agree byte for byte;
// and GetSamples returns the original bits — NaN payloads, ±0, ±Inf and
// subnormals included — at lengths 0, 1 and a full IO block.
func TestSampleCodecBitExact(t *testing.T) {
	vals := []float64{
		math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff4000000000abc),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(1), -math.Float64frombits(0x000fffffffffffff), math.MaxFloat64, -2.5,
	}
	for _, n := range []int{0, 1, ioChunkSamples} {
		src := make([]complex128, n)
		for i := range src {
			src[i] = complex(vals[i%len(vals)], vals[(3*i+1)%len(vals)])
		}
		want := make([]byte, SampleBytes*n)
		for i, s := range src {
			re, im := math.Float64bits(real(s)), math.Float64bits(imag(s))
			for k := 0; k < 8; k++ {
				want[SampleBytes*i+k] = byte(re >> (8 * k))
				want[SampleBytes*i+8+k] = byte(im >> (8 * k))
			}
		}
		got := make([]byte, SampleBytes*n+1) // a spare byte the codec must not touch
		got[len(got)-1] = 0xee
		PutSamples(got, src)
		if !bytes.Equal(got[:len(want)], want) || got[len(want)] != 0xee {
			t.Fatalf("n=%d: PutSamples bytes differ from the little-endian layout", n)
		}
		portable := make([]byte, len(want))
		putSamplesLE(portable, src)
		if !bytes.Equal(portable, want) {
			t.Fatalf("n=%d: portable PutSamples differs", n)
		}
		for name, get := range map[string]func([]complex128, []byte){"GetSamples": GetSamples, "portable": getSamplesLE} {
			back := make([]complex128, n)
			get(back, want)
			for i := range back {
				if math.Float64bits(real(back[i])) != math.Float64bits(real(src[i])) ||
					math.Float64bits(imag(back[i])) != math.Float64bits(imag(src[i])) {
					t.Fatalf("n=%d: %s sample %d = %v, want the bits of %v", n, name, i, back[i], src[i])
				}
			}
		}
	}
}
