package gate

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"lf/internal/pool"
	"lf/internal/wire"
)

// appendChunkRef is the append-based chunk encoding the gateway shipped
// before chunks were encoded in place: the reference the in-place codec
// must reproduce byte for byte.
func appendChunkRef(base int64, samples []complex128) []byte {
	e := wire.Enc{B: make([]byte, 0, 12+16*len(samples))}
	e.I64(base)
	e.U32(uint32(len(samples)))
	for _, s := range samples {
		e.F64(real(s))
		e.F64(imag(s))
	}
	return e.B
}

// decodeChunkRef is the matching reference decoder (a fresh slice,
// one Dec getter per float).
func decodeChunkRef(p []byte) (int64, []complex128) {
	d := wire.NewDec(p)
	base := d.I64()
	out := make([]complex128, d.U32())
	for i := range out {
		out[i] = complex(d.F64(), d.F64())
	}
	return base, out
}

// codecSamples returns n samples cycling through the float values a
// bit-exact codec must carry — NaN payloads of both signs, ±0, ±Inf,
// subnormals, extremes — interleaved with seeded arbitrary bit
// patterns.
func codecSamples(n int) []complex128 {
	special := []float64{
		math.Float64frombits(0x7ff8000000000123), // quiet NaN, payload
		math.Float64frombits(0xfff4000000000abc), // signalling NaN, sign set
		0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1),
		math.Float64frombits(1),                   // smallest subnormal
		-math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.SmallestNonzeroFloat64, math.MaxFloat64, -1.5,
	}
	x := uint64(0x243F6A8885A308D3)
	out := make([]complex128, n)
	for i := range out {
		x += 0x9E3779B97F4A7C15
		z := (x ^ (x >> 31)) * 0xBF58476D1CE4E5B9
		re, im := math.Float64frombits(z), math.Float64frombits(z^(z<<17))
		if i%3 != 2 {
			re = special[i%len(special)]
			im = special[(i*7+3)%len(special)]
		}
		out[i] = complex(re, im)
	}
	return out
}

func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// chunkFramesDigest is the SHA-256 of the concatenated chunk frames
// TestChunkCodecMatchesReference writes (bases 0, 1 and 1<<40 with
// codecSamples of lengths 0, 1 and 8192), as the append-based encoder
// and the copying wire.WriteFrame produced them before frames were
// encoded in place. It pins the wire bytes independently of both
// reference implementations in this package.
const chunkFramesDigest = "3ea2d384bbc916ee633be52e1c5e9ba986e39eacc9eaf59b74f0fc84cba453e4"

// TestChunkCodecMatchesReference: a chunk encoded in place inside a
// reused frame buffer — one that last held a longer frame, so stale
// bytes sit past the new frame — is byte-identical to the append-based
// encoding framed by wire.WriteFrame, and to the recorded digest of
// those bytes; and decoding it returns the pushed samples bit for bit.
func TestChunkCodecMatchesReference(t *testing.T) {
	var (
		buf wire.Buf
		all bytes.Buffer
	)
	// Leave a longer frame behind in buf.
	if err := writeChunk(&bytes.Buffer{}, &buf, 9, codecSamples(9000)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		base int64
		n    int
	}{{0, 0}, {1, 1}, {1 << 40, 8192}}
	for _, tc := range cases {
		samples := codecSamples(tc.n)
		var got, want bytes.Buffer
		if err := writeChunk(&got, &buf, tc.base, samples); err != nil {
			t.Fatal(err)
		}
		ref := appendChunkRef(tc.base, samples)
		if err := proto.WriteFrame(&want, nil, msgChunk, ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("n=%d: in-place chunk frame differs from the append-based reference", tc.n)
		}
		all.Write(got.Bytes())

		typ, payload, err := proto.ReadFrame(bytes.NewReader(got.Bytes()), &buf)
		if err != nil || typ != msgChunk {
			t.Fatalf("n=%d: read back type %d, err %v", tc.n, typ, err)
		}
		c, err := decodeChunk(payload)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		refBase, refSamples := decodeChunkRef(ref)
		if c.Base != tc.base || refBase != tc.base {
			t.Fatalf("n=%d: base %d (reference %d), want %d", tc.n, c.Base, refBase, tc.base)
		}
		if !sameBits(c.Samples, samples) || !sameBits(refSamples, samples) {
			t.Fatalf("n=%d: decoded samples differ from the pushed bits", tc.n)
		}
		pool.PutComplex(c.Samples)
	}
	if sum := sha256.Sum256(all.Bytes()); hex.EncodeToString(sum[:]) != chunkFramesDigest {
		t.Fatalf("chunk frames digest %x, want %s", sum, chunkFramesDigest)
	}
}
