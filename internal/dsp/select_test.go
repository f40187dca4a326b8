package dsp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortedMedian is the definition MedianFloat must reproduce bit for
// bit: the middle element of a sort.Float64s copy, or the mean of the
// two middle elements for even length.
func sortedMedian(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	m := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[m]
	}
	return (cp[m-1] + cp[m]) / 2
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkMedian compares MedianFloat with the sorted reference, checks
// that neither it nor radixSelect (called directly, at any length)
// mutates xs, and reports whether MedianFloat took the radix path.
//
// The bits must match, with one exception: when xs holds a −0, a zero
// median may carry either sign. −0 and +0 are equal under the
// sort.Float64s order and the sort leaves them in no fixed order, so
// the reference does not define that sign; such inputs never reach
// the radix kernel.
func checkMedian(t *testing.T, name string, xs []float64) (radix bool) {
	t.Helper()
	orig := append([]float64(nil), xs...)
	want := sortedMedian(xs)
	negZero := slices.ContainsFunc(xs, func(x float64) bool { return x == 0 && math.Signbit(x) })
	if got := MedianFloat(xs); !sameBits(got, want) && !(negZero && got == 0 && want == 0) {
		t.Fatalf("%s (n=%d): MedianFloat %v (%#x) != sorted median %v (%#x)",
			name, len(xs), got, math.Float64bits(got), want, math.Float64bits(want))
	}
	n := len(xs)
	if n == 0 {
		return false
	}
	lo, hi, ok := radixSelect(xs, (n-1)/2, n/2)
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("%s: input mutated at %d", name, i)
		}
	}
	if ok {
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if !sameBits(lo, sorted[(n-1)/2]) || !sameBits(hi, sorted[n/2]) {
			t.Fatalf("%s (n=%d): radixSelect ranks (%v, %v), sorted (%v, %v)",
				name, n, lo, hi, sorted[(n-1)/2], sorted[n/2])
		}
	}
	return ok && n >= radixMin
}

// radixLengths spans both sides of radixMin, odd and even, up to 100k.
var radixLengths = []int{1, 2, 3, 12, 13, 400, radixMin - 1, radixMin, radixMin + 1, 8192, 8195, 10000, 65535, 84000, 100000}

// TestMedianFloatRadixMatchesSort pins the radix kernel against the
// sorted definition on the non-negative inputs it accepts: noise-like
// magnitudes, zeros, subnormals, +Inf and heavy ties.
func TestMedianFloatRadixMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gens := []struct {
		name string
		gen  func(i int) float64
	}{
		{"rayleigh", func(int) float64 { return math.Hypot(rng.NormFloat64(), rng.NormFloat64()) * 3e-4 }},
		{"mostly-zero", func(int) float64 {
			if rng.Intn(10) < 6 {
				return 0
			}
			return rng.ExpFloat64()
		}},
		{"zero-heavy-tail", func(int) float64 {
			if rng.Intn(10) < 4 {
				return 0
			}
			return rng.ExpFloat64()
		}},
		{"subnormal", func(int) float64 { return math.Float64frombits(uint64(rng.Int63n(1 << 52))) }},
		{"subnormal-and-normal", func(int) float64 {
			if rng.Intn(2) == 0 {
				return math.Float64frombits(uint64(rng.Int63n(1 << 52)))
			}
			return rng.Float64()
		}},
		{"inf", func(int) float64 {
			if rng.Intn(3) == 0 {
				return math.Inf(1)
			}
			return rng.Float64()
		}},
		{"ties", func(int) float64 { return float64(rng.Intn(4)) }},
		{"all-equal", func(int) float64 { return 0.75 }},
		{"wide", func(int) float64 { return math.Float64frombits(uint64(rng.Int63n(posInfBits + 1))) }},
	}
	for _, g := range gens {
		for _, n := range radixLengths {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = g.gen(i)
			}
			if radix := checkMedian(t, g.name, xs); radix != (n >= radixMin) {
				t.Fatalf("%s (n=%d): radix path taken = %v", g.name, n, radix)
			}
		}
	}
}

// TestMedianFloatRadixStraddle puts the two middle ranks of an even
// input on either side of a digit boundary at every radix level, so
// rank m−1 lands in a lower bucket than rank m (possibly with empty
// buckets between), and checks odd inputs around the same boundary.
func TestMedianFloatRadixStraddle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	base := math.Float64bits(1.0)
	for _, bit := range []uint{0, 1, 2, 3, 11, 12, 14, 15, 26, 27, 38, 39, 50, 51, 52, 60} {
		for _, n := range []int{radixMin, radixMin + 1, 10000, 10001, 40000, 40001} {
			below := math.Float64frombits(base)
			above := math.Float64frombits(base + 1<<bit)
			xs := make([]float64, n)
			for i := range xs {
				// Lower half at or below `below`, upper half at or
				// above `above`: a quarter of each half is spread
				// away from the boundary.
				lower := i < n/2
				v := below
				if !lower {
					v = above
				}
				if rng.Intn(4) == 0 {
					if lower {
						v *= rng.Float64()
					} else {
						v *= 1 + rng.Float64()
					}
				}
				xs[i] = v
			}
			rng.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
			if !checkMedian(t, "straddle", xs) {
				t.Fatalf("bit %d (n=%d): non-negative input fell back", bit, n)
			}
		}
	}
}

// TestMedianFloatRadixFallback checks that a negative, a −0 or a NaN
// anywhere in a long input sends it to quickselect, and that the
// result still matches the sorted definition.
func TestMedianFloatRadixFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, bad := range []float64{-1, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xFFF8000000000001), math.Inf(-1), -math.SmallestNonzeroFloat64} {
		for _, n := range []int{radixMin, 10001, 100000} {
			for _, at := range []int{0, n / 2, n - 1} {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = rng.ExpFloat64()
				}
				xs[at] = bad
				if checkMedian(t, "fallback", xs) {
					t.Fatalf("bad value %v at %d (n=%d) took the radix path", bad, at, n)
				}
			}
		}
	}
}

// FuzzMedianFloat drives MedianFloat with fuzzer-chosen float64 bits.
// The words are tiled to a length that reaches the radix kernel, each
// copy XOR-ed with its index in the low bits so ties and near-ties
// both occur; with clearSign set every sign bit is cleared, the input
// shape the radix kernel accepts when no NaN is present.
func FuzzMedianFloat(f *testing.F) {
	word := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(word(1, 2, 3), uint8(200), true)
	f.Add(word(0, math.SmallestNonzeroFloat64, math.Inf(1), 0.5), uint8(255), true)
	f.Add(word(-1, math.NaN(), 2, math.Copysign(0, -1)), uint8(255), false)
	f.Add(word(1e-300, 1e300), uint8(3), true)
	f.Add(word(math.Copysign(0, -1), 0, 0, -1, 1), uint8(200), false)
	f.Fuzz(func(t *testing.T, raw []byte, reps uint8, clearSign bool) {
		k := len(raw) / 8
		if k == 0 {
			return
		}
		// reps ≥ 128 takes the input past radixMin.
		copies := 1 + int(reps)*(2*radixMin/255)/k
		xs := make([]float64, 0, k*copies)
		for c := 0; c < copies; c++ {
			for w := 0; w < k; w++ {
				b := binary.LittleEndian.Uint64(raw[8*w:]) ^ uint64(c)
				if clearSign {
					b &^= 1 << 63
				}
				xs = append(xs, math.Float64frombits(b))
			}
		}
		checkMedian(t, "fuzz", xs)
	})
}

// BenchmarkMedianFloat times the median of a crowd-sized differential
// magnitude series (84k Rayleigh-distributed values with a sparse tail
// of edge peaks): the radix kernel through MedianFloat, and the
// quickselect it replaces on the same input.
func BenchmarkMedianFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	xs := make([]float64, 84000)
	for i := range xs {
		xs[i] = math.Hypot(rng.NormFloat64(), rng.NormFloat64()) * 3e-4
		if rng.Intn(100) == 0 {
			xs[i] *= 40
		}
	}
	b.Run("radix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MedianFloat(xs)
		}
	})
	b.Run("quickselect", func(b *testing.B) {
		b.ReportAllocs()
		cp := make([]float64, len(xs))
		for i := 0; i < b.N; i++ {
			copy(cp, xs)
			selectFloat(cp, len(cp)/2)
		}
	})
}
