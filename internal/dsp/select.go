// Linear-time order statistics for the noise-floor estimate. The
// detector takes one median per capture over the full differential
// series — with sort.Float64s that was the single largest flat cost in
// the edge-detection profile (an O(n log n) pdqsort of ~10⁵ floats per
// epoch). Two selection kernels return the identical order statistic
// in O(n), because the k-th smallest value under a total order does
// not depend on the algorithm that finds it (DESIGN.md §20):
//
//   - radixSelect, an MSD radix select on the IEEE bits, for inputs of
//     at least radixMin elements that are all non-negative and not NaN.
//     For such values the bits read as uint64 sort exactly like the
//     values, and equal values have equal bits (−0 is excluded), so the
//     selected bits are the sorted reference's bits.
//   - selectFloat, a three-way quickselect under the sort.Float64s
//     order, for everything else: short inputs, and inputs carrying a
//     negative, a −0 or a NaN. It is also the reference the radix
//     kernel is tested against.
package dsp

import (
	"math"

	"lf/internal/pool"
)

// fless orders float64s exactly like sort.Float64s / slices.Sort: NaNs
// first, then ascending value. Matching the library order keeps the
// selected order statistics identical to the sorted reference even on
// adversarial inputs carrying NaNs.
func fless(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// selectSmall is the window size below which selection finishes with an
// insertion sort instead of further partitioning.
const selectSmall = 12

// selectFloat partially rearranges a so that a[k] holds the k-th
// smallest element (0-based, fless order) and every element of a[:k]
// orders at or below it. Three-way partitioning collapses runs of equal
// keys — the common case for blanked differential series — in one pass.
func selectFloat(a []float64, k int) float64 {
	lo, hi := 0, len(a)
	for hi-lo > selectSmall {
		p := pivotFloat(a, lo, hi)
		lt, gt := partition3(a, lo, hi, p)
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p // a[lt:gt] all equal p, and a[:lt] orders below
		}
	}
	insertionFloats(a[lo:hi])
	return a[k]
}

// pivotFloat picks a partition pivot: median of three for small
// windows, ninther (median of three medians-of-three) for large ones,
// bounding the depth on organ-pipe and killer-sequence inputs.
func pivotFloat(a []float64, lo, hi int) float64 {
	n := hi - lo
	m := lo + n/2
	if n > 512 {
		s := n / 8
		return median3(
			median3(a[lo], a[lo+s], a[lo+2*s]),
			median3(a[m-s], a[m], a[m+s]),
			median3(a[hi-1-2*s], a[hi-1-s], a[hi-1]),
		)
	}
	return median3(a[lo], a[m], a[hi-1])
}

func median3(x, y, z float64) float64 {
	if fless(y, x) {
		x, y = y, x
	}
	if fless(z, y) {
		y = z
		if fless(y, x) {
			y = x
		}
	}
	return y
}

// partition3 is a Dutch-national-flag pass: on return a[lo:lt] orders
// strictly below p, a[lt:gt] is equivalent to p, a[gt:hi] strictly
// above.
func partition3(a []float64, lo, hi int, p float64) (lt, gt int) {
	i, lt, gt := lo, lo, hi
	for i < gt {
		x := a[i]
		switch {
		case fless(x, p):
			a[i], a[lt] = a[lt], x
			lt++
			i++
		case fless(p, x):
			gt--
			a[i], a[gt] = a[gt], a[i]
		default:
			i++
		}
	}
	return lt, gt
}

func insertionFloats(a []float64) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && fless(x, a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// maxFloat returns the greatest element of a under the fless order.
func maxFloat(a []float64) float64 {
	m := a[0]
	for _, v := range a[1:] {
		if fless(m, v) {
			m = v
		}
	}
	return m
}

// Radix-select geometry. A digit is radixBits wide, so one histogram
// is 16 KB of uint32 and lives on the stack; the first digit is bits
// 62..51 of the float (the sign bit is known clear), i.e. the exponent
// and the leading mantissa bit.
const (
	radixBits    = 12
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1
	radixTop     = 63 - radixBits

	// radixMin is the candidate count below which selection runs
	// quickselect, both for whole inputs and for the candidates a
	// radix level leaves: a level's histogram clear and bucket walk
	// cost microseconds that short inputs never win back.
	radixMin = 4096

	posInfBits = 0x7FF0000000000000
)

// radixSelect returns the order statistics of ranks k1 and k2 of xs,
// where k1 ≤ k2 ≤ k1+1 < len(xs), and ok = true; or ok = false, having
// done nothing but read xs, when some element has its sign bit set or
// is NaN. xs is not modified.
//
// Each level histograms one digit of the candidates, finds the bucket
// holding rank k2, and compacts that bucket's candidates into pooled
// scratch without branches; the next level reads the next digit. When
// the two ranks fall in different buckets (the buckets between them
// are then empty), rank k1 is the largest value of the lower bucket
// and rank k2 the smallest of the upper one, and one pass finishes.
func radixSelect(xs []float64, k1, k2 int) (lo, hi float64, ok bool) {
	var hist [radixBuckets]uint32
	// bad collects the sign bit of b and of posInfBits−b: set by a
	// negative (or −0) b, and by a positive NaN's bits above +Inf.
	var bad uint64
	for _, x := range xs {
		b := math.Float64bits(x)
		bad |= b | (posInfBits - b)
		hist[b>>radixTop&radixMask]++
	}
	if bad>>63 != 0 {
		return 0, 0, false
	}
	src := xs
	var buf []float64
	shift := uint(radixTop)
	for {
		b1, b2, below := radixBuckets2(&hist, k1, k2)
		if b1 != b2 {
			lo, hi = radixStraddle(src, shift, b1, b2)
			break
		}
		k1 -= below
		k2 -= below
		n := int(hist[b1])
		switch {
		case buf == nil:
			// Leave xs behind (with a constant shift on this hottest
			// pass). One slot of slack: the branch-free compaction
			// stores every element at the write index before
			// deciding to keep it.
			buf = pool.FloatUninit(n + 1)
			src = radixCompact(buf, xs, radixTop, uint64(b1))
		case n < len(src):
			src = radixCompact(buf, src, shift, uint64(b1))
		}
		if shift == 0 {
			// Every bit is now shared: the candidates are equal.
			lo, hi = src[k1], src[k2]
			break
		}
		if n < radixMin {
			// Few candidates left: quickselect them (they are as
			// non-negative as the input, so its order is the bits').
			hi = selectFloat(src, k2)
			lo = hi
			if k1 < k2 {
				lo = maxFloat(src[:k2])
			}
			break
		}
		shift = uint(max(int(shift)-radixBits, 0))
		hist = [radixBuckets]uint32{}
		for _, x := range src {
			hist[math.Float64bits(x)>>shift&radixMask]++
		}
	}
	if buf != nil {
		pool.PutFloat(buf)
	}
	return lo, hi, true
}

// radixBuckets2 walks the cumulative histogram to the buckets holding
// ranks k1 and k2, returning them with the count of elements in lower
// buckets than b1.
func radixBuckets2(hist *[radixBuckets]uint32, k1, k2 int) (b1, b2, below int) {
	cum, b := 0, 0
	for cum+int(hist[b]) <= k1 {
		cum += int(hist[b])
		b++
	}
	b1, below = b, cum
	for cum+int(hist[b]) <= k2 {
		cum += int(hist[b])
		b++
	}
	return b1, b, below
}

// radixCompact copies the elements of src whose digit at shift is d to
// the front of dst, in order, and returns them. dst needs one slot
// beyond the kept count and may alias src (the write index never
// passes the read index). The store is unconditional and the index
// advances by the comparison's 0/1 result, so a bucket that holds a
// random fraction of the input costs no mispredicted branches.
func radixCompact(dst, src []float64, shift uint, d uint64) []float64 {
	j := 0
	for _, x := range src {
		dst[j] = x
		diff := (math.Float64bits(x) >> shift & radixMask) ^ d // 0 iff kept
		j += int((diff - 1) >> 63)
	}
	return dst[:j]
}

// radixStraddle returns the largest element of src whose digit at
// shift is b1 and the smallest whose digit is b2, comparing bits.
func radixStraddle(src []float64, shift uint, b1, b2 int) (lo, hi float64) {
	var l uint64
	h := uint64(math.MaxUint64)
	for _, x := range src {
		b := math.Float64bits(x)
		switch int(b >> shift & radixMask) {
		case b1:
			l = max(l, b)
		case b2:
			h = min(h, b)
		}
	}
	return math.Float64frombits(l), math.Float64frombits(h)
}
