// Package dsp implements the signal-processing primitives the
// LF-Backscatter reader pipeline is built from: O(1) windowed means via
// prefix sums, IQ edge differentials (the ΔS(t) = S(t⁺) − S(t⁻) of the
// paper's §3.1), threshold estimation, peak detection with non-maximum
// suppression, and eye-pattern folding (§3.2).
package dsp

import (
	"math"
	"slices"

	"lf/internal/pool"
)

// Prefix holds cumulative sums of a complex series so that the mean of
// any window can be computed in O(1). Index i of the prefix stores the
// sum of samples [0, i).
type Prefix struct {
	sums []complex128
	n    int64
}

// NewPrefix builds prefix sums over samples. The internal buffer comes
// from the shared scratch pool; callers that are done with a Prefix
// may call Release to recycle it (and must not use the Prefix after).
func NewPrefix(samples []complex128) *Prefix {
	p := &Prefix{sums: pool.Complex(len(samples) + 1), n: int64(len(samples))}
	var acc complex128
	for i, v := range samples {
		acc += v
		p.sums[i+1] = acc
	}
	return p
}

// Release returns the prefix's buffer to the scratch pool. The Prefix
// must not be used afterwards. Calling Release is optional — an
// unreleased buffer is simply garbage-collected.
func (p *Prefix) Release() {
	pool.PutComplex(p.sums)
	p.sums = nil
	p.n = 0
}

// Len returns the number of underlying samples.
func (p *Prefix) Len() int64 { return p.n }

// Sum returns the sum of samples in [lo, hi), clamped to the series.
func (p *Prefix) Sum(lo, hi int64) complex128 {
	if lo < 0 {
		lo = 0
	}
	if hi > p.n {
		hi = p.n
	}
	if lo >= hi {
		return 0
	}
	return p.sums[hi] - p.sums[lo]
}

// Mean returns the mean of samples in [lo, hi), clamped; 0 if empty.
func (p *Prefix) Mean(lo, hi int64) complex128 {
	if lo < 0 {
		lo = 0
	}
	if hi > p.n {
		hi = p.n
	}
	if lo >= hi {
		return 0
	}
	return p.Sum(lo, hi) / complex(float64(hi-lo), 0)
}

// Differential returns the IQ differential across position pos:
// mean of the win samples starting gap after pos, minus the mean of the
// win samples ending gap before pos. gap skips the (few-sample) edge
// transition itself so the two windows straddle it cleanly.
func (p *Prefix) Differential(pos, gap, win int64) complex128 {
	after := p.Mean(pos+gap, pos+gap+win)
	before := p.Mean(pos-gap-win, pos-gap)
	return after - before
}

// MedianFloat returns the median of xs: the middle order statistic,
// or the mean of the two middle ones for even length, bit-identical to
// taking them from a sort.Float64s copy (NaNs ordering first), except
// that a zero median of an input holding both −0 and +0 may carry
// either sign: the two are equal in that order, so the sort fixes
// neither's place. Long inputs of non-negative, non-NaN values —
// differential magnitudes — take a radix select; the rest copy into
// pooled scratch and quickselect (select.go). xs is not modified.
// Returns 0 for an empty slice.
func MedianFloat(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := n / 2
	if n >= radixMin {
		if lo, hi, ok := radixSelect(xs, (n-1)/2, m); ok {
			if n%2 == 0 {
				return (lo + hi) / 2
			}
			return hi
		}
	}
	cp := pool.FloatUninit(n)
	copy(cp, xs)
	med := selectFloat(cp, m)
	if n%2 == 0 {
		med = (maxFloat(cp[:m]) + med) / 2
	}
	pool.PutFloat(cp)
	return med
}

// NoiseFloor estimates the background level of a differential-magnitude
// series as its median. Because edges are temporally sparse (≲1% of
// samples at the paper's oversampling ratios), the median sits on the
// noise, not on the edges.
func NoiseFloor(mag []float64) float64 { return MedianFloat(mag) }

// Peak is a local maximum of a differential-magnitude series.
type Peak struct {
	// Pos is the sample index of the maximum.
	Pos int64
	// Value is the magnitude at the maximum.
	Value float64
}

// Suppress applies greedy non-maximum suppression: peaks are visited in
// (value descending, position ascending) order — a total order, so the
// result is deterministic even under exact value ties — and any peak
// within minSpacing of an already accepted peak is dropped. The result
// is sorted by position; the input is not modified. Greedy acceptance
// only ever interacts within minSpacing, so running Suppress on
// position-separated chunks whose boundary gaps are ≥ minSpacing equals
// one global pass — the property the incremental edge detector's
// chunked flushing builds on, and the one Suppressor applies inside
// every call.
func Suppress(peaks []Peak, minSpacing int64) []Peak {
	var sp Suppressor
	return sp.Suppress(nil, peaks, minSpacing)
}

// Suppressor is Suppress with caller-owned scratch, for allocation-free
// steady-state reuse (the streaming detector suppresses one chunk per
// flush). The zero value is ready to use.
type Suppressor struct {
	byPos []Peak // position-sorted copy of an unsorted chunk
	order []int32
	slots []int32
}

// Suppress runs the chain pass over chunk, reusing dst (re-sliced to
// zero length) for the result, which is returned sorted by position.
// Semantics are identical to the package-level Suppress; chunk is not
// modified.
//
// The chain pass: the position-sorted peaks split into chains at every
// gap ≥ minSpacing (no two peaks in different chains can conflict), and
// the greedy pass runs inside each chain on its own. Within a chain,
// consecutive peaks are < minSpacing apart, so the chain spans no more
// minSpacing-wide slots than it has peaks; accepted peaks are pairwise
// ≥ minSpacing apart, so a slot holds at most one, and a candidate can
// only conflict with the occupants of its own and the two adjacent
// slots. The pass is O(n log n) in the peak count — the per-chain
// value sort — with no global value sort, no map and no final re-sort.
func (sp *Suppressor) Suppress(dst, chunk []Peak, minSpacing int64) []Peak {
	dst = dst[:0]
	ps := chunk
	if !slices.IsSortedFunc(ps, comparePos) {
		ps = append(sp.byPos[:0], chunk...)
		slices.SortFunc(ps, comparePos)
		sp.byPos = ps
	}
	if minSpacing < 1 {
		// No two distinct positions can conflict.
		return append(dst, ps...)
	}
	for lo := 0; lo < len(ps); {
		hi := lo + 1
		for hi < len(ps) && ps[hi].Pos-ps[hi-1].Pos < minSpacing {
			hi++
		}
		if hi-lo == 1 {
			dst = append(dst, ps[lo])
		} else {
			dst = sp.chain(dst, ps[lo:hi], minSpacing)
		}
		lo = hi
	}
	return dst
}

// chain runs the greedy pass over one position-sorted chain and appends
// the accepted peaks to dst in position order.
func (sp *Suppressor) chain(dst, c []Peak, minSpacing int64) []Peak {
	order := sp.order[:0]
	for i := range c {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int {
		if va, vb := c[a].Value, c[b].Value; va != vb {
			if va > vb {
				return -1
			}
			return 1
		}
		return int(a - b) // position ascending: c is position-sorted
	})
	sp.order = order
	base := c[0].Pos
	nslots := int((c[len(c)-1].Pos-base)/minSpacing) + 1
	slots := slices.Grow(sp.slots[:0], nslots)[:nslots]
	for i := range slots {
		slots[i] = -1
	}
	sp.slots = slots
	for _, i := range order {
		p := c[i].Pos
		s := int((p - base) / minSpacing)
		ok := true
		for t := max(s-1, 0); t <= min(s+1, nslots-1); t++ {
			if k := slots[t]; k >= 0 {
				if d := p - c[k].Pos; d < minSpacing && d > -minSpacing {
					ok = false
					break
				}
			}
		}
		if ok {
			slots[s] = i
		}
	}
	for _, k := range slots {
		if k >= 0 {
			dst = append(dst, c[k])
		}
	}
	return dst
}

// comparePos orders peaks by position, breaking ties by value
// descending so duplicate positions (possible in caller-built inputs)
// sort deterministically.
func comparePos(a, b Peak) int {
	switch {
	case a.Pos < b.Pos:
		return -1
	case a.Pos > b.Pos:
		return 1
	case a.Value > b.Value:
		return -1
	case a.Value < b.Value:
		return 1
	}
	return 0
}

// RetainedBytes reports the live scratch held by the suppressor, for
// callers that account their window state (the streaming detector).
func (sp *Suppressor) RetainedBytes() int64 {
	return int64(len(sp.byPos))*16 + int64(len(sp.order)+len(sp.slots))*4
}

// EyeHistogram folds a set of edge positions modulo period into bins
// phase buckets and returns the per-bucket counts. This is the paper's
// eye-pattern construction: a genuine stream at the folded rate piles
// all of its edges into one bucket (±jitter), while noise spreads
// uniformly.
func EyeHistogram(positions []int64, period float64, bins int) []int {
	counts := make([]int, bins)
	if period <= 0 || bins <= 0 {
		return counts
	}
	for _, pos := range positions {
		phase := math.Mod(float64(pos), period)
		if phase < 0 {
			phase += period
		}
		b := int(phase / period * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	return counts
}

// EyePeak returns the index and count of the largest bucket of an eye
// histogram, plus the mean count of the remaining buckets (the
// background level against which the peak's significance is judged).
func EyePeak(counts []int) (bin, peak int, background float64) {
	if len(counts) == 0 {
		return 0, 0, 0
	}
	bin = 0
	peak = counts[0]
	total := 0
	for i, c := range counts {
		total += c
		if c > peak {
			peak, bin = c, i
		}
	}
	if len(counts) > 1 {
		background = float64(total-peak) / float64(len(counts)-1)
	}
	return bin, peak, background
}

// FoldedMean folds samples at positions pos+k·period (k = 0..reps-1)
// from series and returns their average. Repetitive folding averages
// the per-edge noise σ down by √reps, which is why the paper's eye
// pattern detects weak streams reliably.
func FoldedMean(series []float64, pos int64, period float64, reps int) float64 {
	if reps <= 0 {
		return 0
	}
	var sum float64
	n := 0
	for k := 0; k < reps; k++ {
		idx := pos + int64(math.Round(float64(k)*period))
		if idx < 0 || idx >= int64(len(series)) {
			continue
		}
		sum += series[idx]
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Abs returns |x| for a complex value (hypot of the parts).
func Abs(x complex128) float64 { return math.Hypot(real(x), imag(x)) }

// Dist returns the Euclidean distance between two complex points.
func Dist(a, b complex128) float64 { return Abs(a - b) }
