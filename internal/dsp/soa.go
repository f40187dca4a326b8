// Structure-of-arrays differential-sweep kernels. The edge detector's
// hot loop evaluates the windowed IQ differential at every sample
// position; doing that over split float64 I/Q prefix-sum arrays (rather
// than []complex128) keeps the loads sequential, drops the complex
// division (a full Smith's-algorithm expansion in Go) down to two plain
// float divides per component, and removes every per-position branch.
//
// Bit-identity with the complex128 path is load-bearing, not best
// effort: the componentwise mean (Σre)/n, (Σim)/n is bitwise equal to
// complex division by complex(n, 0) — Go's complex quotient with a
// zero imaginary divisor reduces to exactly those two divisions — and
// every kernel below performs the same operations in the same order as
// the reference Prefix/meanRange code. TestPrefixSoAMatchesComplex and
// FuzzDiffSweep pin the equivalence.
package dsp

import (
	"math"

	"lf/internal/pool"
	"lf/internal/work"
)

// PrefixSoA is Prefix with the cumulative sums split into separate
// real/imaginary float64 arrays. Index i stores the componentwise sum
// of samples [0, i).
type PrefixSoA struct {
	Re, Im []float64
	n      int64
}

// NewPrefixSoA builds SoA prefix sums over samples. Buffers come from
// the shared scratch pool; Release recycles them.
func NewPrefixSoA(samples []complex128) *PrefixSoA {
	p := &PrefixSoA{
		Re: pool.Float(len(samples) + 1),
		Im: pool.Float(len(samples) + 1),
		n:  int64(len(samples)),
	}
	var ar, ai float64
	for i, v := range samples {
		ar += real(v)
		ai += imag(v)
		p.Re[i+1] = ar
		p.Im[i+1] = ai
	}
	return p
}

// Release returns the buffers to the scratch pool. The PrefixSoA must
// not be used afterwards.
func (p *PrefixSoA) Release() {
	pool.PutFloat(p.Re)
	pool.PutFloat(p.Im)
	p.Re, p.Im, p.n = nil, nil, 0
}

// Len returns the number of underlying samples.
func (p *PrefixSoA) Len() int64 { return p.n }

// Mean returns the mean of samples in [lo, hi), clamped; 0 if empty.
// Bitwise equal to Prefix.Mean.
func (p *PrefixSoA) Mean(lo, hi int64) complex128 {
	if lo < 0 {
		lo = 0
	}
	if hi > p.n {
		hi = p.n
	}
	if lo >= hi {
		return 0
	}
	fn := float64(hi - lo)
	return complex((p.Re[hi]-p.Re[lo])/fn, (p.Im[hi]-p.Im[lo])/fn)
}

// Differential is Prefix.Differential over the SoA sums.
func (p *PrefixSoA) Differential(pos, gap, win int64) complex128 {
	after := p.Mean(pos+gap, pos+gap+win)
	before := p.Mean(pos-gap-win, pos-gap)
	return after - before
}

// DifferentialSeriesInto fills dst with |Differential| at every
// position, bitwise equal to Prefix.DifferentialSeriesInto: clamped
// windows near the series ends, the branch-free DiffSweep kernel over
// the interior.
func (p *PrefixSoA) DifferentialSeriesInto(dst []float64, gap, win int64, workers int) {
	if int64(len(dst)) != p.n {
		panic("dsp: DifferentialSeriesInto length mismatch")
	}
	margin := gap + win
	work.DoRanges(workers, int(p.n), func(clo, chi int) {
		lo, hi := int64(clo), int64(chi)
		ilo := max(lo, margin)
		ihi := min(hi, p.n-margin)
		if ilo >= ihi {
			for q := lo; q < hi; q++ {
				d := p.Differential(q, gap, win)
				dst[q] = math.Hypot(real(d), imag(d))
			}
			return
		}
		for q := lo; q < ilo; q++ {
			d := p.Differential(q, gap, win)
			dst[q] = math.Hypot(real(d), imag(d))
		}
		DiffSweep(p.Re, p.Im, int(ilo), gap, win, dst[ilo:ihi])
		for q := ihi; q < hi; q++ {
			d := p.Differential(q, gap, win)
			dst[q] = math.Hypot(real(d), imag(d))
		}
	})
}

// DiffSweep fills dst[i] with the differential magnitude at prefix
// index j0+i: |mean(samples [j+gap, j+gap+win)) − mean([j−gap−win,
// j−gap))| for j = j0+i, over from-origin SoA prefix arrays re/im
// (re[j] = Σ re(samples[0:j])). Every position must be interior — the
// caller guarantees j0 ≥ gap+win and j0+len(dst)+gap+win ≤ len(re) —
// so the loop carries no clamping and no branches. Bitwise equal to
// the complex128 meanRange/Differential path at each position.
func DiffSweep(re, im []float64, j0 int, gap, win int64, dst []float64) {
	g, w := int(gap), int(win)
	fw := float64(win)
	n := len(dst)
	if n == 0 {
		return
	}
	// Shifted views let the compiler hoist the bounds checks out of
	// the loop: each view is exactly n long.
	aHiR := re[j0+g+w:][:n]
	aLoR := re[j0+g:][:n]
	bHiR := re[j0-g:][:n]
	bLoR := re[j0-g-w:][:n]
	aHiI := im[j0+g+w:][:n]
	aLoI := im[j0+g:][:n]
	bHiI := im[j0-g:][:n]
	bLoI := im[j0-g-w:][:n]
	for i := 0; i < n; i++ {
		dr := (aHiR[i]-aLoR[i])/fw - (bHiR[i]-bLoR[i])/fw
		di := (aHiI[i]-aLoI[i])/fw - (bHiI[i]-bLoI[i])/fw
		dst[i] = math.Hypot(dr, di)
	}
}
