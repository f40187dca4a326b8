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
// FuzzDiffSweep pin the equivalence; FuzzDiffSweepGated pins the gated
// kernel's soundness (DESIGN.md §12).
package dsp

import "math"

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

// Below is the DiffSweepGated sentinel for a position whose magnitude
// was not computed because it provably lies below the threshold.
// Negative, so it compares below every threshold and every noise floor.
const Below = -1.0

// Gate bounds (DESIGN.md §12). gateSlack is the relative slack on
// win·thr; gateCancel scales win·thr into the window-sum magnitude past
// which cancellation could defeat the slack, so the kernel computes the
// exact value instead. Outside [gateMinT, gateMaxT] the squared gate
// could underflow or overflow, and the kernel runs DiffSweep unchanged.
const (
	gateSlack  = 0x1p-20
	gateCancel = 0x1p30
	gateMinT   = 0x1p-400
	gateMaxT   = 0x1p400
)

// DiffSweepGated is DiffSweep for a fixed detection threshold thr. It
// first applies a divide-free, sqrt-free test to the raw window-sum
// differences (ur, ui) at each position, and computes the exact
// DiffSweep value only on positions within ±reach of a position that
// passes; every other position gets Below. The test is conservative —
// any position whose exact magnitude is ≥ thr passes — so every
// position holds either its exact DiffSweep value or Below, and Below
// only where the exact value is < thr. Same interior contract as
// DiffSweep.
func DiffSweepGated(re, im []float64, j0 int, gap, win int64, thr float64, reach int, dst []float64) {
	t := float64(win) * thr
	if !(t >= gateMinT && t <= gateMaxT) {
		DiffSweep(re, im, j0, gap, win, dst)
		return
	}
	gt := t * (1 - gateSlack)
	gate := gt * gt
	lim := t * gateCancel
	g, w := int(gap), int(win)
	fw := float64(win)
	n := len(dst)
	if n == 0 {
		return
	}
	aHiR := re[j0+g+w:][:n]
	aLoR := re[j0+g:][:n]
	bHiR := re[j0-g:][:n]
	bLoR := re[j0-g-w:][:n]
	aHiI := im[j0+g+w:][:n]
	aLoI := im[j0+g:][:n]
	bHiI := im[j0-g:][:n]
	bLoI := im[j0-g-w:][:n]
	done := 0 // dst[:done] is final
	for i := 0; i < n; i++ {
		ar, br := aHiR[i]-aLoR[i], bHiR[i]-bLoR[i]
		ai, bi := aHiI[i]-aLoI[i], bHiI[i]-bLoI[i]
		ur, ui := ar-br, ai-bi
		if ur*ur+ui*ui < gate {
			if math.Abs(ar)+math.Abs(br)+math.Abs(ai)+math.Abs(bi) < lim {
				continue
			}
		}
		lo := max(done, i-reach)
		fillBelow(dst[done:lo])
		hi := min(n, i+reach+1)
		// DiffSweep's expression, inline: a call per run re-slices all
		// eight views, which doubles the kernel's cost on dense edges.
		for k := lo; k < hi; k++ {
			dr := (aHiR[k]-aLoR[k])/fw - (bHiR[k]-bLoR[k])/fw
			di := (aHiI[k]-aLoI[k])/fw - (bHiI[k]-bLoI[k])/fw
			dst[k] = math.Hypot(dr, di)
		}
		done = hi
	}
	fillBelow(dst[done:])
}

func fillBelow(dst []float64) {
	for k := range dst {
		dst[k] = Below
	}
}
