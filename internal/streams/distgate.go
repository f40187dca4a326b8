package streams

import (
	"math"

	"lf/internal/dsp"
)

// Exact-preserving distance gates (DESIGN.md §19). Registration asks
// "is dsp.Dist(a, b) ≤ r?" inside O(n²) loops, where dsp.Dist is a
// math.Hypot. A squared distance dx²+dy² settles the question without
// the hypot whenever it lies further than 2⁻³⁰ (relative) from r², far
// outside the few-ulp rounding of either side, and the exact Dist
// decides the narrow band in between. Every answer equals the exact
// comparison's, NaN cases included.

const (
	gateNear = 1 - 0x1p-30 // s < r²·gateNear ⇒ Dist ≤ r
	gateFar  = 1 + 0x1p-30 // s > r²·gateFar ⇒ Dist > r
	// Outside this range of r (or of a squared distance used as a
	// reference) squares could leave the normal range; the gate then
	// defers to the exact test.
	gateMinR = 0x1p-300
	gateMaxR = 0x1p300
)

// distGate decides Dist(a, b) ≤ r and Dist(a, b) > r for one radius.
type distGate struct {
	r, near, far float64
}

func newDistGate(r float64) distGate {
	if r >= gateMinR && r <= gateMaxR {
		r2 := r * r
		return distGate{r: r, near: r2 * gateNear, far: r2 * gateFar}
	}
	// NaN, non-positive, tiny or huge r: no squared decision is made
	// (no s < −1, and no finite s > +Inf).
	return distGate{r: r, near: -1, far: math.Inf(1)}
}

// gateSide is the squared test's verdict on one pair.
type gateSide int8

const (
	sideBand gateSide = iota // too close to r²: only the exact test decides
	sideNear                 // Dist ≤ r
	sideFar                  // Dist > r
)

// side classifies the squared distance of a and b. It makes no call,
// so it inlines into the O(n²) loops.
func (g distGate) side(a, b complex128) gateSide {
	dx, dy := real(a)-real(b), imag(a)-imag(b)
	switch s := dx*dx + dy*dy; {
	case s < g.near:
		return sideNear
	case s > g.far && s <= math.MaxFloat64:
		return sideFar
	}
	return sideBand
}

// le reports dsp.Dist(a, b) <= g.r.
func (g distGate) le(a, b complex128) bool {
	switch g.side(a, b) {
	case sideNear:
		return true
	case sideFar:
		return false
	}
	return dsp.Dist(a, b) <= g.r
}

// gt reports dsp.Dist(a, b) > g.r. It is not !le: both are false when
// the distance or the radius is NaN.
func (g distGate) gt(a, b complex128) bool {
	switch g.side(a, b) {
	case sideNear:
		return false
	case sideFar:
		return true
	}
	return dsp.Dist(a, b) > g.r
}

// countPM counts the points q with dsp.Dist(q, d) <= g.r or
// dsp.Dist(q, -d) <= g.r: densestMode's inner loop, kept in one body so
// the squared tests inline.
func (g distGate) countPM(pts []complex128, d complex128) int {
	n := 0
	for _, q := range pts {
		plus := g.side(q, d)
		if plus == sideNear {
			n++
			continue
		}
		switch minus := g.side(q, -d); {
		case minus == sideNear:
			n++
		case plus == sideFar && minus == sideFar:
		case dsp.Dist(q, d) <= g.r || dsp.Dist(q, -d) <= g.r:
			n++
		}
	}
	return n
}

// distLE reports dsp.Dist(a, b) <= r.
func distLE(a, b complex128, r float64) bool { return newDistGate(r).le(a, b) }

// distGT reports dsp.Dist(a, b) > r.
func distGT(a, b complex128, r float64) bool { return newDistGate(r).gt(a, b) }

// nearestDist returns the exact minimum of dsp.Dist(pts[i], pts[j])
// over j ≠ i (+Inf when every distance is NaN or there is no other
// point). One pass keeps the running minimum m of the squared
// distances; a point whose square exceeds m·(1+2⁻³⁰) is provably
// farther than the point that set m, so only the others pay the hypot.
// Those form a superset of the exact minimizers, so the minimum over
// them is the exact minimum. While m is outside the gate's safe range
// every point pays.
func nearestDist(pts []complex128, i int) float64 {
	d := pts[i]
	m, best := math.Inf(1), math.Inf(1)
	for j, q := range pts {
		if j == i {
			continue
		}
		dx, dy := real(d)-real(q), imag(d)-imag(q)
		s := dx*dx + dy*dy
		if s < m {
			m = s
		}
		if m >= gateMinR*gateMinR && m <= gateMaxR*gateMaxR && !(s <= m*gateFar) {
			continue
		}
		if dist := dsp.Dist(d, q); dist < best {
			best = dist
		}
	}
	return best
}
