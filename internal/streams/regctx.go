package streams

import (
	"math"
	"math/bits"

	"lf/internal/edgedetect"
)

// regCtx is the bookkeeping of one Register call (DESIGN.md §19): the
// edge list, which edges are consumed, a position index answering the
// lower-bound lookups, the widest Pos−First extent, the per-rate fold
// table and the lattice memo. Every field is a pure function of the
// edge list or reproduces exactly what the historical per-call code
// computed, so registration output is unchanged.
type regCtx struct {
	edges []edgedetect.Edge
	used  []bool
	idx   posIndex
	// maxExtent is max(0, Pos−First) over all edges, the slack the
	// anchor scan's empty-window skip pads its window with.
	maxExtent float64
	// phase and bin are the fold table of the rate being registered:
	// math.Mod(Pos, period) and its histogram bin for the in-window
	// prefix of the edge list.
	phase []float64
	bin   []int
	memo  latticeMemo
}

// newRegCtx builds the registration context over a Pos-sorted edge
// list whose positions are integers below 2⁵³ in magnitude.
func newRegCtx(edges []edgedetect.Edge) *regCtx {
	c := &regCtx{edges: edges, used: make([]bool, len(edges))}
	c.idx.build(edges)
	for i := range edges {
		if ext := float64(edges[i].Pos - edges[i].First); ext > c.maxExtent {
			c.maxExtent = ext
		}
	}
	return c
}

// posIndex is a bucket table over the integer edge positions: bucket b
// covers [min + b<<shift, min + (b+1)<<shift) and start[b] is the first
// edge index at or beyond the bucket's low end. The shift is chosen so
// that there are two to four buckets per edge, so a lookup is one table
// read plus a short forward scan over pos, a dense copy of the
// positions.
type posIndex struct {
	min, max int64
	shift    uint
	start    []int32
	pos      []int64
}

func (ix *posIndex) build(edges []edgedetect.Edge) {
	n := len(edges)
	if n == 0 {
		return
	}
	ix.pos = make([]int64, n)
	for i := range edges {
		ix.pos[i] = edges[i].Pos
	}
	ix.min, ix.max = ix.pos[0], ix.pos[n-1]
	span := uint64(ix.max - ix.min)
	if perEdge := span / uint64(4*n); perEdge > 0 {
		ix.shift = uint(bits.Len64(perEdge))
	}
	ix.start = make([]int32, span>>ix.shift+1)
	j := 0
	for b := range ix.start {
		lo := ix.min + int64(b)<<ix.shift
		for j < n && ix.pos[j] < lo {
			j++
		}
		ix.start[b] = int32(j)
	}
}

// lowerBound returns the first index whose position is ≥ x, exactly
// what sort.Search(len(edges), float64(edges[i].Pos) >= x) returns —
// including len(edges) for NaN and +Inf and 0 for −Inf.
func (ix *posIndex) lowerBound(x float64) int {
	switch {
	case len(ix.pos) == 0 || x <= float64(ix.min):
		return 0
	case !(x <= float64(ix.max)): // above every position, or NaN
		return len(ix.pos)
	}
	// min < x ≤ max, so ⌈x⌉ is a position-range integer and some edge
	// at or after the bucket start satisfies Pos ≥ ⌈x⌉.
	ceil := int64(math.Ceil(x))
	i := int(ix.start[(ceil-ix.min)>>ix.shift])
	for ix.pos[i] < ceil {
		i++
	}
	return i
}

// latticeMemo caches latticeFit results per edge index for one fixed
// (gens, target) pair. The anchor scan and head validation re-test the
// same edges at many overlapping scan positions, and each latticeFit
// enumerates {−1,0,1}^n — caching the pure function's value is
// bit-identical to recomputing it and removes the enumeration from all
// repeat visits. An entry is valid when its stamp equals gen; reset
// starts a new (gens, target) pair in O(1) instead of refilling the
// arrays.
type latticeMemo struct {
	gen           uint32
	stamp         []uint32
	with, without []float64
}

// reset invalidates every entry. The caller resets whenever the
// generator set or the target changes.
func (m *latticeMemo) reset(n int) {
	if m.stamp == nil {
		m.stamp = make([]uint32, n)
		m.with = make([]float64, n)
		m.without = make([]float64, n)
	}
	m.gen++
	if m.gen == 0 { // wrapped: stale stamps could collide
		clear(m.stamp)
		m.gen = 1
	}
}

// fit returns latticeFit(edges[i].Diff, gens, target), computing it on
// the first visit since the last reset.
func (c *regCtx) fit(i int, gens []complex128, target int) (with, without float64) {
	m := &c.memo
	if m.stamp[i] == m.gen {
		return m.with[i], m.without[i]
	}
	with, without = latticeFit(c.edges[i].Diff, gens, target)
	m.stamp[i], m.with[i], m.without[i] = m.gen, with, without
	return with, without
}
