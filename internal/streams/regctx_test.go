package streams

import (
	"math"
	"sort"
	"testing"

	"lf/internal/edgedetect"
	"lf/internal/rng"
)

func edgesAt(pos ...int64) []edgedetect.Edge {
	edges := make([]edgedetect.Edge, len(pos))
	for i, p := range pos {
		edges[i] = edgedetect.Edge{Pos: p, First: p, Last: p}
	}
	return edges
}

func searchLowerBound(edges []edgedetect.Edge, x float64) int {
	return sort.Search(len(edges), func(i int) bool { return float64(edges[i].Pos) >= x })
}

func checkLowerBound(t *testing.T, name string, c *regCtx, x float64) {
	t.Helper()
	if got, want := c.idx.lowerBound(x), searchLowerBound(c.edges, x); got != want {
		t.Fatalf("%s: lowerBound(%v) = %d, sort.Search = %d", name, x, got, want)
	}
}

// TestLowerBoundMatchesSortSearch sweeps every quarter-sample x across
// each list's span (and two samples past either end) plus the special
// values, on dense, repeated, single, empty, negative and sparse lists.
func TestLowerBoundMatchesSortSearch(t *testing.T) {
	src := rng.New(11)
	var dense []int64
	p := int64(100)
	for i := 0; i < 2000; i++ {
		p += int64(src.Intn(40))
		dense = append(dense, p)
	}
	var clustered []int64
	for k := int64(0); k < 50; k++ {
		for j, n := 0, 1+src.Intn(12); j < n; j++ {
			clustered = append(clustered, 250*k+int64(j)) // tight slot clusters
		}
	}
	lists := map[string][]int64{
		"dense":     dense,
		"clustered": clustered,
		"repeated":  {5, 5, 5, 9, 9, 12, 12, 12, 12, 40},
		"all-same":  {77, 77, 77},
		"single":    {1234},
		"empty":     nil,
		"negative":  {-7, -7, 0, 3},
		"sparse":    {3, 40000, 40001, 199999},
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 0x1p62, -0x1p62}
	for name, pos := range lists {
		c := newRegCtx(edgesAt(pos...))
		for _, x := range specials {
			checkLowerBound(t, name, c, x)
		}
		if len(pos) == 0 {
			continue
		}
		lo, hi := float64(pos[0])-2, float64(pos[len(pos)-1])+2
		for x := lo; x <= hi; x += 0.25 {
			checkLowerBound(t, name, c, x)
		}
	}
}

// TestLowerBoundSparseHugeSpan covers spans far too wide to sweep: a
// few edges up to 2⁵² apart, probed around every edge and across gaps.
func TestLowerBoundSparseHugeSpan(t *testing.T) {
	pos := []int64{0, 1, 1 << 20, 1<<20 + 3, 1 << 40, 1 << 40, 1<<52 - 1}
	c := newRegCtx(edgesAt(pos...))
	if len(c.idx.start) > 4*len(pos)+1 {
		t.Fatalf("%d buckets for %d edges", len(c.idx.start), len(pos))
	}
	for i, p := range pos {
		for d := -2.0; d <= 2; d += 0.25 {
			checkLowerBound(t, "huge", c, float64(p)+d)
		}
		if i+1 < len(pos) {
			mid := float64(p) + (float64(pos[i+1])-float64(p))/2
			checkLowerBound(t, "huge", c, mid)
			checkLowerBound(t, "huge", c, math.Nextafter(float64(pos[i+1]), math.Inf(-1)))
		}
	}
}

// TestLatticeMemoStamp: a reset invalidates every entry, including
// across the generation counter's wrap.
func TestLatticeMemoStamp(t *testing.T) {
	c := newRegCtx(edgesAt(10, 20))
	c.edges[0].Diff, c.edges[1].Diff = complex(1e-3, 0), complex(0, 1e-3)
	gensA := []complex128{complex(1e-3, 0)}
	gensB := []complex128{complex(0, 1e-3)}
	c.memo.reset(len(c.edges))
	if w, _ := c.fit(0, gensA, 0); w != 0 {
		t.Fatalf("fit with gens A = %v", w)
	}
	c.memo.gen = math.MaxUint32 // the next reset wraps
	c.memo.stamp[0] = 1         // a stale stamp from long ago
	c.memo.reset(len(c.edges))
	w, wo := c.fit(0, gensB, 0)
	if ww, wwo := latticeFit(c.edges[0].Diff, gensB, 0); w != ww || wo != wwo {
		t.Fatalf("stale memo entry served after wrap: %v,%v want %v,%v", w, wo, ww, wwo)
	}
}
