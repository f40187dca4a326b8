package rng

import (
	"math/rand"
	"testing"
)

// eagerSplit is Split over a plain math/rand generator: the child
// generator built at once from the FNV-1a label hash and one parent
// draw.
func eagerSplit(parent *rand.Rand, label string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	h ^= uint64(parent.Int63())
	return rand.New(rand.NewSource(int64(h)))
}

// drawMix takes one draw of each kind the generator is used for and
// returns the results as float64s.
func drawMix(float func() float64, intn func(int) int, norm func() float64, i63 func() int64) []float64 {
	return []float64{float(), float64(intn(1000)), norm(), float64(i63())}
}

func lazyMix(s *Source) []float64 {
	return drawMix(s.Float64, s.Intn, func() float64 { return s.Norm(0, 1) }, s.Int63)
}

func eagerMix(r *rand.Rand) []float64 { return drawMix(r.Float64, r.Intn, r.NormFloat64, r.Int63) }

func sameDraws(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: draw %d is %v, eager %v", what, i, got[i], want[i])
		}
	}
}

// TestLazySourceMatchesEager checks that building the generator on
// first draw changes no draw: New and Split children produce the eager
// math/rand sequences, and a parent's sequence is the same whether its
// children are drawn from before, between or after its own draws, or
// never.
func TestLazySourceMatchesEager(t *testing.T) {
	labels := []string{"place", "noise", "", "tag-7"}
	for seed := int64(-2); seed <= 3; seed++ {
		// New alone, drawn from and never drawn from.
		if New(seed).r != nil {
			t.Fatal("New built its generator before the first draw")
		}
		sameDraws(t, "New", lazyMix(New(seed)), eagerMix(rand.New(rand.NewSource(seed))))

		// Parent with children, under several draw schedules. Each
		// schedule must reproduce the eager parent and eager children.
		for sched := 0; sched < 4; sched++ {
			eager := rand.New(rand.NewSource(seed))
			lazy := New(seed)
			var want, got []float64
			type pair struct {
				label string
				lazy  *Source
				eager *rand.Rand
			}
			var later []pair
			for round, label := range labels {
				eChild := eagerSplit(eager, label)
				lChild := lazy.Split(label)
				if lChild.r != nil {
					t.Fatal("Split built the child's generator")
				}
				switch {
				case sched == 0: // children never drawn from
				case sched == 1: // child drawn at once, before the parent
					sameDraws(t, "child "+label, lazyMix(lChild), eagerMix(eChild))
				case sched == 2 && round%2 == 0: // every other child, after the parent
					later = append(later, pair{label, lChild, eChild})
				case sched == 3: // grandchild split, neither drawn from
					eagerSplit(eChild, "grand")
					lChild.Split("grand")
				}
				want = append(want, eagerMix(eager)...)
				got = append(got, lazyMix(lazy)...)
			}
			sameDraws(t, "parent", got, want)
			for _, p := range later {
				sameDraws(t, "late child "+p.label, lazyMix(p.lazy), eagerMix(p.eager))
			}
		}
	}
}

// BenchmarkSplit times deriving a child Source that is never drawn
// from, the common case for per-component streams.
func BenchmarkSplit(b *testing.B) {
	parent := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		parent.Split("noise")
	}
}
