package cluster

import (
	"math"
	"testing"

	"lf/internal/rng"
)

// seedPlusPlusReference is the quadratic kmeans++ seeding: at every
// step it rescans all seeds for each point's nearest one. The running
// minimum in seedPlusPlus must reproduce it bit for bit.
func seedPlusPlusReference(points []complex128, k int, src *rng.Source) []complex128 {
	centroids := make([]complex128, 0, k)
	if len(points) == 0 {
		return make([]complex128, k)
	}
	centroids = append(centroids, points[src.Intn(len(points))])
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All remaining points coincide with seeds; duplicate one.
			centroids = append(centroids, points[src.Intn(len(points))])
			continue
		}
		target := src.Float64() * total
		idx := 0
		for i, d := range d2 {
			target -= d
			if target <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, points[idx])
	}
	return centroids
}

// TestSeedPlusPlusMatchesReference compares the seeds and the rng
// state left behind (the next draws) with the quadratic reference,
// bit for bit, across cluster counts and degenerate populations.
func TestSeedPlusPlusMatchesReference(t *testing.T) {
	gen := rng.New(21)
	nan := complex(math.NaN(), 0)
	populations := map[string][]complex128{
		"empty":      nil,
		"one":        {complex(0.5, -0.25)},
		"two":        {1, -1},
		"lattice":    latticePoints(gen, 200),
		"lattice-30": latticePoints(gen, 30),
		"coincident": {complex(0.3, 0.7), complex(0.3, 0.7), complex(0.3, 0.7), complex(0.3, 0.7)},
		"few-coincident": {complex(0.3, 0.7), complex(0.3, 0.7), complex(-0.3, 0.1),
			complex(0.3, 0.7), complex(-0.3, 0.1)},
		"nan-some": append(latticePoints(gen, 40), nan, complex(0, math.NaN()), nan),
		"nan-all":  {nan, nan, nan},
		"inf":      append(latticePoints(gen, 20), complex(math.Inf(1), 0)),
	}
	for name, pts := range populations {
		for _, k := range []int{1, 2, 3, 9, 27} {
			for seed := int64(1); seed <= 5; seed++ {
				a, b := rng.New(seed), rng.New(seed)
				got := seedPlusPlus(pts, k, a)
				want := seedPlusPlusReference(pts, k, b)
				if len(got) != len(want) {
					t.Fatalf("%s k=%d seed %d: %d seeds, reference %d", name, k, seed, len(got), len(want))
				}
				for i := range want {
					if !sameComplexBits(got[i], want[i]) {
						t.Fatalf("%s k=%d seed %d: seed %d is %v, reference %v", name, k, seed, i, got[i], want[i])
					}
				}
				for d := 0; d < 4; d++ {
					if x, y := a.Int63(), b.Int63(); x != y {
						t.Fatalf("%s k=%d seed %d: rng state diverged (draw %d: %d vs %d)", name, k, seed, d, x, y)
					}
				}
			}
		}
	}
}

func sameComplexBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// BenchmarkSeedPlusPlus times 27-seed kmeans++ seeding of a 300-point
// lattice population, the largest collision-order hypothesis.
func BenchmarkSeedPlusPlus(b *testing.B) {
	pts := latticePoints(rng.New(22), 300)
	src := rng.New(23)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seedPlusPlus(pts, 27, src)
	}
}
