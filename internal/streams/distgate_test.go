package streams

import (
	"math"
	"testing"

	"lf/internal/dsp"
	"lf/internal/rng"
)

// exactNearest is the historical noiseScale inner loop.
func exactNearest(pts []complex128, i int) float64 {
	best := math.Inf(1)
	for j, q := range pts {
		if j == i {
			continue
		}
		if dist := dsp.Dist(pts[i], q); dist < best {
			best = dist
		}
	}
	return best
}

func exactCountPM(pts []complex128, d complex128, r float64) int {
	n := 0
	for _, q := range pts {
		if dsp.Dist(q, d) <= r || dsp.Dist(q, -d) <= r {
			n++
		}
	}
	return n
}

// checkGates requires every gate helper to agree with the exact
// dsp.Dist comparison it replaces.
func checkGates(t *testing.T, a, b complex128, r float64) {
	t.Helper()
	d := dsp.Dist(a, b)
	if got, want := distLE(a, b, r), d <= r; got != want {
		t.Fatalf("distLE(%v, %v, %v) = %v, Dist = %v", a, b, r, got, d)
	}
	if got, want := distGT(a, b, r), d > r; got != want {
		t.Fatalf("distGT(%v, %v, %v) = %v, Dist = %v", a, b, r, got, d)
	}
	pts := []complex128{a, b, -a, a + b, complex(r, real(a)), complex(imag(b), r), b * complex(1+0x1p-40, 0)}
	if got, want := newDistGate(r).countPM(pts, a), exactCountPM(pts, a, r); got != want {
		t.Fatalf("countPM(%v, r=%v) = %d, exact %d", a, r, got, want)
	}
	for i := range pts {
		got, want := nearestDist(pts, i), exactNearest(pts, i)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("nearestDist(%v, %d) = %v, exact %v", pts, i, got, want)
		}
	}
}

// FuzzDistGate drives the gates with arbitrary float64 bit patterns
// (NaN, ±Inf, subnormals, huge values) for a, b and r.
func FuzzDistGate(f *testing.F) {
	add := func(a, b complex128, r float64) {
		f.Add(math.Float64bits(real(a)), math.Float64bits(imag(a)),
			math.Float64bits(real(b)), math.Float64bits(imag(b)), math.Float64bits(r))
	}
	pairs := [][2]complex128{
		{complex(3, 4), 0},
		{complex(5e-4, 2e-4), complex(-3e-4, 6e-4)},
		{complex(1e-160, 3e-161), complex(-2e-160, 1e-162)},
		{complex(1e200, -1e200), complex(-1e200, 3e199)},
		{complex(4e-320, 0), complex(0, 5e-324)},
		{complex(0x1p-300, 0), 0},
		{complex(0x1p300, 0x1p299), 0},
	}
	for _, p := range pairs {
		d := dsp.Dist(p[0], p[1])
		add(p[0], p[1], d)
		add(p[0], p[1], math.Nextafter(d, math.Inf(1)))
		add(p[0], p[1], math.Nextafter(d, math.Inf(-1)))
		add(p[0], p[1], d*(1+0x1p-30))
		add(p[0], p[1], d*(1-0x1p-30))
	}
	add(complex(math.NaN(), 0), 1, 1)
	add(complex(math.Inf(1), math.NaN()), 0, 1)
	add(complex(math.Inf(-1), 1), 0, math.Inf(1))
	add(1, 2, math.NaN())
	add(1, 2, -1)
	add(1, 1, 0)
	add(complex(1, 1), 0, math.SmallestNonzeroFloat64)
	f.Fuzz(func(t *testing.T, ar, ai, br, bi, rb uint64) {
		a := complex(math.Float64frombits(ar), math.Float64frombits(ai))
		b := complex(math.Float64frombits(br), math.Float64frombits(bi))
		checkGates(t, a, b, math.Float64frombits(rb))
	})
}

// TestDistGateBoundary walks r across the gate's band edge for random
// pairs over the whole exponent range: r = Dist·(1 ± 2⁻ᵏ) for k from
// 20 (decided by the squares) to 60 (inside the band, decided exactly).
func TestDistGateBoundary(t *testing.T) {
	src := rng.New(17)
	for n := 0; n < 2000; n++ {
		scale := math.Ldexp(1, src.Intn(700)-350)
		a := complex(src.Uniform(-1, 1)*scale, src.Uniform(-1, 1)*scale)
		b := complex(src.Uniform(-1, 1)*scale, src.Uniform(-1, 1)*scale)
		d := dsp.Dist(a, b)
		for k := 20; k <= 60; k += 4 {
			eps := math.Ldexp(1, -k)
			checkGates(t, a, b, d*(1+eps))
			checkGates(t, a, b, d*(1-eps))
		}
		checkGates(t, a, b, d)
		checkGates(t, a, b, math.Nextafter(d, 0))
	}
}
