package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// stepCapture synthesizes a noisy IQ series with a DC carrier and a few
// hard amplitude steps — the shape the edge detector actually sweeps.
func stepCapture(rng *rand.Rand, n int) []complex128 {
	samples := make([]complex128, n)
	dc := complex(2.0+rng.Float64(), -1.0+rng.Float64())
	level := complex(0, 0)
	for i := range samples {
		if rng.Intn(400) == 0 {
			level = complex(rng.Float64()*4-2, rng.Float64()*4-2)
		}
		noise := complex(rng.NormFloat64()*0.05, rng.NormFloat64()*0.05)
		samples[i] = dc + level + noise
	}
	return samples
}

// soaLanes folds samples into from-origin SoA prefix-sum lanes,
// re[j] = Σ real(samples[0:j]) — the layout the edge detector keeps.
func soaLanes(samples []complex128) (re, im []float64) {
	re = make([]float64, len(samples)+1)
	im = make([]float64, len(samples)+1)
	for i, v := range samples {
		re[i+1] = re[i] + real(v)
		im[i+1] = im[i] + imag(v)
	}
	return re, im
}

// checkGated asserts the gated kernel's two soundness properties
// against the exact series want over the same positions: every
// position is bit-equal to want, or holds Below with want < thr; and
// every position within ±reach of one whose exact value reaches thr is
// bit-equal. It returns the number of Below positions.
func checkGated(t *testing.T, got, want []float64, thr float64, reach int) int {
	t.Helper()
	below := 0
	for i, v := range got {
		switch {
		case math.Float64bits(v) == math.Float64bits(want[i]):
		case v == Below && want[i] < thr:
			below++
		default:
			t.Fatalf("pos %d (thr %v): gated %v, exact %v", i, thr, v, want[i])
		}
	}
	for i, v := range want {
		if !(v >= thr) {
			continue
		}
		for k := max(i-reach, 0); k <= min(i+reach, len(got)-1); k++ {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("pos %d within %d of %d (exact %v ≥ thr %v): gated %v, exact %v",
					k, reach, i, v, thr, got[k], want[k])
			}
		}
	}
	return below
}

// TestPrefixSoAMatchesComplex pins the bit-identity of the SoA sweep
// kernels against the complex128 reference at every interior position:
// DiffSweep everywhere, and DiffSweepGated wherever it computes a
// value. The gated kernel must also find exactly the exact series'
// peaks, and must actually skip most positions at a detector-like
// threshold.
func TestPrefixSoAMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const gap, win = 2, 3
	for trial := 0; trial < 4; trial++ {
		n := 257 + rng.Intn(2000)
		samples := stepCapture(rng, n)
		ref := NewPrefix(samples)
		want := diffSeries(ref, gap, win)
		re, im := soaLanes(samples)
		j0, m := gap+win, n-2*(gap+win)
		got := make([]float64, m)
		DiffSweep(re, im, j0, gap, win, got)
		for i, v := range got {
			if w := want[j0+i]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("pos %d: DiffSweep %v != complex %v", j0+i, v, w)
			}
		}
		thr := 4 * MedianFloat(want)
		DiffSweepGated(re, im, j0, gap, win, thr, gap+2, got)
		if below := checkGated(t, got, want[j0:j0+m], thr, gap+2); below < m/2 {
			t.Fatalf("trial %d: gated sweep skipped only %d of %d positions", trial, below, m)
		}
		exact := findPeaks(want[j0:j0+m], thr, 5)
		if gated := findPeaks(got, thr, 5); !slices.Equal(gated, exact) {
			t.Fatalf("trial %d: gated peaks %v != exact peaks %v", trial, gated, exact)
		}
		ref.Release()
	}
}

// FuzzDiffSweep drives the dense sweep kernel with fuzzer-chosen
// capture lengths, gaps, windows, and sweep offsets, and asserts that
// every position it fills is bitwise equal to the complex128 reference
// |Prefix.Differential| (the Prefix/Mean path the detector was first
// written against). Samples are finite — the stream replaces
// non-finite IQ before it reaches the prefix sums.
func FuzzDiffSweep(f *testing.F) {
	f.Add(int64(1), uint16(900), uint8(2), uint8(3), uint16(0), 0.05)
	f.Add(int64(2), uint16(3000), uint8(1), uint8(1), uint16(17), 0.3)
	f.Add(int64(99), uint16(64), uint8(7), uint8(12), uint16(5), 0.0)
	f.Fuzz(func(t *testing.T, seed int64, sz uint16, gap8, win8 uint8, off uint16, noise float64) {
		if !(noise >= 0 && noise < 1e3) {
			t.Skip()
		}
		n := int(sz)%5000 + 1
		gap, win := int64(gap8%16)+1, int64(win8%32)+1
		margin := int(gap + win)
		// Interior positions [margin, n−margin); sweep a suffix of them
		// starting off positions in, so j0 is not always the first one.
		j0 := margin + int(off)%(n+1)
		m := n - margin - j0
		if m <= 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		samples := make([]complex128, n)
		level := complex(1, -1)
		for i := range samples {
			if rng.Intn(300) == 0 {
				level = complex(rng.Float64()*6-3, rng.Float64()*6-3)
			}
			samples[i] = level + complex(rng.NormFloat64()*noise, rng.NormFloat64()*noise)
		}
		ref := NewPrefix(samples)
		defer ref.Release()
		re, im := soaLanes(samples)
		got := make([]float64, m)
		DiffSweep(re, im, j0, gap, win, got)
		for i, v := range got {
			pos := int64(j0 + i)
			d := ref.Differential(pos, gap, win)
			if want := math.Hypot(real(d), imag(d)); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("pos %d (n=%d gap=%d win=%d): DiffSweep %v != reference %v", pos, n, gap, win, v, want)
			}
		}
	})
}

// FuzzDiffSweepGated checks the gated kernel's soundness (DESIGN.md
// §12) on fuzzer-chosen lengths, gaps, windows, sweep offsets, step
// sizes, noise, DC offsets and thresholds: against DiffSweep over the
// same positions, every position is bit-equal or holds Below with an
// exact value below the threshold, and every position within ±(gap+2)
// of one reaching the threshold is bit-equal. Large DC offsets drive
// the window sums far above their differences — the cancellation case
// the kernel's fall-back to exact covers. Sample components stay below
// 1e150, the edge detector's admission bound (edgedetect.MaxSampleMag),
// as every swept capture's do.
func FuzzDiffSweepGated(f *testing.F) {
	f.Add(int64(1), uint16(900), uint8(2), uint8(3), uint16(0), 1.0, 0.05, 2.0, -1.0, 0.3)
	f.Add(int64(2), uint16(3000), uint8(1), uint8(1), uint16(17), 0.01, 0.3, 0.0, 0.0, 0.9)
	f.Add(int64(3), uint16(2000), uint8(2), uint8(3), uint16(3), 1e-3, 1e-4, 1e12, -3e11, 0.5)
	f.Add(int64(4), uint16(500), uint8(4), uint8(9), uint16(0), 1.0, 0.0, 1e149, 1e149, 1e-9)
	f.Add(int64(5), uint16(1200), uint8(0), uint8(0), uint16(2), 1e-200, 1e-201, 0.0, 1e-199, 0.2)
	// Found by the fuzzer with the cancellation fall-back removed: a
	// DC offset ~10¹² times the step drives the window sums' rounding
	// past the slack, and the position at exactly thr failed the gate.
	f.Add(int64(111), uint16(1976), uint8('$'), uint8('.'), uint16(0), 0.024, 0.6666680555555556, 1e12, -2.666666666168889e11, 0.5)
	f.Fuzz(func(t *testing.T, seed int64, sz uint16, gap8, win8 uint8, off uint16,
		step, noise, dcRe, dcIm, thrFrac float64) {
		const maxMag = 1e150
		ok := func(x float64) bool { return math.Abs(x) < maxMag/4 }
		if !ok(step) || !ok(noise) || !ok(dcRe) || !ok(dcIm) || noise < 0 ||
			!(thrFrac > 0 && thrFrac < 1e3) {
			t.Skip()
		}
		n := int(sz)%5000 + 1
		gap, win := int64(gap8%16)+1, int64(win8%32)+1
		margin := int(gap + win)
		j0 := margin + int(off)%(n+1)
		m := n - margin - j0
		if m <= 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		samples := make([]complex128, n)
		dc := complex(dcRe, dcIm)
		var level complex128
		for i := range samples {
			if rng.Intn(200) == 0 {
				level = complex((rng.Float64()*2-1)*step, (rng.Float64()*2-1)*step)
			}
			samples[i] = dc + level + complex(rng.NormFloat64()*noise, rng.NormFloat64()*noise)
		}
		re, im := soaLanes(samples)
		want := make([]float64, m)
		DiffSweep(re, im, j0, gap, win, want)
		// Thresholds scale with the series so the gate splits it: a
		// fraction of the largest exact value (or the raw fraction on a
		// flat series).
		var peak float64
		for _, v := range want {
			peak = max(peak, v)
		}
		thr := thrFrac
		if peak > 0 {
			thr = thrFrac * peak
		}
		if !(thr > 0) || math.IsInf(thr, 0) {
			t.Skip()
		}
		got := make([]float64, m)
		DiffSweepGated(re, im, j0, gap, win, thr, int(gap)+2, got)
		checkGated(t, got, want, thr, int(gap)+2)
	})
}

// TestMedianFloatMatchesSort pins the quickselect median against the
// sorted-slice definition on random data, heavy ties, and NaNs.
func TestMedianFloatMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(10) {
			case 0:
				xs[i] = math.NaN()
			case 1, 2, 3:
				xs[i] = float64(rng.Intn(4)) // heavy ties
			default:
				xs[i] = rng.NormFloat64() * 100
			}
		}
		checkMedian(t, fmt.Sprintf("trial %d", trial), xs)
	}
}

// suppressReference is the textbook O(n²) greedy NMS under the same
// total order (value desc, position asc) — the semantics Suppress must
// preserve.
func suppressReference(peaks []Peak, minSpacing int64) []Peak {
	byValue := append([]Peak(nil), peaks...)
	slices.SortFunc(byValue, func(a, b Peak) int {
		if a.Value != b.Value {
			if a.Value > b.Value {
				return -1
			}
			return 1
		}
		return cmpInt64(a.Pos, b.Pos)
	})
	var kept []Peak
	for _, p := range byValue {
		ok := true
		for _, k := range kept {
			d := p.Pos - k.Pos
			if d < 0 {
				d = -d
			}
			if d < minSpacing {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, p)
		}
	}
	slices.SortFunc(kept, func(a, b Peak) int {
		if c := cmpInt64(a.Pos, b.Pos); c != 0 {
			return c
		}
		return -cmpFloat(a.Value, b.Value)
	})
	return kept
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// TestSuppressMatchesReference pins the chain pass against the
// quadratic reference on random inputs (negative positions, duplicate
// positions, heavy value ties, spacing 0), on position-sorted inputs —
// the streaming detector's case — and on long single chains, both
// through Suppress and through one reused Suppressor.
func TestSuppressMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var sp Suppressor
	var dst []Peak
	check := func(name string, peaks []Peak, spacing int64) {
		t.Helper()
		orig := append([]Peak(nil), peaks...)
		want := suppressReference(peaks, spacing)
		got := Suppress(peaks, spacing)
		if !slices.Equal(got, want) {
			t.Fatalf("%s spacing=%d: Suppress\n got %+v\nwant %+v", name, spacing, got, want)
		}
		dst = sp.Suppress(dst, peaks, spacing)
		if !slices.Equal(dst, want) {
			t.Fatalf("%s spacing=%d: reused Suppressor\n got %+v\nwant %+v", name, spacing, dst, want)
		}
		if !slices.Equal(peaks, orig) {
			t.Fatalf("%s: input modified", name)
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(120)
		peaks := make([]Peak, n)
		for i := range peaks {
			peaks[i] = Peak{
				Pos:   int64(rng.Intn(300)) - 50, // includes negatives
				Value: float64(rng.Intn(8)),      // heavy value ties
			}
		}
		spacing := int64(rng.Intn(12)) // includes 0
		check("random", peaks, spacing)
		slices.SortFunc(peaks, func(a, b Peak) int { return cmpInt64(a.Pos, b.Pos) })
		check("sorted", peaks, spacing)
	}
	for trial := 0; trial < 40; trial++ {
		// One long chain: every gap below the spacing, so nothing splits
		// it, with duplicate positions (gap 0) mixed in.
		spacing := int64(2 + rng.Intn(10))
		n := 200 + rng.Intn(800)
		peaks := make([]Peak, n)
		pos := int64(rng.Intn(100)) - 50
		for i := range peaks {
			pos += int64(rng.Intn(int(spacing)))
			peaks[i] = Peak{Pos: pos, Value: float64(rng.Intn(20))}
		}
		check("chain", peaks, spacing)
		rng.Shuffle(len(peaks), func(i, j int) { peaks[i], peaks[j] = peaks[j], peaks[i] })
		check("chain-shuffled", peaks, spacing)
	}
	dup := make([]Peak, 500)
	for i := range dup {
		dup[i] = Peak{Pos: int64(i % 3 * 4), Value: float64(i % 7)}
	}
	check("duplicates", dup, 5)
}

// BenchmarkSuppressDense is the regression benchmark for a
// spurious-edge flood where nearly every other position is a candidate
// peak: 20k peaks two samples apart form one chain, so the chain pass's
// per-chain value sort and slot checks carry the whole load.
func BenchmarkSuppressDense(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	peaks := make([]Peak, 20000)
	for i := range peaks {
		peaks[i] = Peak{Pos: int64(i * 2), Value: rng.Float64()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Suppress(peaks, 5)
	}
}

// BenchmarkDiffSweep times the exact kernel and the gated kernel at a
// detector-like threshold (4× the median magnitude) over one
// step-and-noise capture; ns/op divided by the position count gives
// the per-position cost.
func BenchmarkDiffSweep(b *testing.B) {
	const n, gap, win = 1 << 16, 2, 3
	samples := stepCapture(rand.New(rand.NewSource(11)), n)
	re, im := soaLanes(samples)
	j0, m := gap+win, n-2*(gap+win)
	dst := make([]float64, m)
	DiffSweep(re, im, j0, gap, win, dst)
	thr := 4 * MedianFloat(dst)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DiffSweep(re, im, j0, gap, win, dst)
		}
	})
	b.Run("gated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DiffSweepGated(re, im, j0, gap, win, thr, gap+2, dst)
		}
	})
}
