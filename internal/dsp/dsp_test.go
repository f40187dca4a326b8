package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPrefixSumMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	samples := make([]complex128, 200)
	for i := range samples {
		samples[i] = complex(r.Float64(), r.Float64())
	}
	p := NewPrefix(samples)
	f := func(a, b uint16) bool {
		lo := int64(a) % int64(len(samples)+10)
		hi := int64(b) % int64(len(samples)+10)
		if lo > hi {
			lo, hi = hi, lo
		}
		var want complex128
		for i := lo; i < hi && i < int64(len(samples)); i++ {
			if i >= 0 {
				want += samples[i]
			}
		}
		got := p.Sum(lo, hi)
		return cAbs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func cAbs(x complex128) float64 { return math.Hypot(real(x), imag(x)) }

func TestPrefixMeanEmptyWindow(t *testing.T) {
	p := NewPrefix([]complex128{1, 2, 3})
	if p.Mean(2, 2) != 0 {
		t.Fatal("empty window mean should be 0")
	}
	if p.Mean(5, 9) != 0 {
		t.Fatal("out-of-range mean should be 0")
	}
}

// TestDifferentialOnStep checks that the differential across a clean
// step recovers the step height.
func TestDifferentialOnStep(t *testing.T) {
	samples := make([]complex128, 100)
	step := complex(2, -1)
	for i := 50; i < 100; i++ {
		samples[i] = step
	}
	p := NewPrefix(samples)
	got := p.Differential(50, 2, 10)
	if cAbs(got-step) > 1e-12 {
		t.Fatalf("differential %v, want %v", got, step)
	}
	// Far from the step the differential is zero.
	if cAbs(p.Differential(20, 2, 5)) > 1e-12 {
		t.Fatal("differential away from the step should be 0")
	}
}

func TestDifferentialSeriesPeaksAtStep(t *testing.T) {
	samples := make([]complex128, 60)
	for i := 30; i < 60; i++ {
		samples[i] = 1
	}
	p := NewPrefix(samples)
	mag := diffSeries(p, 2, 4)
	best := 0
	for i, v := range mag {
		if v > mag[best] {
			best = i
		}
	}
	if best < 28 || best > 32 {
		t.Fatalf("peak at %d, want ~30", best)
	}
}

// diffSeries is the complex128 reference differential series:
// |Differential| at every position, with clamped (shorter) windows
// near the ends — the batch sweep the SoA kernels are pinned against.
func diffSeries(p *Prefix, gap, win int64) []float64 {
	out := make([]float64, p.Len())
	for i := range out {
		d := p.Differential(int64(i), gap, win)
		out[i] = math.Hypot(real(d), imag(d))
	}
	return out
}

// findPeaks is the reference batch peak finder: local maxima of mag at
// or above threshold (plateaus keep their first sample), then Suppress.
// The streaming detector's scan applies the same rules position by
// position; the gated-kernel tests use it to show a gated series yields
// the exact series' peaks.
func findPeaks(mag []float64, threshold float64, minSpacing int64) []Peak {
	var peaks []Peak
	for i, v := range mag {
		if v < threshold {
			continue
		}
		if i > 0 && mag[i-1] >= v {
			continue // a larger left neighbour, or a plateau continuation
		}
		if i+1 < len(mag) && mag[i+1] > v {
			continue
		}
		peaks = append(peaks, Peak{Pos: int64(i), Value: v})
	}
	return Suppress(peaks, max(minSpacing, 1))
}

func TestMedianFloat(t *testing.T) {
	if MedianFloat(nil) != 0 {
		t.Fatal("median of empty should be 0")
	}
	if got := MedianFloat([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %v", got)
	}
	if got := MedianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
	// Input must not be mutated.
	in := []float64{9, 1, 5}
	MedianFloat(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Fatal("MedianFloat mutated its input")
	}
}

func TestFindPeaksThreshold(t *testing.T) {
	mag := []float64{0, 0, 5, 0, 0, 3, 0, 0}
	peaks := findPeaks(mag, 4, 1)
	if len(peaks) != 1 || peaks[0].Pos != 2 {
		t.Fatalf("peaks = %+v", peaks)
	}
}

func TestFindPeaksNMS(t *testing.T) {
	mag := []float64{0, 5, 0, 4, 0, 0, 0, 6, 0}
	peaks := findPeaks(mag, 1, 4)
	// 5 at pos 1 and 4 at pos 3 are within 4 samples: keep the larger.
	if len(peaks) != 2 {
		t.Fatalf("peaks = %+v, want 2 after suppression", peaks)
	}
	if peaks[0].Pos != 1 || peaks[1].Pos != 7 {
		t.Fatalf("peaks = %+v", peaks)
	}
}

func TestFindPeaksSortedByPosition(t *testing.T) {
	mag := make([]float64, 100)
	mag[10], mag[40], mag[80] = 3, 9, 5
	peaks := findPeaks(mag, 1, 5)
	for i := 1; i < len(peaks); i++ {
		if peaks[i].Pos <= peaks[i-1].Pos {
			t.Fatalf("peaks not sorted: %+v", peaks)
		}
	}
}

func TestFindPeaksPlateau(t *testing.T) {
	mag := []float64{0, 2, 2, 2, 0}
	peaks := findPeaks(mag, 1, 1)
	if len(peaks) != 1 {
		t.Fatalf("plateau produced %d peaks", len(peaks))
	}
}

func TestEyeHistogramFolding(t *testing.T) {
	// Edges at a fixed phase of a 100-sample period all land in one bin.
	var positions []int64
	for k := int64(0); k < 20; k++ {
		positions = append(positions, 37+k*100)
	}
	counts := EyeHistogram(positions, 100, 25)
	bin, peak, background := EyePeak(counts)
	if peak != 20 {
		t.Fatalf("peak count %d, want 20", peak)
	}
	if background != 0 {
		t.Fatalf("background %v, want 0", background)
	}
	if bin != 37*25/100 {
		t.Fatalf("peak bin %d", bin)
	}
}

func TestEyeHistogramDegenerate(t *testing.T) {
	if counts := EyeHistogram([]int64{1, 2}, 0, 10); len(counts) != 10 {
		t.Fatal("zero period should yield empty counts of requested size")
	}
	bin, peak, _ := EyePeak(nil)
	if bin != 0 || peak != 0 {
		t.Fatal("EyePeak of empty input should be zeros")
	}
}

func TestFoldedMeanAverages(t *testing.T) {
	series := make([]float64, 100)
	for k := 0; k < 10; k++ {
		series[5+k*10] = 2
	}
	if got := FoldedMean(series, 5, 10, 10); math.Abs(got-2) > 1e-12 {
		t.Fatalf("folded mean %v, want 2", got)
	}
	if FoldedMean(series, 5, 10, 0) != 0 {
		t.Fatal("zero reps should give 0")
	}
}

func TestAbsDist(t *testing.T) {
	if Abs(3+4i) != 5 {
		t.Fatal("Abs(3+4i) != 5")
	}
	if Dist(1+1i, 4+5i) != 5 {
		t.Fatal("Dist != 5")
	}
}

func TestNoiseFloorIgnoresSparseEdges(t *testing.T) {
	// 1% of samples carry large edge differentials; the median must
	// stay on the noise.
	mag := make([]float64, 1000)
	for i := range mag {
		mag[i] = 0.1
	}
	for i := 0; i < 10; i++ {
		mag[i*100] = 50
	}
	if got := NoiseFloor(mag); got != 0.1 {
		t.Fatalf("noise floor %v, want 0.1", got)
	}
}
