package edgedetect

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"lf/internal/shard"
	"lf/internal/tag"
)

// gatedCapture synthesizes a capture for the gated-sweep tests: weak
// edges (the centroid window's outer positions fall below the
// threshold, so the gated sweep leaves sentinels there) at irregular
// spacings, plus one edge planted on each of the given sample
// positions.
func gatedCapture(t *testing.T, planted []int64) []complex128 {
	t.Helper()
	const rate = 25e6
	var times []float64
	for us := 30.0; us < 3000; us += 41.7 {
		times = append(times, us*1e-6)
	}
	for _, p := range planted {
		times = append(times, float64(p)/rate)
	}
	// Toggles must be time-ordered; planted positions fall between the
	// regular ones.
	for i := 1; i < len(times); i++ {
		for j := i; j > 0 && times[j] < times[j-1]; j-- {
			times[j], times[j-1] = times[j-1], times[j]
		}
	}
	var toggles []tag.Toggle
	state := byte(1)
	for _, tm := range times {
		toggles = append(toggles, tag.Toggle{Time: tm, State: state})
		state = 1 - state
	}
	return capture(t, complex(8e-4, -3e-4), 1e-8, toggles, 3100e-6).Samples
}

// runGated pushes samples through a fresh stream in blocks and returns
// its edges and the positions where centroiding fell back to an exact
// recomputation. exact forces the exact sweep kernel throughout.
func runGated(t *testing.T, samples []complex128, cfg StreamConfig, block int, exact bool) ([]Edge, []int64) {
	t.Helper()
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	s.exactSweep = exact
	var fallbacks []int64
	s.onFallback = func(pos int64) { fallbacks = append(fallbacks, pos) }
	if s.extSums {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return append([]Edge(nil), s.Edges()...), fallbacks
	}
	for lo := 0; lo < len(samples); lo += block {
		if err := s.Push(samples[lo:min(lo+block, len(samples))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return append([]Edge(nil), s.Edges()...), fallbacks
}

// TestGatedSweepMatchesExact pins the gated sweep's contract at stream
// level: the edge list is identical to the exact sweep's across push
// block sizes, inline and sharded sweeps, deferred, bounded and preset
// calibration, captures with dropped-sample spans, and a seeded stream
// over an active mask. With 4096-sample blocks the inline sweep's
// chunk seams sit at 4096k − (Gap+Win); edges planted just past those
// seams put kept peaks within Gap+2 of a seam, and the centroid
// fallback must run there.
func TestGatedSweepMatchesExact(t *testing.T) {
	cfg := DefaultConfig()
	margin := cfg.Gap + cfg.Win
	// Toggles at offsets −4…+4 from the seams: where an edge's
	// above-threshold band starts (or ends) right at a seam, the far
	// side has no passing position of its own while the kept peak's
	// centroid window still reaches across.
	var seams, planted []int64
	for k := int64(10); k <= 18; k++ {
		seam := 4096*k - margin
		seams = append(seams, seam)
		planted = append(planted, seam+k-14)
	}
	clean := gatedCapture(t, planted)
	dropped := append([]complex128(nil), clean...)
	for _, p := range []int{20000, 45000, 45001, 45002, 60000} {
		dropped[p] = complex(math.NaN(), 0)
	}
	for p := 52000; p < 52040; p++ {
		dropped[p] = complex(math.Inf(1), 0)
	}

	ref, err := NewStream(StreamConfig{Config: cfg, CalibSamples: 32768})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Push(clean); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	preset := &CalibPreset{Floor: ref.NoiseFloor(), Threshold: ref.Threshold()}
	ref.Release()

	calibs := []struct {
		name   string
		samp   int64
		preset *CalibPreset
	}{{"calib=0", 0, nil}, {"calib=32768", 32768, nil}, {"preset", 0, preset}}
	for _, c := range []struct {
		name    string
		samples []complex128
	}{{"clean", clean}, {"dropped", dropped}} {
		for _, cal := range calibs {
			for _, workers := range []int{1, 2} {
				for _, block := range []int{1, 4096, len(clean)} {
					name := fmt.Sprintf("%s/%s/shards=%d/block=%d", c.name, cal.name, workers, block)
					scfg := StreamConfig{Config: cfg, CalibSamples: cal.samp, Calib: cal.preset, ShardWorkers: workers}
					want, _ := runGated(t, c.samples, scfg, block, true)
					got, fallbacks := runGated(t, c.samples, scfg, block, false)
					if len(want) < 40 {
						t.Fatalf("%s: exact sweep found only %d edges", name, len(want))
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: gated edges diverged from exact:\nexact: %+v\ngated: %+v", name, want, got)
					}
					if c.name == "clean" && cal.samp > 0 && workers == 1 && block == 4096 {
						requireSeamFallback(t, name, seams, fallbacks, cfg.Gap)
					}
				}
			}
		}
	}

	// Seeded stream over an active mask, calibration preset: the SIC
	// residual path. The mask splits one sweep into several kernel
	// calls, so its span boundaries are seams too.
	re := make([]float64, len(clean)+1)
	im := make([]float64, len(clean)+1)
	for i, v := range clean {
		re[i+1] = re[i] + real(v)
		im[i+1] = im[i] + imag(v)
	}
	active := []shard.Range{{Lo: 1000, Hi: 21000}, {Lo: seams[1] - 3, Hi: seams[2] + 500}, {Lo: 60000, Hi: 75000}}
	scfg := StreamConfig{Config: cfg, Calib: preset, Seed: &SweepSeed{SumsRe: re, SumsIm: im, Active: active}}
	want, _ := runGated(t, nil, scfg, 0, true)
	got, _ := runGated(t, nil, scfg, 0, false)
	if len(want) < 10 {
		t.Fatalf("seeded: exact sweep found only %d edges", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seeded: gated edges diverged from exact:\nexact: %+v\ngated: %+v", want, got)
	}
}

// requireSeamFallback fails unless the centroid fallback ran within
// reach of at least one planted seam: a kept peak sits within Gap+2 of
// the seam, and its centroid window (another Gap+2) crosses it.
func requireSeamFallback(t *testing.T, name string, seams, fallbacks []int64, gap int64) {
	t.Helper()
	reach := 2 * (gap + 2)
	for _, seam := range seams {
		for _, p := range fallbacks {
			if p >= seam-reach && p <= seam+reach {
				return
			}
		}
	}
	t.Fatalf("%s: no centroid fallback near the planted seams %v (fallbacks at %v)", name, seams, fallbacks)
}
