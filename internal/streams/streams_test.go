package streams

import (
	"math"
	"testing"

	"lf/internal/channel"
	"lf/internal/edgedetect"
	"lf/internal/reader"
	"lf/internal/rng"
	"lf/internal/tag"
)

// scenario builds a capture+detector from tag configs with fixed
// comparator randomness for reproducibility.
func scenario(t testing.TB, seed int64, payload int, cfgs ...tag.Config) (*edgedetect.Detector, []*tag.Emission) {
	t.Helper()
	src := rng.New(seed)
	p := channel.DefaultParams()
	geoms := channel.PlaceRing(len(cfgs), 2, src.Split("place"))
	ch := channel.NewModel(p, geoms, src.Split("noise"))
	var emissions []*tag.Emission
	longest := 0.0
	for i := range cfgs {
		cfgs[i].ID = i
		if cfgs[i].Payload == nil {
			cfgs[i].Payload = src.Bits(payload)
		}
		em := tag.Emit(cfgs[i], src)
		emissions = append(emissions, em)
		if em.End() > longest {
			longest = em.End()
		}
	}
	epCfg := reader.EpochConfig{SampleRate: 25e6, EdgeSamples: 3, Duration: longest + 100e-6}
	ep, err := reader.Synthesize(ch, emissions, epCfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := edgedetect.New(ep.Capture, edgedetect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return det, emissions
}

func defaultTag(rate float64) tag.Config {
	return tag.Config{BitRate: rate, ClockPPM: 150, Comparator: tag.DefaultComparator()}
}

func TestRegisterSingleStream(t *testing.T) {
	det, emissions := scenario(t, 1, 120, defaultTag(100e3))
	cfg := DefaultConfig(25e6, []float64{100e3})
	sts, err := Register(det.Edges(), cfg, func(float64) int { return 120 })
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 1 {
		t.Fatalf("registered %d streams", len(sts))
	}
	st := sts[0]
	anchor := emissions[0].Start * 25e6
	if math.Abs(st.Offset-anchor) > 6 {
		t.Fatalf("offset %v, true anchor %v", st.Offset, anchor)
	}
	truePeriod := emissions[0].BitPeriod * 25e6
	if math.Abs(st.Period-truePeriod) > 0.5 {
		t.Fatalf("period %v, want %v", st.Period, truePeriod)
	}
	if st.Rate != 100e3 {
		t.Fatalf("rate %v", st.Rate)
	}
}

func TestRegisterFourStreams(t *testing.T) {
	det, emissions := scenario(t, 3, 150,
		defaultTag(100e3), defaultTag(100e3), defaultTag(100e3), defaultTag(100e3))
	cfg := DefaultConfig(25e6, []float64{100e3})
	sts, err := Register(det.Edges(), cfg, func(float64) int { return 150 })
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) < 3 {
		t.Fatalf("registered %d of 4 streams", len(sts))
	}
	// Each registered stream's grid phase matches some true tag's
	// phase (anchors can land a few slots late when early preamble
	// edges collided; the decoder's alignment absorbs that).
	for _, st := range sts {
		ok := false
		for _, em := range emissions {
			period := em.BitPeriod * 25e6
			dph := math.Mod(math.Abs(st.Offset-em.Start*25e6), period)
			if dph > period/2 {
				dph = period - dph
			}
			if dph < 14 {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("stream at %v matches no tag grid", st.Offset)
		}
	}
	if len(sts) > 4 {
		t.Fatalf("%d streams for 4 tags", len(sts))
	}
}

func TestRegisterMultiRate(t *testing.T) {
	det, _ := scenario(t, 5, 200, defaultTag(100e3), defaultTag(10e3))
	cfg := DefaultConfig(25e6, []float64{100e3, 10e3})
	sts, err := Register(det.Edges(), cfg, func(rate float64) int {
		return int(200 * rate / 100e3)
	})
	if err != nil {
		t.Fatal(err)
	}
	rates := map[float64]int{}
	for _, st := range sts {
		rates[st.Rate]++
	}
	if rates[100e3] != 1 || rates[10e3] != 1 {
		t.Fatalf("rates registered: %v", rates)
	}
}

func TestRegisterValidation(t *testing.T) {
	cfg := DefaultConfig(25e6, nil)
	if _, err := Register(nil, cfg, func(float64) int { return 1 }); err == nil {
		t.Fatal("no rates accepted")
	}
	cfg = DefaultConfig(25e6, []float64{100e3})
	cfg.MinPreambleEdges = 99
	if _, err := Register(nil, cfg, func(float64) int { return 1 }); err == nil {
		t.Fatal("bad MinPreambleEdges accepted")
	}
}

func TestFrameSlots(t *testing.T) {
	cfg := DefaultConfig(25e6, []float64{100e3})
	if got := FrameSlots(cfg, 100); got != cfg.PreambleLen+DelimiterSlots+100 {
		t.Fatalf("FrameSlots = %d", got)
	}
}

func TestWalkTracksDrift(t *testing.T) {
	// A long frame with a drifting clock: the walker must stay locked
	// to the end.
	det, emissions := scenario(t, 7, 1500, defaultTag(100e3))
	cfg := DefaultConfig(25e6, []float64{100e3})
	sts, err := Register(det.Edges(), cfg, func(float64) int { return 1500 })
	if err != nil || len(sts) != 1 {
		t.Fatalf("registration failed: %v, %d streams", err, len(sts))
	}
	n := FrameSlots(cfg, 1500)
	slots := Walk(sts[0], det, cfg, n)
	if len(slots) != n {
		t.Fatalf("walked %d slots", len(slots))
	}
	em := emissions[0]
	// Check tail slots stay on the true grid.
	for _, k := range []int{n - 10, n - 5, n - 3} {
		truth := em.Start*25e6 + float64(k)*em.BitPeriod*25e6
		if d := math.Abs(float64(slots[k].Pos) - truth); d > 12 {
			t.Fatalf("slot %d drifted %v samples off the true grid", k, d)
		}
	}
	// Roughly half the slots carry clean edges (random payload).
	clean := 0
	for _, s := range slots {
		if s.Kind == MatchClean {
			clean++
		}
	}
	if clean < n/3 {
		t.Fatalf("only %d/%d clean locks", clean, n)
	}
}

func TestDedupeDropsDuplicates(t *testing.T) {
	cfg := DefaultConfig(25e6, []float64{100e3})
	e := complex(5e-4, 2e-4)
	a := &Stream{Rate: 100e3, Offset: 1000, Period: 250, E: e}
	b := &Stream{Rate: 100e3, Offset: 1002, Period: 250, E: e * complex(1.05, 0)}
	out := dedupe([]*Stream{a, b}, cfg)
	if len(out) != 1 {
		t.Fatalf("dedupe kept %d", len(out))
	}
	// Distinct vectors at the same phase survive (merged constituents).
	c := &Stream{Rate: 100e3, Offset: 1001, Period: 250, E: complex(-3e-4, 6e-4)}
	out = dedupe([]*Stream{a, c}, cfg)
	if len(out) != 2 {
		t.Fatalf("dedupe dropped a distinct constituent")
	}
}

func TestDedupeRetiresCombo(t *testing.T) {
	cfg := DefaultConfig(25e6, []float64{100e3})
	e1 := complex(5e-4, 2e-4)
	e2 := complex(-3e-4, 6e-4)
	a := &Stream{Rate: 100e3, Offset: 1000, Period: 250, E: e1}
	b := &Stream{Rate: 100e3, Offset: 1001, Period: 250, E: e2}
	combo := &Stream{Rate: 100e3, Offset: 1002, Period: 250, E: e1 + e2}
	out := dedupe([]*Stream{a, b, combo}, cfg)
	if len(out) != 2 {
		t.Fatalf("combo not retired: %d streams", len(out))
	}
}

func TestPeelGeneratorsTwoTags(t *testing.T) {
	src := rng.New(5)
	e1 := complex(-1.7e-4, -1.18e-3)
	e2 := complex(6.7e-4, -1.4e-4)
	var diffs []complex128
	for i := 0; i < 90; i++ {
		a := float64(src.Intn(3) - 1)
		b := float64(src.Intn(3) - 1)
		if a == 0 && b == 0 {
			continue
		}
		diffs = append(diffs, complex(a, 0)*e1+complex(b, 0)*e2+src.ComplexNorm(2*(6e-5)*(6e-5)))
	}
	gens, _ := peelGenerators(diffs)
	if len(gens) != 2 {
		t.Fatalf("peeled %d generators, want 2", len(gens))
	}
	for _, g := range gens {
		d1 := math.Min(cAbs(g-e1), cAbs(g+e1))
		d2 := math.Min(cAbs(g-e2), cAbs(g+e2))
		if math.Min(d1, d2) > 1.5e-4 {
			t.Fatalf("generator %v matches neither truth vector", g)
		}
	}
}

func cAbs(x complex128) float64 { return math.Hypot(real(x), imag(x)) }

func TestPeelGeneratorsSingleTag(t *testing.T) {
	src := rng.New(6)
	e := complex(7e-4, -2e-4)
	var diffs []complex128
	for i := 0; i < 60; i++ {
		s := complex(float64(1-2*(i%2)), 0)
		diffs = append(diffs, s*e+src.ComplexNorm(2*(4e-5)*(4e-5)))
	}
	gens, _ := peelGenerators(diffs)
	if len(gens) != 1 {
		t.Fatalf("peeled %d generators from a single tag", len(gens))
	}
	if math.Min(cAbs(gens[0]-e), cAbs(gens[0]+e)) > 1e-4 {
		t.Fatalf("generator %v, want ±%v", gens[0], e)
	}
}

func TestNoiseScale(t *testing.T) {
	src := rng.New(7)
	var diffs []complex128
	for i := 0; i < 40; i++ {
		diffs = append(diffs, complex(1e-3, 0)+src.ComplexNorm(1e-9))
	}
	got := noiseScale(diffs)
	// Median nearest-neighbour distance ~ noise σ (≈3e-5).
	if got < 5e-6 || got > 2e-4 {
		t.Fatalf("noise scale %v", got)
	}
	if noiseScale(nil) != 0 || noiseScale(diffs[:1]) != 0 {
		t.Fatal("degenerate noise scale should be 0")
	}
}
