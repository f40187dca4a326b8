package edgedetect

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lf/internal/channel"
	"lf/internal/fault"
	"lf/internal/iq"
	"lf/internal/reader"
	"lf/internal/rng"
	"lf/internal/tag"
)

// The noise-floor digest table pins the calibrated NoiseFloor and
// Threshold bits over a fixed case list, so a faster median kernel
// must return the same order statistic bit for bit. Regenerate it only
// for an intended, documented calibration change:
//
//	go test ./internal/edgedetect -run TestNoiseFloorDigest -update-floor-digest
var updateFloorDigest = flag.Bool("update-floor-digest", false, "regenerate testdata/noise_floor_digest.txt")

const floorDigestPath = "testdata/noise_floor_digest.txt"

// crowdCapture synthesizes n equal-rate 100 kbps tags on a ring, each
// sending a 200-bit payload (2 ms, the crowd shape).
func crowdCapture(t *testing.T, n int, seed int64) *iq.Capture {
	t.Helper()
	src := rng.New(seed)
	ch := channel.NewModel(channel.DefaultParams(), channel.PlaceRing(n, 2, src.Split("place")), src.Split("noise"))
	var ems []*tag.Emission
	longest := 0.0
	for i := 0; i < n; i++ {
		cfg := tag.Config{ID: i, BitRate: 100e3, ClockPPM: 150, Comparator: tag.DefaultComparator(), Payload: src.Bits(200)}
		em := tag.Emit(cfg, src)
		ems = append(ems, em)
		longest = math.Max(longest, em.End())
	}
	ep, err := reader.Synthesize(ch, ems, reader.EpochConfig{SampleRate: 25e6, EdgeSamples: 3, Duration: longest + 100e-6})
	if err != nil {
		t.Fatal(err)
	}
	return ep.Capture
}

// floorCase is one calibration input: a capture and the stream's
// calibration window.
type floorCase struct {
	name    string
	samples []complex128
	calib   int64
}

// floorCases is the pinned case list: 8- and 16-tag captures, clean
// and under every capture-level impairment, calibrated over the whole
// capture and over a 32768-sample prefix.
func floorCases(t *testing.T) []floorCase {
	var cases []floorCase
	for _, n := range []int{8, 16} {
		add := func(kind string, samples []complex128) {
			for _, calib := range []int64{0, 32768} {
				cases = append(cases, floorCase{
					name:    fmt.Sprintf("tags%d-calib%d-%s", n, calib, kind),
					samples: samples,
					calib:   calib,
				})
			}
		}
		clean := crowdCapture(t, n, 9000+int64(n))
		add("clean", clean.Samples)
		for i, k := range fault.CaptureKinds() {
			fc := fault.Config{Seed: int64(500 + i), Injectors: []fault.Injector{{Kind: k, Severity: 0.6}}}
			impaired, err := fc.ApplyCapture(clean)
			if err != nil {
				t.Fatal(err)
			}
			add(string(k), impaired.Samples)
		}
	}
	return cases
}

// TestNoiseFloorDigest requires each case's calibrated floor and
// threshold to match the recorded bits.
func TestNoiseFloorDigest(t *testing.T) {
	cases := floorCases(t)
	got := make([]string, len(cases))
	for i, c := range cases {
		s, err := NewStream(StreamConfig{Config: DefaultConfig(), CalibSamples: c.calib})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Push(c.samples); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		got[i] = fmt.Sprintf("%016x %016x", math.Float64bits(s.NoiseFloor()), math.Float64bits(s.Threshold()))
		s.Release()
	}
	if *updateFloorDigest {
		var b strings.Builder
		b.WriteString("# NoiseFloor and Threshold bits per case (see floor_digest_test.go).\n")
		for i, c := range cases {
			fmt.Fprintf(&b, "%s %s\n", c.name, got[i])
		}
		if err := os.MkdirAll(filepath.Dir(floorDigestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(floorDigestPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(floorDigestPath)
	if err != nil {
		t.Fatalf("open %s (regenerate with -update-floor-digest): %v", floorDigestPath, err)
	}
	defer f.Close()
	var names []string
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, bits, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", floorDigestPath, line)
		}
		names = append(names, name)
		want[name] = bits
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) != len(cases) {
		t.Fatalf("%s has %d cases, the test builds %d", floorDigestPath, len(names), len(cases))
	}
	for i, c := range cases {
		if names[i] != c.name {
			t.Fatalf("case %d is %q, table has %q", i, c.name, names[i])
		}
		if got[i] != want[c.name] {
			t.Errorf("%s: floor/threshold bits %s, recorded %s", c.name, got[i], want[c.name])
		}
	}
}
