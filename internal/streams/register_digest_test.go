package streams

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lf/internal/edgedetect"
	"lf/internal/tag"
)

// The registration digest table pins Register's output byte for byte
// over a fixed case list. Regenerate it only for an intended,
// documented registration change:
//
//	go test ./internal/streams -run TestRegisterDigest -update-digest
var updateDigest = flag.Bool("update-digest", false, "regenerate testdata/register_digest.txt")

const digestPath = "testdata/register_digest.txt"

// digestCase is one Register input: an edge list plus the rates,
// per-rate payload sizes and registration mode it is registered with.
type digestCase struct {
	name    string
	edges   []edgedetect.Edge
	rates   []float64
	payload func(rate float64) int
	mode    RegistrationMode
}

// sameTagCase builds n equal-rate 100 kbps tags with payload-bit frames.
func sameTagCase(t testing.TB, n int, seed int64, payload int) digestCase {
	cfgs := make([]tag.Config, n)
	for i := range cfgs {
		cfgs[i] = defaultTag(100e3)
	}
	det, _ := scenario(t, seed, payload, cfgs...)
	return digestCase{
		name:    fmt.Sprintf("tags%d-bits%d-seed%d", n, payload, seed),
		edges:   det.Edges(),
		rates:   []float64{100e3},
		payload: func(float64) int { return payload },
	}
}

// digestCases is the pinned case list. Every edge list comes from
// scenario(); the hole and repeat cases reshape one the way a masked
// SIC residual sweep and a coalescing detector can.
func digestCases(t *testing.T) []digestCase {
	var cases []digestCase
	for _, n := range []int{1, 4, 8, 12, 16} {
		for seed := int64(1); seed <= 10; seed++ {
			cases = append(cases, sameTagCase(t, n, 100*int64(n)+seed, 200))
		}
	}
	for seed := int64(1); seed <= 2; seed++ {
		cases = append(cases, sameTagCase(t, 8, 900+seed, 1000))
	}
	for seed := int64(1); seed <= 4; seed++ {
		rates := []float64{100e3, 50e3, 25e3, 10e3}
		det, _ := scenario(t, 700+seed, 200,
			defaultTag(100e3), defaultTag(100e3), defaultTag(100e3),
			defaultTag(50e3), defaultTag(25e3), defaultTag(10e3))
		cases = append(cases, digestCase{
			name:    fmt.Sprintf("multirate-seed%d", seed),
			edges:   det.Edges(),
			rates:   rates,
			payload: func(rate float64) int { return int(200 * rate / 100e3) },
		})
	}
	for seed := int64(1); seed <= 3; seed++ {
		base := sameTagCase(t, 12, 800+seed, 200)
		// A masked residual sweep reports no edge inside the masked
		// span: drop everything in [3000, 9000), across the comparator
		// window and the first slots of the fold.
		var holed []edgedetect.Edge
		for _, e := range base.edges {
			if e.Pos < 3000 || e.Pos >= 9000 {
				holed = append(holed, e)
			}
		}
		base.name = fmt.Sprintf("hole-seed%d", seed)
		base.edges = holed
		cases = append(cases, base)
	}
	for seed := int64(1); seed <= 3; seed++ {
		base := sameTagCase(t, 8, 850+seed, 200)
		// Every third edge gains a same-position twin with a slightly
		// scaled differential.
		var rep []edgedetect.Edge
		for i, e := range base.edges {
			rep = append(rep, e)
			if i%3 == 0 {
				twin := e
				twin.Diff *= complex(0.9, 0)
				rep = append(rep, twin)
			}
		}
		base.name = fmt.Sprintf("repeat-seed%d", seed)
		base.edges = rep
		cases = append(cases, base)
	}
	// The preamble matcher, alone and ahead of the eye pass.
	for _, n := range []int{1, 4, 8} {
		for seed := int64(1); seed <= 2; seed++ {
			for _, m := range []struct {
				mode  RegistrationMode
				label string
			}{{RegisterBoth, "both"}, {RegisterPreambleOnly, "preamble"}} {
				c := sameTagCase(t, n, 600+10*int64(n)+seed, 200)
				c.name = m.label + "-" + c.name
				c.mode = m.mode
				cases = append(cases, c)
			}
		}
	}
	return cases
}

// registerDigest hashes everything Register reports, in order.
func registerDigest(sts []*Stream) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(sts)))
	for _, st := range sts {
		put(uint64(st.ID))
		put(math.Float64bits(st.Offset))
		put(math.Float64bits(st.Period))
		put(math.Float64bits(real(st.E)))
		put(math.Float64bits(imag(st.E)))
		put(math.Float64bits(st.Rate))
		put(uint64(st.Source))
		put(uint64(len(st.PreambleEdges)))
		for _, ei := range st.PreambleEdges {
			put(uint64(ei))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func readDigestTable(t *testing.T) (names []string, digests map[string]string) {
	f, err := os.Open(digestPath)
	if err != nil {
		t.Fatalf("open %s (regenerate with -update-digest): %v", digestPath, err)
	}
	defer f.Close()
	digests = map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", digestPath, line)
		}
		names = append(names, fields[0])
		digests[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return names, digests
}

// TestRegisterDigest requires Register's output to match the recorded
// table case by case: a registration speed-up must be bit-identical.
func TestRegisterDigest(t *testing.T) {
	cases := digestCases(t)
	got := make([]string, len(cases))
	for i, c := range cases {
		cfg := DefaultConfig(25e6, c.rates)
		cfg.Registration = c.mode
		sts, err := Register(c.edges, cfg, c.payload)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[i] = registerDigest(sts)
	}
	if *updateDigest {
		var b strings.Builder
		b.WriteString("# SHA-256 of Register output per case (see register_digest_test.go).\n")
		for i, c := range cases {
			fmt.Fprintf(&b, "%s %s\n", c.name, got[i])
		}
		if err := os.MkdirAll(filepath.Dir(digestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	names, want := readDigestTable(t)
	if len(names) != len(cases) {
		t.Fatalf("%s has %d cases, the test builds %d", digestPath, len(names), len(cases))
	}
	for i, c := range cases {
		if names[i] != c.name {
			t.Fatalf("case %d is %q, table has %q", i, c.name, names[i])
		}
		if got[i] != want[c.name] {
			t.Fatalf("first differing case %q: Register digest %s, recorded %s", c.name, got[i], want[c.name])
		}
	}
}

var registerSink []*Stream

// BenchmarkRegister times Register on two fixed first-pass edge lists:
// the crowd shape (16 tags, 2 ms payloads) and the live shape (8 tags,
// 10 ms payloads), both at 100 kbps.
func BenchmarkRegister(b *testing.B) {
	for _, bc := range []struct {
		name    string
		tags    int
		payload int
		seed    int64
	}{
		{"16tag-2ms", 16, 200, 4001},
		{"8tag-10ms", 8, 1000, 4002},
	} {
		c := sameTagCase(b, bc.tags, bc.seed, bc.payload)
		cfg := DefaultConfig(25e6, c.rates)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sts, err := Register(c.edges, cfg, c.payload)
				if err != nil {
					b.Fatal(err)
				}
				registerSink = sts
			}
		})
	}
}
