package lf_test

// Metrics conservation suite. The observability layer's counters are
// only trustworthy if they balance: every raw edge peak is either kept
// or suppressed, every committed frame either passed or failed CRC,
// every drop event has exactly one reason. This test sweeps a clean
// epoch plus every fault kind at two severities and asserts those
// accounting identities on the batch decode's Stats(), then requires
// the streaming decode of the same capture to produce a byte-identical
// decode-class identity — the determinism contract under impairment.

import (
	"fmt"
	"testing"

	"lf"
	"lf/internal/fault"
	"lf/internal/reader"
)

// conservationChecks are the accounting identities every decode must
// satisfy, written as name, sum-of-parts == total.
func checkConservation(t *testing.T, s *lf.Stats, res *lf.Result) {
	t.Helper()
	c := s.Counter
	type identity struct {
		name       string
		total, sum int64
	}
	checks := []identity{
		{"edge.raw_peaks == kept + suppressed",
			c("edge.raw_peaks"), c("edge.kept") + c("edge.suppressed")},
		{"edge.edges == edge.groups",
			c("edge.edges"), c("edge.groups")},
		{"edge.edges == claimed + unclaimed",
			c("edge.edges"), c("edge.claimed") + c("edge.unclaimed")},
		{"walk.slots == clean + foreign + empty",
			c("walk.slots"), c("walk.slots_clean") + c("walk.slots_foreign") + c("walk.slots_empty")},
		{"collide.groups_pair == blind + anchored + unresolved",
			c("collide.groups_pair"), c("collide.pair_blind") + c("collide.pair_anchored") + c("collide.pair_unresolved")},
		{"frames.committed == crc_ok + crc_fail",
			c("frames.committed"), c("frames.crc_ok") + c("frames.crc_fail")},
		{"frames.committed == len(res.Streams)",
			c("frames.committed"), int64(len(res.Streams))},
		{"frames.recovered == res.RecoveredStreams",
			c("frames.recovered"), int64(res.RecoveredStreams)},
		{"sic.recovered == frames.recovered",
			c("sic.recovered"), c("frames.recovered")},
		{"sic.rounds == sic.residual_decodes",
			c("sic.rounds"), c("sic.residual_decodes")},
		{"drop.events == nonfinite + panic + truncated",
			c("drop.events"), c("drop.nonfinite") + c("drop.panic") + c("drop.truncated")},
		{"drop.events == len(res.Dropped)",
			c("drop.events"), int64(len(res.Dropped))},
	}
	for _, id := range checks {
		if id.total != id.sum {
			t.Errorf("conservation violated: %s (%d != %d)", id.name, id.total, id.sum)
		}
	}
	// Sanity floor: the instrumented pipeline must have seen the
	// capture at all — a decode that registered streams walks slots.
	if len(res.Streams) > 0 && c("walk.slots") == 0 {
		t.Error("decode produced streams but walk.slots is 0")
	}
}

// conservationEpoch impairs buildEpoch's output with one injector,
// re-synthesizing for tag-level kinds (the impairment exists before
// the ADC) and corrupting samples for capture-level kinds.
func conservationEpoch(t *testing.T, net *lf.Network, ep *lf.Epoch, inj fault.Injector) *lf.Epoch {
	t.Helper()
	fc := fault.Config{Seed: 29, Injectors: []fault.Injector{inj}}
	if fault.IsTagLevel(inj.Kind) {
		ems, err := fc.ApplyEmissions(ep.Emissions)
		if err != nil {
			t.Fatal(err)
		}
		re, err := reader.Synthesize(net.Channel(), ems, ep.Config)
		if err != nil {
			t.Fatal(err)
		}
		return &lf.Epoch{Capture: re.Capture, Emissions: ems, Config: ep.Config}
	}
	capture, err := fc.ApplyCapture(ep.Capture)
	if err != nil {
		t.Fatal(err)
	}
	return &lf.Epoch{Capture: capture, Emissions: ep.Emissions, Config: ep.Config}
}

func TestMetricsConservation(t *testing.T) {
	net, err := lf.NewNetwork(lf.NetworkConfig{NumTags: 4, PayloadSeconds: 2e-3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	base, err := net.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	cfg := net.DecoderConfig()

	type sweepCase struct {
		name string
		inj  *fault.Injector
	}
	cases := []sweepCase{{name: "clean"}}
	kinds := append(fault.CaptureKinds(), fault.TagKinds()...)
	for _, k := range kinds {
		for _, sev := range []float64{0.5, 1} {
			inj := fault.Injector{Kind: k, Severity: sev}
			cases = append(cases, sweepCase{name: fmt.Sprintf("%s:%g", k, sev), inj: &inj})
		}
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ep := base
			if tc.inj != nil {
				ep = conservationEpoch(t, net, base, *tc.inj)
			}

			// Batch decode: conservation holds on the decode's stats.
			dec, err := lf.NewDecoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dec.Decode(ep)
			if err != nil {
				t.Fatal(err)
			}
			stats := dec.Stats()
			checkConservation(t, stats, res)

			// Streaming decode of the same capture: the decode-class
			// identity must match the batch run byte for byte.
			sdec, err := lf.NewDecoder(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sd, err := sdec.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			const block = 4096
			samples := ep.Capture.Samples
			for lo := 0; lo < len(samples); lo += block {
				hi := min(lo+block, len(samples))
				if err := sd.Push(samples[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}
			sres, err := sd.Flush()
			if err != nil {
				t.Fatal(err)
			}
			checkConservation(t, sd.Stats(), sres)
			if got, want := sd.Stats().Identity(), stats.Identity(); got != want {
				t.Errorf("streaming stats identity diverged from batch:\n%s", textDiff(want, got))
			}
		})
	}
}

// TestStageTimingsPartitionPush pins the per-stage wall-time ledger on
// the default streaming decode: every Push times edge detection and
// the pump (registration, walking, commit) separately, both are
// recorded, and together they never exceed the Push total they
// partition.
func TestStageTimingsPartitionPush(t *testing.T) {
	ep, cfg := buildEpoch(t, 4, 11)
	cfg.CalibSamples = 32768
	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dec.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Blocks(8192, sd.Push); err != nil {
		t.Fatal(err)
	}
	if _, err := sd.Flush(); err != nil {
		t.Fatal(err)
	}
	tm := sd.Stats().Timings
	push, detect, walk := tm["stage.push_ns"], tm["stage.detect_ns"], tm["stage.walk_ns"]
	if detect.TotalNs <= 0 || walk.TotalNs <= 0 {
		t.Fatalf("stage timings not recorded: detect %d ns, walk %d ns", detect.TotalNs, walk.TotalNs)
	}
	if detect.Count != push.Count || walk.Count != push.Count {
		t.Fatalf("timed %d detects and %d walks over %d pushes", detect.Count, walk.Count, push.Count)
	}
	if detect.TotalNs+walk.TotalNs > push.TotalNs {
		t.Fatalf("detect %d ns + walk %d ns exceeds push %d ns", detect.TotalNs, walk.TotalNs, push.TotalNs)
	}
}
