package lf_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lf"
	"lf/internal/fault"
	"lf/internal/gate"
)

// gateReaderCase is one reader in the acceptance fleet: its (possibly
// impaired) capture and a pinned nonce so expected frames carry a known
// Capture field.
type gateReaderCase struct {
	name    string
	nonce   uint64
	samples []complex128
}

// buildGateFleet returns the acceptance fleet — a clean reader plus one
// per capture-fault kind at severity 0.5, all sharing one epoch — and
// the decoder config. The gateway and the local reference both see the
// impaired samples, so any divergence is the gateway's fault, not the
// injector's.
func buildGateFleet(t *testing.T, kinds []fault.Kind) ([]gateReaderCase, lf.DecoderConfig) {
	t.Helper()
	ep, cfg := buildEpoch(t, 3, 17)
	cfg.CalibSamples = 32768
	cfg.CancellationRounds = -1

	fleet := []gateReaderCase{{name: "clean", nonce: 1, samples: ep.Capture.Samples}}
	for i, k := range kinds {
		fc := fault.Config{Seed: int64(500 + i), Injectors: []fault.Injector{{Kind: k, Severity: 0.5}}}
		impaired, err := fc.ApplyCapture(ep.Capture)
		if err != nil {
			t.Fatal(err)
		}
		fleet = append(fleet, gateReaderCase{name: string(k), nonce: uint64(i + 2), samples: impaired.Samples})
	}
	return fleet, cfg
}

// localGateFrames runs the independent local reference for one reader:
// its own lf.Decoder.NewStream over the same samples, frames built with
// the same constructor the gateway publishes with, plus the decoder's
// stats identity after flush (what the gateway folds into ReaderStats).
func localGateFrames(t *testing.T, samples []complex128, dcfg lf.DecoderConfig, reader string, nonce uint64) ([]*gate.Frame, string) {
	t.Helper()
	var frames []*gate.Frame
	dcfg.OnFrame = func(sr *lf.StreamResult) {
		frames = append(frames, gate.FrameOf(reader, nonce, len(frames), sr))
	}
	dec, err := lf.NewDecoder(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dec.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(samples); lo += 8192 {
		hi := lo + 8192
		if hi > len(samples) {
			hi = len(samples)
		}
		if err := sd.Push(samples[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sd.Flush(); err != nil {
		t.Fatal(err)
	}
	return frames, dec.Stats().Identity()
}

// TestGatewayMatchesLocalDecode is the gateway acceptance matrix:
// frames published for N concurrent readers must be byte-identical to N
// independent local lf.Decoder.NewStream runs over the same samples —
// across reader push block sizes {1, 4096, whole capture}, a fleet of
// capture-fault kinds at severity 0.5, and every transport fault kind
// at severity 0.5 on the gateway's side of each connection. Transport
// trouble may cost reconnects and resumes but never bytes, order, or
// stats identity.
func TestGatewayMatchesLocalDecode(t *testing.T) {
	captureKinds := []fault.Kind{fault.BurstNoise, fault.Dropout, fault.SpuriousEdges}
	fleet, cfg := buildGateFleet(t, captureKinds)

	// Local references: one decode per reader, computed once.
	wantFrames := map[string][]*gate.Frame{}
	wantID := map[string]string{}
	for _, rc := range fleet {
		wantFrames[rc.name], wantID[rc.name] = localGateFrames(t, rc.samples, cfg, rc.name, rc.nonce)
	}
	if len(wantFrames["clean"]) == 0 {
		t.Fatal("vacuous: clean local decode produced no frames")
	}

	transports := []struct {
		name      string
		transport fault.TransportConfig
	}{{name: "clean"}}
	for i, k := range fault.TransportKinds() {
		transports = append(transports, struct {
			name      string
			transport fault.TransportConfig
		}{
			name: string(k),
			transport: fault.TransportConfig{
				Seed:      int64(300 + i),
				Injectors: []fault.Injector{{Kind: k, Severity: 0.5}},
			},
		})
	}

	for _, block := range []int{1, 4096, 0} { // 0 = whole capture at once
		for _, tc := range transports {
			t.Run(fmt.Sprintf("block=%d/%s", block, tc.name), func(t *testing.T) {
				readers := map[string]gate.LoopbackReader{}
				for _, rc := range fleet {
					readers[rc.name] = gate.LoopbackReader{
						Samples:    rc.samples,
						SampleRate: cfg.SampleRate,
						Nonce:      rc.nonce,
						Block:      block,
					}
				}
				res, err := gate.Loopback(context.Background(), gate.Config{
					Decoder:   cfg,
					Transport: tc.transport,
				}, readers)
				if err != nil {
					t.Fatal(err)
				}
				for _, rc := range fleet {
					if !reflect.DeepEqual(res.Frames[rc.name], wantFrames[rc.name]) {
						t.Errorf("reader %s (block %d, transport %s): gateway frames diverged from local decode (%d vs %d frames)",
							rc.name, block, tc.name, len(res.Frames[rc.name]), len(wantFrames[rc.name]))
					}
					rs := res.ReaderStats[rc.name]
					if rs == nil {
						t.Errorf("reader %s: no gateway stats folded", rc.name)
						continue
					}
					if got := rs.Identity(); got != wantID[rc.name] {
						t.Errorf("reader %s (block %d, transport %s): stats identity diverged:\nwant:\n%s\ngot:\n%s",
							rc.name, block, tc.name, wantID[rc.name], got)
					}
				}
				if res.Gateway.Counter("gate.readers") != int64(len(fleet)) {
					t.Errorf("gate.readers = %d, want %d", res.Gateway.Counter("gate.readers"), len(fleet))
				}
				if res.Gateway.Counter("gate.bytes") == 0 {
					t.Error("no bytes crossed the wire — decode silently ran local")
				}
			})
		}
	}
}

// TestDistributedMatchesLocal is the distributed-decode acceptance
// matrix: a reader streaming over loopback TCP to the gateway, which
// decodes with {1, 2, 4} local stripe workers (ShardParallelism), must
// publish frames and stats byte-identical to the single-machine
// ShardParallelism = 4 decode — clean and under every transport fault
// kind at severity 0.5 on the gateway's side of each connection.
// Transport trouble may cost reconnects and resumes but never bytes,
// and the stripe count never changes a decoded bit.
func TestDistributedMatchesLocal(t *testing.T) {
	ep, cfg := buildEpoch(t, 4, 11)
	cfg.CalibSamples = 32768
	local := cfg
	local.ShardParallelism = 4
	const nonce = 7
	want, wantID := localGateFrames(t, ep.Capture.Samples, local, "r0", nonce)
	if len(want) == 0 {
		t.Fatal("vacuous: local decode produced no frames")
	}

	cases := []struct {
		name      string
		transport fault.TransportConfig
	}{{name: "clean"}}
	for i, k := range fault.TransportKinds() {
		cases = append(cases, struct {
			name      string
			transport fault.TransportConfig
		}{
			name: string(k),
			transport: fault.TransportConfig{
				Seed:      int64(300 + i),
				Injectors: []fault.Injector{{Kind: k, Severity: 0.5}},
			},
		})
	}

	for _, workers := range []int{1, 2, 4} {
		for _, tc := range cases {
			t.Run(tc.name+"/"+string(rune('0'+workers)), func(t *testing.T) {
				remote := cfg
				remote.ShardParallelism = workers
				res, err := gate.Loopback(context.Background(), gate.Config{
					Decoder:   remote,
					Transport: tc.transport,
				}, map[string]gate.LoopbackReader{"r0": {
					Samples:    ep.Capture.Samples,
					SampleRate: cfg.SampleRate,
					Nonce:      nonce,
					Block:      8192,
				}})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, res.Frames["r0"]) {
					t.Errorf("distributed decode (%d workers, %s) diverged from local sharded decode (%d vs %d frames)",
						workers, tc.name, len(res.Frames["r0"]), len(want))
				}
				rs := res.ReaderStats["r0"]
				if got := rs.Identity(); got != wantID {
					t.Errorf("stats identity diverged (%d workers, %s):\nwant:\n%s\ngot:\n%s", workers, tc.name, wantID, got)
				}
				if res.Gateway.Counter("gate.bytes") == 0 {
					t.Error("no bytes crossed the wire — decode silently ran local")
				}
				if workers > 1 && rs.Counter("shard.stripes") == 0 {
					t.Errorf("gateway decode with %d workers ran no stripes", workers)
				}
			})
		}
	}
}

// TestDistributedStatsConservation re-checks the decode-class
// conservation identities on a distributed run — two readers streaming
// to a gateway that decodes with two stripe workers — and pins the
// gate.* counters' own invariants: distribution must be invisible to
// each reader's decode stats, and every published frame and reader must
// be accounted for by the gateway.
func TestDistributedStatsConservation(t *testing.T) {
	ep, cfg := buildEpoch(t, 4, 11)
	cfg.CalibSamples = 32768
	cfg.ShardParallelism = 2
	samples := ep.Capture.Samples

	readers := map[string]gate.LoopbackReader{}
	for i, name := range []string{"r0", "r1"} {
		readers[name] = gate.LoopbackReader{
			Samples:    samples,
			SampleRate: cfg.SampleRate,
			Nonce:      uint64(i + 1),
			Block:      8192,
		}
	}
	res, err := gate.Loopback(context.Background(), gate.Config{Decoder: cfg}, readers)
	if err != nil {
		t.Fatal(err)
	}
	for name := range readers {
		snap := res.ReaderStats[name]
		if snap == nil {
			t.Fatalf("reader %s: no gateway stats folded", name)
		}
		get := func(metric string) int64 { return snap.Counter(metric) }
		if raw, kept, sup := get("edge.raw_peaks"), get("edge.kept"), get("edge.suppressed"); raw != kept+sup {
			t.Fatalf("%s: raw_peaks %d != kept %d + suppressed %d", name, raw, kept, sup)
		}
		if groups, edges := get("edge.groups"), get("edge.edges"); groups != edges {
			t.Fatalf("%s: groups %d != edges %d", name, groups, edges)
		}
		if edges, claimed, un := get("edge.edges"), get("edge.claimed"), get("edge.unclaimed"); edges != claimed+un {
			t.Fatalf("%s: edges %d != claimed %d + unclaimed %d", name, edges, claimed, un)
		}
		if slots, cl, f, e := get("walk.slots"), get("walk.slots_clean"), get("walk.slots_foreign"), get("walk.slots_empty"); slots != cl+f+e {
			t.Fatalf("%s: walk slots %d != clean %d + foreign %d + empty %d", name, slots, cl, f, e)
		}
		if covered := get("shard.samples"); covered != int64(len(samples)) {
			t.Fatalf("%s: stripes own %d positions, capture has %d", name, covered, len(samples))
		}
		// gate.* counters must never leak into a reader's decode stats.
		for metric := range snap.Counters {
			if strings.HasPrefix(metric, "gate.") {
				t.Fatalf("%s: %s leaked into the decode stats", name, metric)
			}
		}
	}
	if n := res.Gateway.Counter("gate.readers"); n != int64(len(readers)) {
		t.Fatalf("gate.readers = %d, want %d", n, len(readers))
	}
	if n := res.Gateway.Counter("gate.frames"); res.FramesTotal == 0 || n != int64(res.FramesTotal) {
		t.Fatalf("gate.frames = %d, published %d", n, res.FramesTotal)
	}
	if res.Gateway.Counter("gate.bytes") == 0 {
		t.Fatal("no bytes crossed the wire")
	}
}
