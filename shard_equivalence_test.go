package lf_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"lf"
	"lf/internal/fault"
)

// TestShardedMatchesSerial pins the sharded decoder's byte-identity
// contract across the full degradation surface: for a clean capture
// and one capture per fault kind, the sharded decode
// (ShardParallelism ∈ {2, 8}) must produce byte-identical Results —
// frames, drops, and decode-class stats — to the unsharded streaming
// path at every push block size, single-sample pushes included. Shard
// count and block size only reshape which worker computes which
// stripe; any divergence means a stripe read state outside its
// seam-safe overlap (DESIGN.md §15).
func TestShardedMatchesSerial(t *testing.T) {
	ep, cfg := buildEpoch(t, 4, 11)
	cfg.CalibSamples = 32768

	cases := []struct {
		name    string
		samples []complex128
	}{{"clean", ep.Capture.Samples}}
	for i, k := range fault.CaptureKinds() {
		fc := fault.Config{Seed: int64(100 + i), Injectors: []fault.Injector{{Kind: k, Severity: 0.6}}}
		impaired, err := fc.ApplyCapture(ep.Capture)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			name    string
			samples []complex128
		}{string(k), impaired.Samples})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantID := streamDecodeSamples(t, tc.samples, cfg, 4096)
			for _, shards := range []int{2, 8} {
				for _, block := range []int{1, 4096, len(tc.samples) + 1} {
					if block == 1 && shards != 2 {
						// Single-sample pushes exercise the stripe
						// hold-back machinery; one shard count is enough
						// at that cost.
						continue
					}
					scfg := cfg
					scfg.ShardParallelism = shards
					got, gotID := streamDecodeSamples(t, tc.samples, scfg, block)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("shards=%d block=%d: sharded decode diverged from serial:\nserial:  %+v\nsharded: %+v",
							shards, block, want, got)
					}
					if wantID != gotID {
						t.Fatalf("shards=%d block=%d: decode-class stats diverged:\nserial:\n%s\nsharded:\n%s",
							shards, block, wantID, gotID)
					}
				}
			}
		})
	}
}

// TestShardedBatchMatches pins that batch Decode honours
// ShardParallelism and still returns the exact unsharded result —
// with SIC enabled, so the residual decodes inherit the sharding too.
func TestShardedBatchMatches(t *testing.T) {
	ep, cfg := buildEpoch(t, 8, 21)
	cfg.CalibSamples = 32768
	want := decodeWith(t, ep, cfg, 0)
	scfg := cfg
	scfg.ShardParallelism = 4
	got := decodeWith(t, ep, scfg, 0)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("sharded batch decode diverged:\nserial:  %+v\nsharded: %+v", want, got)
	}
}

// TestShardedShutdown pins the shard pool's lifecycle: worker
// goroutines must all exit after Flush — including when the decode
// ends early on a poisoned capture — and repeated sharded decodes must
// not accumulate goroutines.
func TestShardedShutdown(t *testing.T) {
	ep, cfg := buildEpoch(t, 2, 3)
	cfg.CalibSamples = 32768
	cfg.ShardParallelism = 4
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		res, _ := streamDecodeSamples(t, ep.Capture.Samples, cfg, 8192)
		if len(res.Streams) == 0 {
			t.Fatal("sharded decode found no streams")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after sharded decodes", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardedStatsConservation re-checks the decode-class conservation
// identities on a sharded run: shard counters are runtime-class by
// design, so every decode-class invariant must hold exactly as on the
// serial path.
func TestShardedStatsConservation(t *testing.T) {
	ep, cfg := buildEpoch(t, 4, 11)
	cfg.CalibSamples = 32768
	cfg.ShardParallelism = 2
	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dec.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	samples := ep.Capture.Samples
	for i := 0; i < len(samples); i += 8192 {
		if err := sd.Push(samples[i:min(i+8192, len(samples))]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sd.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := sd.Stats()
	get := func(name string) int64 { return snap.Counter(name) }
	if raw, kept, sup := get("edge.raw_peaks"), get("edge.kept"), get("edge.suppressed"); raw != kept+sup {
		t.Fatalf("raw_peaks %d != kept %d + suppressed %d", raw, kept, sup)
	}
	if groups, edges := get("edge.groups"), get("edge.edges"); groups != edges {
		t.Fatalf("groups %d != edges %d", groups, edges)
	}
	if edges, claimed, un := get("edge.edges"), get("edge.claimed"), get("edge.unclaimed"); edges != claimed+un {
		t.Fatalf("edges %d != claimed %d + unclaimed %d", edges, claimed, un)
	}
	if slots, c, f, e := get("walk.slots"), get("walk.slots_clean"), get("walk.slots_foreign"), get("walk.slots_empty"); slots != c+f+e {
		t.Fatalf("walk slots %d != clean %d + foreign %d + empty %d", slots, c, f, e)
	}
	// The stripe counters themselves: every computable magnitude
	// position is owned by exactly one stripe.
	if n := get("shard.stripes"); n == 0 {
		t.Fatal("sharded decode dispatched no stripes")
	}
	if covered := get("shard.samples"); covered != int64(len(samples)) {
		t.Fatalf("stripes own %d positions, capture has %d", covered, len(samples))
	}
}

// TestShardedFaultSweepAcrossBlocks is the make shard-smoke sweep rung
// that varies shard count and block size together on one degraded
// capture per run mode — cheaper than the full cross product in
// TestShardedMatchesSerial but covering the {1, 2, 8} shard ladder the
// CI target names (ShardParallelism 1 must equal 0, the off switch).
func TestShardedFaultSweepAcrossBlocks(t *testing.T) {
	ep, cfg := buildEpoch(t, 4, 13)
	cfg.CalibSamples = 32768
	fc := fault.Config{Seed: 7, Injectors: []fault.Injector{{Kind: fault.SpuriousEdges, Severity: 0.6}}}
	impaired, err := fc.ApplyCapture(ep.Capture)
	if err != nil {
		t.Fatal(err)
	}
	want, wantID := streamDecodeSamples(t, impaired.Samples, cfg, 8192)
	for _, shards := range []int{1, 2, 8} {
		for _, block := range []int{4096, 8192} {
			scfg := cfg
			scfg.ShardParallelism = shards
			got, gotID := streamDecodeSamples(t, impaired.Samples, scfg, block)
			if !reflect.DeepEqual(want, got) || wantID != gotID {
				t.Fatalf("shards=%d block=%d: diverged from serial", shards, block)
			}
		}
	}
}
