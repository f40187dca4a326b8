package lf_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"lf"
	"lf/internal/fault"
)

// streamDecode runs the streaming pipeline over an epoch's capture,
// pushed in fixed-size blocks.
func streamDecode(t *testing.T, ep *lf.Epoch, cfg lf.DecoderConfig, blockSize int) *lf.Result {
	t.Helper()
	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dec.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	samples := ep.Capture.Samples
	for i := 0; i < len(samples); i += blockSize {
		end := min(i+blockSize, len(samples))
		if err := sd.Push(samples[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sd.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStreamingMatchesBatch pins the streaming pipeline's central
// contract: pushing a capture through StreamDecoder in blocks of any
// size — one sample at a time, mid-size blocks at awkward offsets, or
// a single block larger than the whole capture — produces a Result
// byte-identical to batch Decode with the same config. CalibSamples is
// set so the streaming path genuinely runs incrementally (calibrating,
// registering, walking, and committing frames mid-capture) rather than
// deferring everything to Flush.
func TestStreamingMatchesBatch(t *testing.T) {
	for _, tags := range []int{1, 4, 16} {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("tags=%d/seed=%d", tags, seed), func(t *testing.T) {
				ep, cfg := buildEpoch(t, tags, seed)
				cfg.CalibSamples = 32768
				batch := decodeWith(t, ep, cfg, 0)
				blocks := []int{1, 4096, 65536, len(ep.Capture.Samples) + 999}
				for _, block := range blocks {
					streamed := streamDecode(t, ep, cfg, block)
					if !reflect.DeepEqual(batch, streamed) {
						t.Fatalf("block=%d: streaming decode diverged from batch:\nbatch:    %+v\nstreamed: %+v", block, batch, streamed)
					}
				}
			})
		}
	}
}

// TestStreamingMatchesBatchDeferredCalibration covers the degenerate
// configuration: with CalibSamples = 0 the streaming decoder defers
// calibration (and hence the whole pipeline) to Flush, which must
// still reproduce the batch result exactly.
func TestStreamingMatchesBatchDeferredCalibration(t *testing.T) {
	ep, cfg := buildEpoch(t, 4, 42)
	batch := decodeWith(t, ep, cfg, 0)
	streamed := streamDecode(t, ep, cfg, 8192)
	if !reflect.DeepEqual(batch, streamed) {
		t.Fatal("deferred-calibration streaming decode diverged from batch")
	}
}

// TestStreamingMatchesBatchFaults extends the streaming contract to
// degraded input: for fault-injected captures across every
// capture-level impairment kind, streaming decodes at block sizes 1,
// 4096, and whole-capture must be byte-identical to batch Decode.
// CalibSamples is set so calibration ends mid-capture and the
// incremental sweep, trim, and drop-span blanking all engage.
func TestStreamingMatchesBatchFaults(t *testing.T) {
	blocks := func(n int) []int {
		if testing.Short() {
			return []int{4096}
		}
		return []int{1, 4096, n + 999}
	}
	for _, seed := range []int64{5, 11} {
		ep, cfg := buildEpoch(t, 4, seed)
		cfg.CalibSamples = 32768
		for _, kind := range fault.CaptureKinds() {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, kind), func(t *testing.T) {
				fc := fault.Config{Seed: seed + 100, Injectors: []fault.Injector{
					{Kind: kind, Severity: 0.5},
				}}
				impaired, err := fc.ApplyCapture(ep.Capture)
				if err != nil {
					t.Fatal(err)
				}
				ep2 := &lf.Epoch{Capture: impaired, Emissions: ep.Emissions, Config: ep.Config}
				batch := decodeWith(t, ep2, cfg, 0)
				for _, block := range blocks(len(impaired.Samples)) {
					if streamed := streamDecode(t, ep2, cfg, block); !reflect.DeepEqual(batch, streamed) {
						t.Fatalf("block=%d: streaming decode diverged from batch", block)
					}
				}
			})
		}
	}
}

// TestStreamingMemoryBounded verifies the O(window) memory claim: a
// capture padded to >10x its useful length must decode with retained
// memory that (a) stops growing once the frames commit and the window
// starts sliding, and (b) stays far below what buffering the pushed
// samples would cost. Cancellation is disabled because SIC retains the
// raw capture by design; everything else runs at defaults. The frames
// must also surface through OnFrame long before Flush.
func TestStreamingMemoryBounded(t *testing.T) {
	// Serial and sharded must both hold the O(window) bound; the
	// sharded run pins the accounting with in-flight stripe buffers on
	// top and checks the shard pool's workers all exit at Flush.
	t.Run("serial", func(t *testing.T) { testStreamingMemoryBounded(t, 0) })
	t.Run("sharded", func(t *testing.T) { testStreamingMemoryBounded(t, 2) })
}

func testStreamingMemoryBounded(t *testing.T, shards int) {
	before := runtime.NumGoroutine()
	ep, cfg := buildEpoch(t, 2, 5)
	cfg.CalibSamples = 32768
	cfg.CancellationRounds = -1
	cfg.ShardParallelism = shards
	framesBeforeFlush := 0
	cfg.OnFrame = func(*lf.StreamResult) { framesBeforeFlush++ }

	base := ep.Capture.Samples
	const padFactor = 12
	padded := make([]complex128, len(base)*(1+padFactor))
	copy(padded, base)

	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dec.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	const block = 8192
	var peak, atDouble, atEnd int64
	for i := 0; i < len(padded); i += block {
		end := min(i+block, len(padded))
		if err := sd.Push(padded[i:end]); err != nil {
			t.Fatal(err)
		}
		if r := sd.RetainedBytes(); r > peak {
			peak = r
		}
		if atDouble == 0 && end >= 2*len(base) {
			atDouble = sd.RetainedBytes()
		}
	}
	atEnd = sd.RetainedBytes()
	if framesBeforeFlush == 0 {
		t.Fatal("no frames emitted before Flush on a streaming decode")
	}
	res, err := sd.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if framesBeforeFlush != len(res.Streams) {
		t.Fatalf("OnFrame fired %d times, result has %d streams", framesBeforeFlush, len(res.Streams))
	}

	pushedBytes := int64(len(padded)) * 16
	if peak >= pushedBytes/4 {
		t.Fatalf("peak retained memory %d B is not far below the %d B of pushed samples", peak, pushedBytes)
	}
	// Between 2x the useful capture and the end of the 13x padded tail,
	// the retained window must not keep growing with pushed length.
	if atEnd > atDouble+1<<20 {
		t.Fatalf("retained memory still growing in the tail: %d B at 2x capture, %d B at end", atDouble, atEnd)
	}
	// Shard goroutines must all have exited with Flush.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before decode, %d after Flush", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// streamDecodeSamples is streamDecode over explicit samples, returning
// the Result together with the decode-class stats identity.
func streamDecodeSamples(t *testing.T, samples []complex128, cfg lf.DecoderConfig, blockSize int) (*lf.Result, string) {
	t.Helper()
	dec, err := lf.NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := dec.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(samples); i += blockSize {
		end := min(i+blockSize, len(samples))
		if err := sd.Push(samples[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sd.Flush()
	if err != nil {
		t.Fatal(err)
	}
	return res, sd.Stats().Identity()
}

// TestStreamingFlushLifecycle pins the streaming decoder's end-of-
// capture edges: a second Flush returns the same Result, Push after
// Flush fails cleanly, and no goroutine outlives the decode.
func TestStreamingFlushLifecycle(t *testing.T) {
	ep, cfg := buildEpoch(t, 2, 3)
	cfg.CalibSamples = 32768
	before := runtime.NumGoroutine()

	var last *lf.Result
	for i := 0; i < 4; i++ {
		dec, err := lf.NewDecoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := dec.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		samples := ep.Capture.Samples
		for j := 0; j < len(samples); j += 4096 {
			if err := sd.Push(samples[j:min(j+4096, len(samples))]); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sd.Flush()
		if err != nil {
			t.Fatal(err)
		}
		again, err := sd.Flush()
		if err != nil || again != res {
			t.Fatalf("second Flush = (%p, %v), want the same Result", again, err)
		}
		if err := sd.Push(samples[:16]); err == nil {
			t.Fatal("Push after Flush succeeded")
		}
		last = res
	}
	if last == nil || len(last.Streams) == 0 {
		t.Fatal("streaming decode found no streams")
	}
	// Worker goroutines exit with their batches, so the count must
	// settle back; allow the runtime a moment for exits to land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after streaming decodes", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
