package gate

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"lf"
	"lf/internal/fault"
)

// testCapture simulates one reader's epoch and returns its samples
// plus a decoder config tuned for the suite: bounded-memory streaming
// (CalibSamples) with SIC off so sessions retain a window, not the
// whole capture.
func testCapture(t *testing.T, tags int, seed int64) ([]complex128, lf.DecoderConfig) {
	t.Helper()
	net, err := lf.NewNetwork(lf.NetworkConfig{NumTags: tags, PayloadSeconds: 2e-3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := net.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	cfg := net.DecoderConfig()
	cfg.CalibSamples = 32768
	cfg.CancellationRounds = -1
	return ep.Capture.Samples, cfg
}

// localFrames runs the reference decode: an independent
// lf.Decoder.NewStream over the same samples, collecting frames
// through the same constructor the gateway publishes with. Gateway
// output must be byte-identical to this at any wire chunking, push
// blocking, or transport fault pattern.
func localFrames(t *testing.T, samples []complex128, dcfg lf.DecoderConfig, reader string, nonce uint64) []*Frame {
	t.Helper()
	var frames []*Frame
	dcfg.OnFrame = func(sr *lf.StreamResult) {
		frames = append(frames, FrameOf(reader, nonce, len(frames), sr))
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
		hi := min(lo+8192, len(samples))
		if err := sd.Push(samples[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sd.Flush(); err != nil {
		t.Fatal(err)
	}
	return frames
}

// TestGateLoopbackMatchesLocal is the in-package smoke: two readers
// with different captures through one gateway, frames byte-identical
// to local decodes. (The full block × fault × transport matrix lives
// in gate_equivalence_test.go at the repo root.)
func TestGateLoopbackMatchesLocal(t *testing.T) {
	samplesA, cfg := testCapture(t, 3, 21)
	samplesB, _ := testCapture(t, 3, 22)

	res, err := Loopback(context.Background(), Config{Decoder: cfg}, map[string]LoopbackReader{
		"r0": {Samples: samplesA, SampleRate: cfg.SampleRate, Nonce: 1, Block: 4096},
		"r1": {Samples: samplesB, SampleRate: cfg.SampleRate, Nonce: 2, Block: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantA := localFrames(t, samplesA, cfg, "r0", 1)
	wantB := localFrames(t, samplesB, cfg, "r1", 2)
	if len(wantA) == 0 || len(wantB) == 0 {
		t.Fatal("vacuous: local decode produced no frames")
	}
	if !reflect.DeepEqual(res.Frames["r0"], wantA) {
		t.Errorf("reader r0 gateway frames diverged from local decode (%d vs %d frames)", len(res.Frames["r0"]), len(wantA))
	}
	if !reflect.DeepEqual(res.Frames["r1"], wantB) {
		t.Errorf("reader r1 gateway frames diverged from local decode (%d vs %d frames)", len(res.Frames["r1"]), len(wantB))
	}
	if res.Gateway.Counter("gate.frames") != int64(len(wantA)+len(wantB)) {
		t.Errorf("gate.frames = %d, want %d", res.Gateway.Counter("gate.frames"), len(wantA)+len(wantB))
	}
	if res.Gateway.Counter("gate.readers") != 2 {
		t.Errorf("gate.readers = %d, want 2", res.Gateway.Counter("gate.readers"))
	}
	if res.Gateway.Counter("gate.bytes") == 0 {
		t.Error("no bytes crossed the wire")
	}
	if len(res.ReaderStats) != 2 {
		t.Errorf("ReaderStats has %d readers, want 2", len(res.ReaderStats))
	}
}

// TestGateResumeAcrossReconnect drives the resume protocol by hand: a
// reader pushes part of its capture, its client dies, and a second
// client with the same (name, nonce) picks the session up at the acked
// offset and completes it. Frames must match an uninterrupted local
// decode exactly.
func TestGateResumeAcrossReconnect(t *testing.T) {
	samples, cfg := testCapture(t, 3, 31)
	collect := newCollectSink()
	g, err := NewGateway(Config{Decoder: cfg, Sinks: []Sink{collect}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	ctx := context.Background()
	ccfg := ClientConfig{Addr: g.Addr(), Name: "r0", Nonce: 7, SampleRate: cfg.SampleRate, ChunkSamples: 4096}
	c1, err := DialClient(ctx, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	half := len(samples) / 2
	if err := c1.Push(samples[:half]); err != nil {
		t.Fatal(err)
	}
	acked := c1.Acked()
	if acked == 0 {
		t.Fatal("nothing acked before the kill")
	}
	c1.Close() // dies without End; the session stays resumable

	c2, err := DialClient(ctx, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Acked(); got != acked {
		t.Fatalf("resume offset %d, want %d", got, acked)
	}
	if err := c2.Push(samples[acked:]); err != nil {
		t.Fatal(err)
	}
	frames, err := c2.End()
	if err != nil {
		t.Fatal(err)
	}
	want := localFrames(t, samples, cfg, "r0", 7)
	if len(want) == 0 {
		t.Fatal("vacuous: local decode produced no frames")
	}
	if frames != len(want) {
		t.Fatalf("gateway reported %d frames, want %d", frames, len(want))
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if got := collect.take()["r0"]; !reflect.DeepEqual(got, want) {
		t.Errorf("resumed decode diverged from local (%d vs %d frames)", len(got), len(want))
	}
}

// TestGateKillMidStreamFlushes pins the disconnect contract: a reader
// that vanishes mid-capture gets its session flushed after FlushAfter,
// and every frame already committed is published — byte-identical to a
// local decode of exactly the ingested prefix. A late-returning reader
// is told the session is over (ErrFlushed), not silently restarted.
func TestGateKillMidStreamFlushes(t *testing.T) {
	samples, cfg := testCapture(t, 3, 41)
	collect := newCollectSink()
	g, err := NewGateway(Config{Decoder: cfg, Sinks: []Sink{collect}, FlushAfter: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	ctx := context.Background()
	ccfg := ClientConfig{Addr: g.Addr(), Name: "r0", Nonce: 9, SampleRate: cfg.SampleRate, ChunkSamples: 4096}
	c1, err := DialClient(ctx, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Push(samples[:3*len(samples)/4]); err != nil {
		t.Fatal(err)
	}
	acked := c1.Acked() // exactly what the gateway ingested
	c1.Close()

	// The session must be flushed without any reader asking — observable
	// from outside via ReaderStats, which folds only at flush.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, flushed := g.ReaderStats()["r0"]; flushed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("disconnect flush never happened")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Everything committed for the ingested prefix was published,
	// byte-identical to a local decode of exactly those samples.
	want := localFrames(t, samples[:acked], cfg, "r0", 9)
	if got := collect.take()["r0"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("flushed frames diverged from local prefix decode (%d vs %d frames)", len(got), len(want))
	}

	// A late resume learns the session is done; pushing more is refused
	// loudly, never silently dropped.
	c2, err := DialClient(ctx, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Push(samples[acked:]); !errors.Is(err, ErrFlushed) {
		t.Fatalf("push after flush returned %v, want ErrFlushed", err)
	}
}

// TestGateConnectDisconnectStorm: a pile of readers under
// connection-killing transport faults all complete byte-identically,
// and the gateway winds down without leaking goroutines.
func TestGateConnectDisconnectStorm(t *testing.T) {
	before := runtime.NumGoroutine()

	samples, cfg := testCapture(t, 3, 51)
	readers := map[string]LoopbackReader{}
	want := map[string][]*Frame{}
	names := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
	for i, name := range names {
		readers[name] = LoopbackReader{
			Samples:    samples,
			SampleRate: cfg.SampleRate,
			Nonce:      uint64(i + 1),
			Block:      4096,
			Seed:       int64(i + 1),
			Transport: fault.TransportConfig{
				Seed:      int64(900 + i),
				Injectors: []fault.Injector{{Kind: fault.ConnDrop, Severity: 0.7}},
			},
		}
		want[name] = localFrames(t, samples, cfg, name, uint64(i+1))
	}
	if len(want["r0"]) == 0 {
		t.Fatal("vacuous: local decode produced no frames")
	}

	res, err := Loopback(context.Background(), Config{
		Decoder:    cfg,
		FlushAfter: 10 * time.Second, // a storm drop must never be mistaken for abandonment
	}, readers)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !reflect.DeepEqual(res.Frames[name], want[name]) {
			t.Errorf("reader %s diverged from local decode under storm (%d vs %d frames)", name, len(res.Frames[name]), len(want[name]))
		}
	}
	if res.Gateway.Counter("gate.readers") != int64(len(names)) {
		t.Errorf("gate.readers = %d, want %d", res.Gateway.Counter("gate.readers"), len(names))
	}

	// Leak check: everything the gateway and the storm spawned is gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before storm, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGateDoubleClose pins Close idempotency: closing a gateway with a
// live, mid-capture reader severs it, flushes the session best-effort,
// and a second Close (including concurrent ones) is a no-op.
func TestGateDoubleClose(t *testing.T) {
	samples, cfg := testCapture(t, 3, 61)
	collect := newCollectSink()
	g, err := NewGateway(Config{Decoder: cfg, Sinks: []Sink{collect}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c, err := DialClient(ctx, ClientConfig{
		Addr: g.Addr(), Name: "r0", Nonce: 3, SampleRate: cfg.SampleRate,
		ChunkSamples: 4096, MaxAttempts: 2, BackoffMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Push(samples[:len(samples)/2]); err != nil {
		t.Fatal(err)
	}
	acked := c.Acked()

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := g.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// The mid-capture session was flushed on shutdown: committed frames
	// for the ingested prefix were published, not lost.
	want := localFrames(t, samples[:acked], cfg, "r0", 3)
	if got := collect.take()["r0"]; !reflect.DeepEqual(got, want) {
		t.Errorf("shutdown flush published %d frames, local prefix decode has %d", len(got), len(want))
	}

	// The severed client fails loudly once its retries exhaust.
	if err := c.Push(samples[len(samples)/2:]); err == nil {
		if _, err := c.End(); err == nil {
			t.Error("client survived gateway shutdown without an error")
		}
	}
}

// slowSink delays every publish — the deliberately slow consumer of
// the backpressure property test.
type slowSink struct {
	delay time.Duration
	inner *collectSink
}

func (s *slowSink) Publish(f *Frame) error {
	time.Sleep(s.delay)
	return s.inner.Publish(f)
}
func (s *slowSink) Close() error { return s.inner.Close() }

// TestGateBackpressureSlowSink is the backpressure property test.
//
// Part 1 (bound holds): with a deliberately slow sink and a sane
// bound, every reader's RetainedBytes admission signal stays under the
// bound (gate.retained_peak is its high-water mark) and every frame
// arrives complete and in order — slowness never reorders or drops.
//
// Part 2 (gate engages): with SIC enabled a session's retention grows
// with the capture, so a tiny bound must actually throttle ingest
// (gate.backpressure_ns > 0) — and still decode byte-identically:
// flow-controlled, never dropped.
func TestGateBackpressureSlowSink(t *testing.T) {
	samples, cfg := testCapture(t, 3, 71)

	t.Run("bound-holds", func(t *testing.T) {
		bound := int64(64 << 20)
		readers := map[string]LoopbackReader{}
		want := map[string][]*Frame{}
		for i, name := range []string{"r0", "r1", "r2"} {
			readers[name] = LoopbackReader{Samples: samples, SampleRate: cfg.SampleRate, Nonce: uint64(i + 1), Block: 4096}
			want[name] = localFrames(t, samples, cfg, name, uint64(i+1))
		}
		if len(want["r0"]) == 0 {
			t.Fatal("vacuous: local decode produced no frames")
		}
		res, err := Loopback(context.Background(), Config{
			Decoder:     cfg,
			MaxRetained: bound,
			Sinks:       []Sink{&slowSink{delay: 3 * time.Millisecond, inner: newCollectSink()}},
		}, readers)
		if err != nil {
			t.Fatal(err)
		}
		for name := range readers {
			got := res.Frames[name]
			if !reflect.DeepEqual(got, want[name]) {
				t.Errorf("reader %s frames reordered or dropped under slow sink (%d vs %d)", name, len(got), len(want[name]))
			}
			for i, f := range got {
				if f.Index != i {
					t.Fatalf("reader %s frame %d carries index %d — reordered", name, i, f.Index)
				}
			}
		}
		if peak := res.Gateway.Gauges["gate.retained_peak"]; peak >= bound {
			t.Errorf("admission signal peaked at %d, bound %d — backpressure bound violated", peak, bound)
		}
	})

	t.Run("gate-engages", func(t *testing.T) {
		sicCfg := cfg
		sicCfg.CancellationRounds = 0 // default rounds: retention grows O(capture)
		want := localFrames(t, samples, sicCfg, "r0", 1)
		res, err := Loopback(context.Background(), Config{
			Decoder:     sicCfg,
			MaxRetained: 256 << 10, // far below the capture's O(capture) retention
			MaxThrottle: 50 * time.Millisecond,
		}, map[string]LoopbackReader{
			"r0": {Samples: samples, SampleRate: sicCfg.SampleRate, Nonce: 1, Block: 8192},
		})
		if err != nil {
			t.Fatal(err)
		}
		if bp := res.Gateway.Counter("gate.backpressure_ns"); bp == 0 {
			t.Error("tiny bound never engaged the admission gate")
		}
		if !reflect.DeepEqual(res.Frames["r0"], want) {
			t.Errorf("throttled decode diverged from local (%d vs %d frames) — flow control must not change bytes", len(res.Frames["r0"]), len(want))
		}
	})
}

// TestGateSnapshotSink pins the TagPack-style sink contract: latest
// frame per tag across readers, atomic debounced snapshots, and
// coalescing inside the debounce window.
func TestGateSnapshotSink(t *testing.T) {
	s := NewSnapshotSink(time.Hour) // debounce long enough to observe staleness
	f1 := &Frame{Reader: "r0", Capture: 1, Index: 0, Bits: []byte{1, 0, 1}, Confidence: 0.5}
	f2 := &Frame{Reader: "r1", Capture: 2, Index: 0, Bits: []byte{1, 0, 1}, Confidence: 0.9}
	f3 := &Frame{Reader: "r0", Capture: 1, Index: 1, Bits: []byte{0, 1, 1}}

	if err := s.Publish(f1); err != nil { // first publish lands immediately (nothing debounced yet)
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if len(snap) != 1 || snap["101"] == nil || snap["101"].Reader != "r0" {
		t.Fatalf("first snapshot = %v, want one tag 101 from r0", snap)
	}
	if err := s.Publish(f2); err != nil { // same tag from another reader: debounced
		t.Fatal(err)
	}
	if err := s.Publish(f3); err != nil { // new tag: same debounce window
		t.Fatal(err)
	}
	if got := s.Snapshot(); len(got) != 1 {
		t.Fatalf("snapshot rebuilt inside debounce window: %d tags", len(got))
	}
	s.Sync()
	snap = s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("after sync: %d tags, want 2", len(snap))
	}
	if snap["101"].Reader != "r1" {
		t.Errorf("tag 101 latest reader = %q, want r1 (latest frame wins across readers)", snap["101"].Reader)
	}
	if snap["011"].Reader != "r0" {
		t.Errorf("tag 011 reader = %q, want r0", snap["011"].Reader)
	}
	if s.Seq() != 3 {
		t.Errorf("seq = %d, want 3", s.Seq())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(f1); err == nil {
		t.Error("publish after close succeeded")
	}
}
