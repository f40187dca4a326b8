package edgedetect

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"lf/internal/tag"
)

// TestShardedRetentionIndependentOfStripeTiming is the deterministic
// reproduction of the sharded memory-bound flake: the runStripe hook
// holds every other stripe back on purpose, so stripes finish late and
// out of order, and the pusher outruns the pool. The retained window
// after each Push must not depend on when stripes finish — the trace
// must equal the one from undelayed stripes push for push — and must
// stay within 1 MiB across the zero-padded tail, where only the
// detector's window is live. The edge list must not change either.
func TestShardedRetentionIndependentOfStripeTiming(t *testing.T) {
	h := complex(8e-4, -3e-4)
	var toggles []tag.Toggle
	state := byte(1)
	for us := 40.0; us < 3000; us += 37.3 {
		toggles = append(toggles, tag.Toggle{Time: us * 1e-6, State: state})
		state = 1 - state
	}
	base := capture(t, h, 2.5e-9, toggles, 3100e-6).Samples
	padded := make([]complex128, len(base)*6)
	copy(padded, base)

	const block = 8192
	trace := func(hold bool) ([]int64, []Edge) {
		s, err := NewStream(StreamConfig{Config: DefaultConfig(), CalibSamples: 32768, ShardWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		if hold {
			var jobs atomic.Int64
			s.runStripe = func(j *stripeJob) {
				if jobs.Add(1)%2 == 1 {
					time.Sleep(time.Millisecond)
				}
				j.run()
			}
		}
		var rb []int64
		for i := 0; i < len(padded); i += block {
			if err := s.Push(padded[i:min(i+block, len(padded))]); err != nil {
				t.Fatal(err)
			}
			// No caller measurement is ever made, so every prefix entry
			// the detector itself no longer needs may go.
			s.SetLowWater(s.Front())
			rb = append(rb, s.RetainedBytes())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return rb, append([]Edge(nil), s.Edges()...)
	}
	want, wantEdges := trace(false)
	got, gotEdges := trace(true)
	if len(wantEdges) == 0 {
		t.Fatal("capture produced no edges")
	}
	if !reflect.DeepEqual(wantEdges, gotEdges) {
		t.Fatal("held-back stripes changed the detected edges")
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("push %d: RetainedBytes %d B with held-back stripes, %d B undelayed", i, got[i], want[i])
		}
	}
	lo, hi := int64(1<<62), int64(0)
	for i, r := range got {
		if (i+1)*block >= 2*len(base) {
			lo, hi = min(lo, r), max(hi, r)
		}
	}
	if hi > lo+1<<20 {
		t.Fatalf("retained window swings from %d B to %d B across the tail", lo, hi)
	}
}
