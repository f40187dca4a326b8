// Package edgedetect implements reliable signal-edge extraction from
// the reader's IQ capture (§3.1). Amplitude-only edge detection is
// brittle when many tags chatter in the background, so edges are
// detected on the IQ *differential* ΔS(t) = S(t⁺) − S(t⁻): subtracting
// the received vector after and before a candidate edge cancels the
// contribution of every tag that did not toggle there.
package edgedetect

import (
	"fmt"

	"lf/internal/iq"
)

// Config tunes the detector.
type Config struct {
	// Gap is the number of samples skipped on each side of a candidate
	// edge before averaging starts; it should cover the edge
	// transition itself (the reader's ~3-sample ramp).
	Gap int64
	// Win is the number of samples averaged on each side for the
	// initial detection sweep. Kept small so that neighbouring tags'
	// edges rarely fall inside the window; the refinement pass then
	// widens windows adaptively up to the actual neighbouring edges,
	// which is the paper's "use the points between the previous edge
	// and the current edge" averaging.
	Win int64
	// MaxWin caps the refinement window width.
	MaxWin int64
	// ThresholdFactor scales the noise floor (median differential
	// magnitude) into the peak detection threshold.
	ThresholdFactor float64
	// MinSpacing is the non-maximum-suppression radius in samples;
	// edges closer than this merge into one (collided) edge.
	MinSpacing int64
	// CoalesceDist groups detected peaks closer than this many samples
	// into a single collided edge whose differential is measured with
	// windows outside the whole group. Peaks nearer than ~2·Gap+Win
	// cannot be measured independently anyway — each one's averaging
	// window overlaps the other's transition ramp, biasing both
	// differentials — so treating them as one collision (and letting
	// the IQ lattice machinery separate the contributions) is both
	// cleaner and faithful to the paper's collision model.
	CoalesceDist int64
	// Parallelism bounds the worker pool for the differential sweep and
	// the peak scan (0 = all cores, 1 = serial). The capture is split
	// into chunks whose seams read across chunk boundaries, so the
	// detected edge set is bit-identical at any setting.
	Parallelism int
}

// DefaultConfig returns detector settings matched to the default reader
// (25 Msps, 3-sample edges).
func DefaultConfig() Config {
	return Config{
		Gap:             2,
		Win:             3,
		MaxWin:          32,
		ThresholdFactor: 4.0,
		MinSpacing:      5,
		CoalesceDist:    10,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Gap < 1 || c.Win < 1 || c.MaxWin < c.Win || c.MinSpacing < 1 {
		return fmt.Errorf("edgedetect: invalid config %+v", c)
	}
	if c.ThresholdFactor <= 1 {
		return fmt.Errorf("edgedetect: threshold factor %v must exceed 1", c.ThresholdFactor)
	}
	return nil
}

// Edge is one detected signal edge (possibly a coalesced group of
// transitions too close to measure independently).
type Edge struct {
	// Pos is the sample index of the edge centre (strength-weighted
	// over the group when coalesced).
	Pos int64
	// Diff is the refined IQ differential across the edge. For a
	// single tag toggling, Diff ≈ ±h (the tag's channel coefficient);
	// for k colliding tags it is a ±-combination of their
	// coefficients.
	Diff complex128
	// Strength is |Diff|.
	Strength float64
	// First and Last bound the underlying peak group; Last−First is 0
	// for a lone transition.
	First, Last int64
	// Peaks is the number of underlying detector peaks (≥2 suggests a
	// collision even before IQ analysis).
	Peaks int
}

// Detector detects edges over one capture and provides differential
// measurement at arbitrary positions (used later by the Viterbi stage
// to take soft observations at slots where no edge was detected). It
// is the batch façade over the incremental Stream: the whole capture
// is pushed as one block, so batch and streaming detection share one
// pipeline by construction.
type Detector struct {
	cfg    Config
	stream *Stream
	floor  float64
	edges  []Edge
}

// New builds a detector over a capture and runs detection. The capture
// must be non-empty.
func New(capture *iq.Capture, cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := capture.Validate(); err != nil {
		return nil, err
	}
	s, err := NewStream(StreamConfig{Config: cfg})
	if err != nil {
		return nil, err
	}
	if err := s.Push(capture.Samples); err != nil {
		return nil, err
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg, stream: s, floor: s.NoiseFloor(), edges: s.Edges()}, nil
}

// Edges returns the detected edges in increasing position.
func (d *Detector) Edges() []Edge { return d.edges }

// Release recycles the detector's sample-proportional buffers into the
// shared scratch pool. The detector must not be used for measurement
// (MeasureAt, MeasureAtClean) afterwards; Edges and NoiseFloor stay
// valid. Calling Release is optional.
func (d *Detector) Release() {
	if d.stream != nil {
		d.stream.Release()
		d.stream = nil
	}
}

// NoiseFloor returns the estimated background differential magnitude.
func (d *Detector) NoiseFloor() float64 { return d.floor }

// MeasureAt returns the IQ differential at an arbitrary sample position
// using the default windows — the soft observation for slots where no
// edge was detected.
func (d *Detector) MeasureAt(pos int64) complex128 {
	return d.stream.MeasureAt(pos)
}

// MeasureAtClean is like MeasureAt but with wider windows, for slots
// known to be far from other activity.
func (d *Detector) MeasureAtClean(pos int64) complex128 {
	return d.stream.MeasureAtClean(pos)
}

// NearestEdge returns the index of the edge closest to pos within
// maxDist, or -1. Edges are sorted by position so this is a binary
// search.
func (d *Detector) NearestEdge(pos, maxDist int64) int {
	lo, hi := 0, len(d.edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.edges[mid].Pos < pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	best, bestDist := -1, maxDist+1
	for _, i := range []int{lo - 1, lo} {
		if i < 0 || i >= len(d.edges) {
			continue
		}
		dist := d.edges[i].Pos - pos
		if dist < 0 {
			dist = -dist
		}
		if dist < bestDist {
			best, bestDist = i, dist
		}
	}
	return best
}
