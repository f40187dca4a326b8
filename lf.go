// Package lf is the public API of LF-Backscatter, a reproduction of
// "Laissez-Faire: Fully Asymmetric Backscatter Communication"
// (Hu, Zhang, Ganesan — SIGCOMM 2015).
//
// LF-Backscatter is a fully asymmetric backscatter protocol: tags
// blindly transmit the moment they see the reader's carrier — no MAC,
// no receive path, no buffers — and the reader separates the
// concurrent streams by combining time-domain edge interleaving,
// IQ-plane collision clustering, and Viterbi sequence correction.
//
// The package exposes two central types:
//
//   - Network simulates a deployment: tags (with comparator start
//     jitter and clock drift), the RF channel (radar-equation link
//     budget, environment reflection, AWGN), and the reader front end
//     (epoch control, 25 Msps IQ capture synthesis).
//   - Decoder runs the full reader pipeline over a captured epoch and
//     returns per-stream decoded bits.
//
// A minimal session:
//
//	net, _ := lf.NewNetwork(lf.NetworkConfig{NumTags: 4, Seed: 1})
//	ep, _ := net.RunEpoch()
//	dec, _ := lf.NewDecoder(net.DecoderConfig())
//	res, _ := dec.Decode(ep)
//	score := lf.ScoreEpoch(ep, res)
//	fmt.Printf("goodput: %.0f bps\n", score.AggregateBps)
package lf

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"lf/internal/channel"
	"lf/internal/decoder"
	"lf/internal/iq"
	"lf/internal/obs"
	"lf/internal/reader"
	"lf/internal/rng"
	"lf/internal/streams"
	"lf/internal/tag"
)

// DefaultBaseRate is the network base rate in bits/s; every tag rate
// must be a multiple of it (the paper uses 100 bps).
const DefaultBaseRate = 100

// NetworkConfig describes a simulated deployment.
type NetworkConfig struct {
	// NumTags is the number of tags (ignored if BitRates is set
	// per-tag).
	NumTags int
	// BitRates holds each tag's rate in bits/s. If it has exactly one
	// element, all NumTags tags share that rate. Defaults to 100 kbps
	// for every tag.
	BitRates []float64
	// BaseRate is the network base rate; all BitRates must be
	// multiples of it. Defaults to DefaultBaseRate.
	BaseRate float64
	// PayloadBits holds each tag's payload size per epoch. If it has
	// one element it applies to all tags; if nil, payload sizes are
	// derived from PayloadSeconds of airtime at each tag's rate.
	PayloadBits []int
	// PayloadSeconds is the per-epoch payload airtime used when
	// PayloadBits is nil (default 10 ms).
	PayloadSeconds float64
	// Distance is the nominal tag-reader distance in metres
	// (default 2, the paper's deployment).
	Distance float64
	// Channel overrides the channel parameters (zero value → defaults).
	Channel channel.Params
	// SampleRate overrides the reader ADC rate (default 25 Msps).
	SampleRate float64
	// EdgeSamples overrides the edge transition width (default 3).
	EdgeSamples int
	// ClockPPM is the tag crystal drift bound (default 150 ppm).
	ClockPPM float64
	// Seed makes the simulation reproducible.
	Seed int64
}

func (c *NetworkConfig) fillDefaults() error {
	if c.BaseRate == 0 {
		c.BaseRate = DefaultBaseRate
	}
	if len(c.BitRates) == 0 {
		c.BitRates = []float64{100e3}
	}
	if c.NumTags == 0 {
		c.NumTags = len(c.BitRates)
	}
	if len(c.BitRates) == 1 && c.NumTags > 1 {
		r := c.BitRates[0]
		c.BitRates = make([]float64, c.NumTags)
		for i := range c.BitRates {
			c.BitRates[i] = r
		}
	}
	if len(c.BitRates) != c.NumTags {
		return fmt.Errorf("lf: %d bit rates for %d tags", len(c.BitRates), c.NumTags)
	}
	if c.PayloadSeconds == 0 {
		c.PayloadSeconds = 10e-3
	}
	if len(c.PayloadBits) == 1 && c.NumTags > 1 {
		p := c.PayloadBits[0]
		c.PayloadBits = make([]int, c.NumTags)
		for i := range c.PayloadBits {
			c.PayloadBits[i] = p
		}
	}
	if c.PayloadBits == nil {
		c.PayloadBits = make([]int, c.NumTags)
		for i, r := range c.BitRates {
			c.PayloadBits[i] = int(math.Round(r * c.PayloadSeconds))
			if c.PayloadBits[i] < 1 {
				c.PayloadBits[i] = 1
			}
		}
	}
	if len(c.PayloadBits) != c.NumTags {
		return fmt.Errorf("lf: %d payload sizes for %d tags", len(c.PayloadBits), c.NumTags)
	}
	if c.Distance == 0 {
		c.Distance = 2
	}
	if c.Channel == (channel.Params{}) {
		c.Channel = channel.DefaultParams()
	}
	if c.SampleRate == 0 {
		c.SampleRate = 25e6
	}
	if c.EdgeSamples == 0 {
		c.EdgeSamples = 3
	}
	if c.ClockPPM == 0 {
		c.ClockPPM = 150
	}
	return nil
}

// Network is an instantiated simulated deployment.
type Network struct {
	cfg   NetworkConfig
	tags  []tag.Config
	ch    *channel.Model
	src   *rng.Source
	epoch reader.EpochConfig
}

// Epoch is one captured carrier epoch plus ground truth.
type Epoch = reader.Epoch

// NewNetwork builds a network from the config; unset fields take the
// paper's defaults.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	geoms := channel.PlaceRing(cfg.NumTags, cfg.Distance, src.Split("placement"))
	ch := channel.NewModel(cfg.Channel, geoms, src.Split("noise"))
	n := &Network{cfg: cfg, ch: ch, src: src}
	comp := tag.DefaultComparator()
	for i := 0; i < cfg.NumTags; i++ {
		tc := tag.Config{
			ID:         i,
			BitRate:    cfg.BitRates[i],
			ClockPPM:   cfg.ClockPPM,
			Comparator: comp,
		}
		if err := tc.Validate(cfg.BaseRate); err != nil {
			return nil, err
		}
		n.tags = append(n.tags, tc)
	}
	n.epoch = reader.EpochConfig{
		SampleRate:  cfg.SampleRate,
		EdgeSamples: cfg.EdgeSamples,
		Duration:    n.autoDuration(),
	}
	return n, nil
}

// autoDuration sizes the epoch to cover the slowest frame plus the
// comparator jitter window and a safety margin.
func (n *Network) autoDuration() float64 {
	longest := 0.0
	for i, tc := range n.tags {
		// Frame plus the decoder's alignment slack of a few slots.
		frame := float64(tag.FrameOverhead+n.cfg.PayloadBits[i]+3) / tc.BitRate
		if frame > longest {
			longest = frame
		}
	}
	const jitterWindow = 1.2e-3
	return jitterWindow + longest*1.02 + 20e-6
}

// Channel exposes the channel model (coefficients, noise parameters).
func (n *Network) Channel() *channel.Model { return n.ch }

// Tags exposes the tag configurations.
func (n *Network) Tags() []tag.Config { return n.tags }

// EpochConfig exposes the reader epoch settings.
func (n *Network) EpochConfig() reader.EpochConfig { return n.epoch }

// SetPayload overrides tag i's payload for subsequent epochs (e.g. an
// EPC identification frame). The payload must be 0/1-valued.
func (n *Network) SetPayload(i int, bits []byte) error {
	if i < 0 || i >= len(n.tags) {
		return fmt.Errorf("lf: tag index %d out of range", i)
	}
	cp := make([]byte, len(bits))
	copy(cp, bits)
	n.tags[i].Payload = cp
	n.cfg.PayloadBits[i] = len(bits)
	n.epoch.Duration = n.autoDuration()
	return nil
}

// SetBitRate changes tag i's rate for subsequent epochs (the reader's
// §3.6 broadcast can command the network to slow down when it sees too
// many collisions). The rate must be a multiple of the base rate.
func (n *Network) SetBitRate(i int, rate float64) error {
	if i < 0 || i >= len(n.tags) {
		return fmt.Errorf("lf: tag index %d out of range", i)
	}
	tc := n.tags[i]
	tc.BitRate = rate
	if err := tc.Validate(n.cfg.BaseRate); err != nil {
		return err
	}
	n.tags[i] = tc
	n.cfg.BitRates[i] = rate
	n.epoch.Duration = n.autoDuration()
	return nil
}

// SetCoefficients replaces the channel coefficients for subsequent
// epochs — the hook experiments use to evolve the environment between
// epochs (people moving, tags rotating) the way Fig. 1 measures.
func (n *Network) SetCoefficients(coeffs []complex128) error {
	if len(coeffs) != len(n.ch.Coeffs) {
		return fmt.Errorf("lf: %d coefficients for %d tags", len(coeffs), len(n.ch.Coeffs))
	}
	copy(n.ch.Coeffs, coeffs)
	return nil
}

// RunEpoch draws a fresh random payload for any tag without an explicit
// one, power-cycles every tag (new comparator offsets, new drift), and
// synthesizes the reader capture.
func (n *Network) RunEpoch() (*Epoch, error) {
	emissions := make([]*tag.Emission, len(n.tags))
	for i := range n.tags {
		tc := n.tags[i]
		if tc.Payload == nil {
			tc.Payload = n.src.Bits(n.cfg.PayloadBits[i])
		}
		emissions[i] = tag.Emit(tc, n.src)
	}
	return reader.Synthesize(n.ch, emissions, n.epoch)
}

// Rates returns the distinct bit rates in the network, ascending.
func (n *Network) Rates() []float64 {
	seen := map[float64]bool{}
	var rates []float64
	for _, tc := range n.tags {
		if !seen[tc.BitRate] {
			seen[tc.BitRate] = true
			rates = append(rates, tc.BitRate)
		}
	}
	sort.Float64s(rates)
	return rates
}

// DecoderConfig derives a decoder configuration matched to this
// network: candidate rates, payload sizing, sample rate.
func (n *Network) DecoderConfig() DecoderConfig {
	payloadByRate := map[float64]int{}
	for i, tc := range n.tags {
		if p := n.cfg.PayloadBits[i]; p > payloadByRate[tc.BitRate] {
			payloadByRate[tc.BitRate] = p
		}
	}
	return DecoderConfig{
		SampleRate: n.cfg.SampleRate,
		Rates:      n.Rates(),
		PayloadBits: func(rate float64) int {
			if p, ok := payloadByRate[rate]; ok {
				return p
			}
			return int(math.Round(rate * n.cfg.PayloadSeconds))
		},
		Stages:     decoder.AllStages(),
		Separation: decoder.SeparationHybrid,
		Seed:       n.cfg.Seed + 1,
	}
}

// DecoderConfig configures a Decoder. Zero-valued fields take
// defaults.
type DecoderConfig struct {
	// SampleRate of the captures to decode.
	SampleRate float64
	// Rates are the valid tag bit rates.
	Rates []float64
	// PayloadBits maps a stream's rate to its payload size.
	PayloadBits func(rate float64) int
	// Stages toggles pipeline stages (Fig. 9 ablation).
	Stages decoder.Stages
	// Separation selects the collision separation strategy.
	Separation decoder.SeparationMode
	// Registration selects the stream registration strategy.
	Registration RegistrationMode
	// Seed drives decoder-internal randomness (k-means restarts).
	Seed int64
	// Parallelism bounds the decoder's worker pool (0 = all cores,
	// 1 = serial). Decodes are bit-identical at any setting; the knob
	// only trades wall-clock for cores.
	Parallelism int
	// ShardParallelism ≥ 2 runs the decode data-parallel across
	// cores: the differential sweep — the pipeline's dominant
	// per-sample stage — is split into seam-safe overlapping shards
	// computed concurrently on a pull-based worker pool, with
	// overlap derived from the pipeline's provably-final cut
	// distances and deterministic in-order merge (DESIGN.md §15).
	// Decodes are byte-identical to ShardParallelism = 1 at any
	// shard count, and batch Decode honours it too. 0 or 1 disables
	// sharding.
	ShardParallelism int
	// StartWindowSeconds overrides how late after carrier-on a frame
	// may begin (streams.Config.MaxStart). The default covers only the
	// comparator jitter window — right for epochs where every tag fires
	// at carrier-on, and tight enough that payload 1-runs cannot
	// masquerade as preambles. A reader running a slotted response
	// schedule (tags answering in assigned slots across a long
	// listening window) must widen it to the whole schedule. 0 keeps
	// the default.
	StartWindowSeconds float64
	// CalibSamples bounds the edge detector's noise calibration to the
	// capture's first CalibSamples positions. Setting it is what lets a
	// streaming decode start emitting frames — and bound its memory —
	// before end of capture; 0 calibrates over the whole capture at
	// flush time (the batch semantics). Batch Decode honours the same
	// knob, so batch and streaming decodes stay bit-identical.
	CalibSamples int64
	// ViterbiWindow bounds the sequence decoder's survivor-path state
	// (sliding trellis window with truncation). 0 selects the default
	// window; see the viterbi package for the exactness contract.
	ViterbiWindow int
	// ForceFullResidual disables incremental SIC, forcing every
	// cancellation round to rebuild the residual capture and re-decode
	// it from scratch. Decodes are bit-identical either way (DESIGN.md
	// §17); the knob exists for A/B benchmarking and equivalence tests
	// (sic_equivalence_test.go).
	ForceFullResidual bool
	// CancellationRounds overrides successive interference cancellation:
	// 0 keeps the default (3 rounds), negative disables. SIC needs the
	// whole raw capture, so streaming decodes retain O(capture) memory
	// unless it is disabled.
	CancellationRounds int
	// OnFrame, when non-nil, is called once per decoded stream as soon
	// as its frame commits — on streaming decodes this is typically long
	// before end of capture. Frames arrive in Result.Streams order, on
	// the goroutine calling Push/Flush/Decode.
	OnFrame func(*StreamResult)
	// NoStats disables pipeline metrics entirely: Stats() returns empty
	// snapshots and every record site collapses to a nil-metric branch.
	// The default (instrumented) decode is bit-identical to the
	// uninstrumented one — metrics observe the pipeline, never steer it.
	NoStats bool
	// Tracer, when non-nil, receives per-stage span events (calibrate,
	// register, commit, frame, sic, flush) on the goroutine calling
	// Push/Flush/Decode, mirroring OnFrame. The event sequence is
	// identical at any Parallelism and push block size.
	Tracer Tracer
}

// Stats is a frozen snapshot of the decode pipeline's metrics. The
// decode-class counters and histograms in it are bit-identical at any
// Parallelism and push blocking (see Identity); timings and
// runtime-class entries are measurement only.
type Stats = obs.Snapshot

// Tracer receives per-stage span events from a decode.
type Tracer = obs.Tracer

// SpanEvent is one traced pipeline event.
type SpanEvent = obs.SpanEvent

// Stage toggles and separation modes re-exported for callers.
type Stages = decoder.Stages

// Separation modes re-exported for callers.
const (
	SeparationHybrid   = decoder.SeparationHybrid
	SeparationAnchored = decoder.SeparationAnchored
	SeparationBlind    = decoder.SeparationBlind
)

// AllStages enables the full pipeline.
func AllStages() Stages { return decoder.AllStages() }

// RegistrationMode selects the stream registration strategy.
type RegistrationMode = streams.RegistrationMode

// Registration modes re-exported for callers.
const (
	RegisterEyeOnly      = streams.RegisterEyeOnly
	RegisterBoth         = streams.RegisterBoth
	RegisterPreambleOnly = streams.RegisterPreambleOnly
)

// Decoder decodes captured epochs.
type Decoder struct {
	cfg     decoder.Config
	noStats bool

	// mu guards agg, the metrics accumulated over every decode this
	// Decoder has completed (streaming flushes included).
	mu  sync.Mutex
	agg *obs.Snapshot
}

// Result is a decoded epoch.
type Result = decoder.Result

// StreamResult is the decode of one registered stream.
type StreamResult = decoder.StreamResult

// DecodeError is the typed error every decode-path failure surfaces
// as, carrying the pipeline stage and (when known) the sample position
// the failure is anchored at. Inspect with errors.As.
type DecodeError = decoder.DecodeError

// DecodeStage names the pipeline stage a DecodeError originated in.
type DecodeStage = decoder.Stage

// Decode stages re-exported for callers.
const (
	StageInput      = decoder.StageInput
	StageEdgeDetect = decoder.StageEdgeDetect
	StageRegister   = decoder.StageRegister
	StageWalk       = decoder.StageWalk
	StageCommit     = decoder.StageCommit
	StageCancel     = decoder.StageCancel
)

// Dropped records one graceful-degradation event in Result.Dropped: a
// sample span or stream the decoder gave up on instead of failing the
// whole epoch.
type Dropped = decoder.Dropped

// DropReason classifies a Dropped entry.
type DropReason = decoder.DropReason

// Drop reasons re-exported for callers.
const (
	DropNonFinite = decoder.DropNonFinite
	DropPanic     = decoder.DropPanic
	DropTruncated = decoder.DropTruncated
)

// NewDecoder builds a decoder.
func NewDecoder(cfg DecoderConfig) (*Decoder, error) {
	if cfg.SampleRate <= 0 {
		return nil, fmt.Errorf("lf: decoder needs a sample rate")
	}
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{100e3}
	}
	if cfg.PayloadBits == nil {
		return nil, fmt.Errorf("lf: decoder needs PayloadBits")
	}
	dc := decoder.DefaultConfig(cfg.SampleRate, cfg.Rates, 0)
	dc.PayloadBits = cfg.PayloadBits
	dc.Stages = cfg.Stages
	dc.Separation = cfg.Separation
	dc.Streams.Registration = cfg.Registration
	if cfg.StartWindowSeconds > 0 {
		dc.Streams.MaxStart = int64(cfg.StartWindowSeconds * cfg.SampleRate)
	}
	dc.Parallelism = cfg.Parallelism
	dc.ShardParallelism = cfg.ShardParallelism
	dc.CalibSamples = cfg.CalibSamples
	dc.ViterbiWindow = cfg.ViterbiWindow
	dc.ForceFullResidual = cfg.ForceFullResidual
	dc.OnFrame = cfg.OnFrame
	dc.Tracer = cfg.Tracer
	if cfg.CancellationRounds != 0 {
		dc.CancellationRounds = cfg.CancellationRounds
		if dc.CancellationRounds < 0 {
			dc.CancellationRounds = 0
		}
	}
	if cfg.Seed != 0 {
		dc.Seed = cfg.Seed
	}
	return &Decoder{cfg: dc, noStats: cfg.NoStats}, nil
}

// decodeConfig returns a per-decode config copy carrying a fresh
// metrics pipeline (nil when NoStats), so concurrent decodes from one
// Decoder never share hot counters.
func (d *Decoder) decodeConfig() (decoder.Config, *obs.Pipeline) {
	cfg := d.cfg
	if d.noStats {
		return cfg, nil
	}
	p := obs.NewPipeline()
	cfg.Metrics = p
	return cfg, p
}

// accumulate folds one completed decode's metrics into the decoder's
// running totals.
func (d *Decoder) accumulate(p *obs.Pipeline) {
	if p == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.agg == nil {
		d.agg = obs.NewSnapshot()
	}
	d.agg.Add(p.Snapshot())
}

// Stats snapshots the metrics accumulated over every decode this
// Decoder has completed: counters and histogram buckets sum across
// decodes, gauges keep their high-water values. Empty when
// DecoderConfig.NoStats is set or nothing has completed yet. The
// decode-class portion (Stats.Identity) is bit-identical at any
// Parallelism and push blocking.
func (d *Decoder) Stats() *Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := obs.NewSnapshot()
	s.Add(d.agg)
	return s
}

// StreamDecoder decodes a capture pushed in arbitrary sample blocks,
// with memory bounded by the decoder's detection window instead of the
// capture length (set DecoderConfig.CalibSamples and disable
// cancellation to get the bound). The result returned by Flush is
// bit-identical to Decode over the same samples at any blocking.
type StreamDecoder struct {
	sd  *decoder.StreamDecoder
	d   *Decoder
	p   *obs.Pipeline
	acc bool
}

// NewStream starts a streaming decode of one capture. Push sample
// blocks as they arrive, then Flush for the final result; decoded
// frames surface through DecoderConfig.OnFrame as they commit.
func (d *Decoder) NewStream() (*StreamDecoder, error) {
	cfg, p := d.decodeConfig()
	sd, err := decoder.NewStreamDecoder(d.cfg.Streams.SampleRate, cfg)
	if err != nil {
		return nil, err
	}
	return &StreamDecoder{sd: sd, d: d, p: p}, nil
}

// Push feeds one block of IQ samples.
func (s *StreamDecoder) Push(block []complex128) error { return s.sd.Push(block) }

// PushOwned is Push with ownership transfer: the decoder recycles the
// block (which must come from a pool or be otherwise relinquished)
// once consumed, so a reader front end — iq.BlockReader.ReadBlock —
// can hand pooled buffers to the decoder with zero copies.
// The caller must not touch block afterwards.
func (s *StreamDecoder) PushOwned(block []complex128) error { return s.sd.PushOwned(block) }

// Flush marks end of capture, drains the pipeline, and returns the
// final result.
func (s *StreamDecoder) Flush() (*Result, error) {
	res, err := s.sd.Flush()
	if err == nil && !s.acc {
		s.acc = true
		s.d.accumulate(s.p)
	}
	return res, err
}

// Stats snapshots this stream's pipeline metrics so far — safe to call
// mid-decode between pushes. Empty when DecoderConfig.NoStats is set.
func (s *StreamDecoder) Stats() *Stats { return s.sd.Stats() }

// RetainedBytes reports the sample-proportional memory the decode
// currently holds — the observable the streaming memory bound is
// stated (and tested) against.
func (s *StreamDecoder) RetainedBytes() int64 { return s.sd.RetainedBytes() }

// Decode runs the pipeline over one epoch's capture.
func (d *Decoder) Decode(ep *Epoch) (*Result, error) {
	return d.DecodeCapture(ep.Capture)
}

// DecodeCapture runs the pipeline over a raw capture (for captures
// that did not come from the simulator).
func (d *Decoder) DecodeCapture(capture *iq.Capture) (*Result, error) {
	cfg, p := d.decodeConfig()
	res, err := decoder.Decode(capture, cfg)
	if err == nil {
		d.accumulate(p)
	}
	return res, err
}

// WriteCapture serializes an epoch's capture to w in the LFIQ binary
// container, for offline replay (see ReadCapture).
func WriteCapture(w io.Writer, ep *Epoch) error {
	_, err := ep.Capture.WriteTo(w)
	return err
}

// ReadCapture deserializes a capture written by WriteCapture (or by a
// recording front end emitting the same container).
func ReadCapture(r io.Reader) (*iq.Capture, error) {
	return iq.ReadCapture(r)
}
