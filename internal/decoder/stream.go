package decoder

import (
	"errors"
	"fmt"
	"time"

	"lf/internal/edgedetect"
	"lf/internal/obs"
	"lf/internal/pool"
	"lf/internal/rng"
	"lf/internal/streams"
	"lf/internal/work"
)

// StreamDecoder runs the full decode pipeline over IQ samples pushed
// in arbitrary blocks, with memory bounded by the detection window
// instead of the capture length. Every stage advances exactly as far
// as its inputs are final — incremental edge detection, stream
// registration once the registration horizon clears, slot walking with
// bounded lookahead, then collision separation and windowed-Viterbi
// sequence decoding as soon as every walker drains — so decoded frames
// surface (via Config.OnFrame and Result) long before end of capture.
//
// The result is bit-identical to pushing the whole capture as one
// block: every incremental decision waits until the input that could
// change it has provably passed (edgedetect.Stream's cut arguments,
// streams.RegistrationHorizon, Walker.Horizon).
//
// Two configurations fall back to capture-proportional memory, by
// design: CalibSamples = 0 defers threshold calibration (and hence all
// detection) to Flush, and CancellationRounds > 0 retains a copy of
// the raw samples because successive interference cancellation must
// subtract reconstructed waveforms from the original capture.
type StreamDecoder struct {
	cfg        Config
	workers    int
	shardW     int // ≥ 2 when sharded decode is on (Config.ShardParallelism)
	sampleRate float64
	det        *edgedetect.Stream
	src        *rng.Source
	regCut     int64

	registered bool
	walkers    []*streams.Walker
	results    []*StreamResult
	commitCut  int64
	pinned     bool // a preamble-sourced stream may be re-walked by trySplit
	committed  bool
	emitted    int

	// Per-stream quarantine: quarantined[i] holds the panic message of
	// walker i's failed stage ("" = healthy). A quarantined stream is
	// removed from Result.Streams and recorded in Result.Dropped; the
	// rest of the epoch decodes normally.
	quarantined []string
	drops       []Dropped // stream-level degradation events, commit order

	retain    []complex128 // raw capture, kept only for SIC
	retainExt bool         // retain aliases caller-owned samples (batch path)

	// Observability. m is never nil (the shared Nop pipeline when
	// cfg.Metrics is nil); meter is nil when metrics are disabled so
	// the pool helpers delegate straight through; timed gates the
	// clock reads (wall time is measurement only, never a decode
	// input).
	m           *obs.Pipeline
	meter       *work.Meter
	tracer      obs.Tracer
	timed       bool
	calibTraced bool

	res  *Result
	err  error
	done bool
}

// NewStreamDecoder builds a streaming decoder. sampleRate describes
// the pushed samples and must match cfg.Streams.SampleRate's capture
// (it is only consulted by the cancellation stage).
func NewStreamDecoder(sampleRate float64, cfg Config) (*StreamDecoder, error) {
	if cfg.PayloadBits == nil {
		return nil, errAt(StageInput, -1, fmt.Errorf("decoder: PayloadBits is required"))
	}
	workers := work.Resolve(cfg.Parallelism)
	ecfg := cfg.Edge
	if ecfg.Parallelism == 0 {
		ecfg.Parallelism = workers
	}
	m := cfg.metrics()
	var meter *work.Meter
	if m.Registry != nil {
		meter = &work.Meter{Batches: m.Work.Batches, Tasks: m.Work.Tasks, Occupancy: m.Work.Occupancy}
	}
	shardW := 0
	if cfg.ShardParallelism >= 2 {
		shardW = cfg.ShardParallelism
	}
	det, err := edgedetect.NewStream(edgedetect.StreamConfig{
		Config: ecfg, CalibSamples: cfg.CalibSamples,
		Metrics: m.Edge, Meter: meter,
		ShardWorkers: shardW, Shards: m.Shard,
		Calib: cfg.sicCalib, Seed: cfg.sicSeed,
	})
	if err != nil {
		return nil, err
	}
	sd := &StreamDecoder{
		cfg:        cfg,
		workers:    workers,
		shardW:     shardW,
		sampleRate: sampleRate,
		det:        det,
		src:        rng.New(cfg.Seed),
		regCut:     streams.RegistrationHorizon(cfg.Streams, cfg.PayloadBits),
		m:          m,
		meter:      meter,
		tracer:     cfg.Tracer,
		timed:      m.Registry != nil,
		res:        &Result{},
	}
	return sd, nil
}

// Stats snapshots the decoder's pipeline metrics so far (empty when
// Config.Metrics is nil).
func (sd *StreamDecoder) Stats() *obs.Snapshot { return sd.m.Snapshot() }

// now reads the clock only when stage timing is enabled, so the
// uninstrumented hot path never syscalls.
func (sd *StreamDecoder) now() time.Time {
	if !sd.timed {
		return time.Time{}
	}
	return time.Now()
}

// observe records elapsed wall time against t when timing is enabled.
func (sd *StreamDecoder) observe(t *obs.Timing, t0 time.Time) {
	if sd.timed {
		t.Observe(time.Since(t0))
	}
}

// Push feeds one block of IQ samples and advances every pipeline stage
// as far as the new samples allow. Edge detection and the pump
// (registration, walking, commit) are timed separately as
// stage.detect_ns and stage.walk_ns; stage.push_ns covers the whole
// call.
func (sd *StreamDecoder) Push(block []complex128) error {
	if sd.err != nil {
		return sd.err
	}
	if sd.done {
		return errAt(StageInput, -1, errors.New("decoder: push after flush"))
	}
	t0 := sd.now()
	if sd.cfg.CancellationRounds > 0 && !sd.retainExt {
		if sd.retain == nil {
			sd.retain = pool.Complex(0)
		}
		sd.retain = append(sd.retain, block...)
	}
	td := sd.now()
	if err := sd.det.Push(block); err != nil {
		sd.err = errAt(StageEdgeDetect, sd.det.Front(), err)
		return sd.err
	}
	sd.observe(sd.m.Stage.Detect, td)
	tw := sd.now()
	sd.pump()
	sd.observe(sd.m.Stage.Walk, tw)
	sd.observe(sd.m.Stage.Push, t0)
	return sd.err
}

// PushOwned is Push with ownership transfer: the decoder takes the
// block (which must come from pool.Complex/pool.ComplexUninit or be
// otherwise relinquished) and recycles it once consumed, so a reader
// front end can hand off pooled buffers with zero copies. The caller
// must not touch block afterwards.
func (sd *StreamDecoder) PushOwned(block []complex128) error {
	err := sd.Push(block)
	pool.PutComplex(block)
	return err
}

// Flush marks end of capture, drains every stage (including the
// cancellation rounds, which need the whole capture), and returns the
// final result — identical to what batch Decode returns.
func (sd *StreamDecoder) Flush() (*Result, error) {
	if sd.err != nil {
		return nil, sd.err
	}
	if sd.done {
		return sd.res, nil
	}
	t0 := sd.now()
	if err := sd.det.Close(); err != nil {
		sd.err = errAt(StageInput, sd.det.Front(), err)
		return nil, sd.err
	}
	sd.pump()
	if sd.err != nil {
		return nil, sd.err
	}
	if sd.cfg.CancellationRounds > 0 {
		tc := sd.now()
		// A panic inside cancellation quarantines the whole SIC stage:
		// the already-committed first-pass frames are kept and the
		// failure is recorded as a capture-level drop.
		func() {
			defer func() {
				if r := recover(); r != nil {
					sd.drops = append(sd.drops, Dropped{Stream: -1, Reason: DropPanic, Lo: -1, Hi: -1,
						Detail: fmt.Sprintf("%s: %v", StageCancel, r)})
				}
			}()
			sd.runCancellation()
		}()
		sd.observe(sd.m.Stage.Cancel, tc)
	}
	sd.emitFrames()
	sd.res.Streams = sd.results
	sd.res.EdgeCount = len(sd.det.Edges())
	sd.res.NoiseFloor = sd.det.NoiseFloor()
	for _, sp := range sd.det.Dropped() {
		sd.res.Dropped = append(sd.res.Dropped, Dropped{Stream: -1, Reason: DropNonFinite,
			Lo: sp.Lo, Hi: sp.Hi, Detail: "non-finite samples replaced; detection windows blanked"})
	}
	sd.res.Dropped = append(sd.res.Dropped, sd.drops...)
	sd.recordFinal()
	if sd.tracer != nil {
		sd.tracer.Trace(obs.SpanEvent{Stage: "flush", Stream: -1,
			Pos: sd.det.Front(), N: int64(len(sd.res.Streams))})
	}
	sd.det.Release()
	if !sd.retainExt {
		pool.PutComplex(sd.retain)
		sd.retain = nil
	}
	sd.done = true
	sd.observe(sd.m.Stage.Flush, t0)
	return sd.res, nil
}

// recordFinal folds the committed result into the flush-time metrics:
// frame disposition, slot-kind partition, edge claims, and drop
// accounting. Runs serially on the flushing goroutine in result order,
// so every total is deterministic by construction.
func (sd *StreamDecoder) recordFinal() {
	m := sd.m
	if m.Registry == nil {
		return
	}
	for _, sr := range sd.res.Streams {
		m.Frames.Committed.Inc()
		if sr.CRCOK {
			m.Frames.CRCOK.Inc()
		} else {
			m.Frames.CRCFail.Inc()
		}
		if sr.Recovered {
			m.Frames.Recovered.Inc()
		}
		m.Frames.Confidence.Observe(sr.Confidence)
		if sd.cfg.Stages.ErrorCorrection {
			m.Viterbi.PathMargin.Observe(sr.PathMargin)
		}
		m.Walk.Slots.Add(int64(len(sr.Slots)))
		for _, slot := range sr.Slots {
			switch slot.Kind {
			case streams.MatchClean:
				m.Walk.Clean.Inc()
			case streams.MatchForeign:
				m.Walk.Foreign.Inc()
			default:
				m.Walk.Empty.Inc()
			}
		}
	}
	// Edge disposition: an edge is claimed when a committed first-pass
	// stream slot references it. SIC-recovered streams index a residual
	// capture's own edge list and are excluded.
	claimed := make(map[int]bool)
	for _, sr := range sd.res.Streams {
		if sr.Recovered {
			continue
		}
		for _, slot := range sr.Slots {
			if slot.EdgeIdx >= 0 {
				claimed[slot.EdgeIdx] = true
			}
		}
	}
	nc := int64(len(claimed))
	if total := int64(sd.res.EdgeCount); nc > total {
		nc = total
	}
	m.Edge.Claimed.Add(nc)
	m.Edge.Unclaimed.Add(int64(sd.res.EdgeCount) - nc)
	for _, d := range sd.res.Dropped {
		m.Drops.Events.Inc()
		switch d.Reason {
		case DropNonFinite:
			m.Drops.NonFinite.Inc()
		case DropPanic:
			m.Drops.Panics.Inc()
		case DropTruncated:
			m.Drops.Truncated.Inc()
		}
		if d.Lo >= 0 && d.Hi > d.Lo {
			m.Drops.SpanSamples.Add(d.Hi - d.Lo)
		}
	}
}

// RetainedBytes reports the sample-proportional memory currently held:
// the detector's sliding windows plus any raw-capture retention forced
// by cancellation. Pool slack beyond the live windows is excluded (see
// edgedetect.Stream.RetainedBytes).
func (sd *StreamDecoder) RetainedBytes() int64 {
	n := sd.det.RetainedBytes()
	if !sd.retainExt {
		n += int64(len(sd.retain)) * 16
	}
	return n
}

// pump advances registration, walking, and frame commit as far as the
// detector's finalized-edge front allows, then slides the detector's
// sample window past everything no stage can still read.
func (sd *StreamDecoder) pump() {
	if sd.tracer != nil && !sd.calibTraced && sd.det.Calibrated() {
		sd.calibTraced = true
		// Pos is the configured calibration prefix — or the full
		// capture length when calibration deferred to Close — so the
		// event content is block-size independent.
		pos := sd.cfg.CalibSamples
		if pos <= 0 || sd.det.Closed() {
			pos = sd.det.Front()
		}
		sd.tracer.Trace(obs.SpanEvent{Stage: "calibrate", Stream: -1, Pos: pos})
	}
	if !sd.registered {
		if sd.det.EdgeComplete() < sd.regCut && !sd.det.Closed() {
			return
		}
		sd.register()
		if sd.err != nil {
			return
		}
	}
	if !sd.committed {
		sd.stepWalkers()
		sd.maybeCommit()
	}
	sd.updateLowWater()
}

// register runs stream registration over the finalized edge prefix.
// Registration reads nothing past streams.RegistrationHorizon, so the
// prefix decides identically to the eventual full edge list.
func (sd *StreamDecoder) register() {
	sts, err := streams.Register(sd.det.Edges(), sd.cfg.Streams, sd.cfg.PayloadBits)
	if err != nil {
		sd.err = errAt(StageRegister, -1, err)
		return
	}
	sd.registered = true
	if sd.tracer != nil {
		sd.tracer.Trace(obs.SpanEvent{Stage: "register", Stream: -1, Pos: sd.regCut, N: int64(len(sts))})
	}
	sd.walkers = make([]*streams.Walker, len(sts))
	sd.results = make([]*StreamResult, len(sts))
	sd.quarantined = make([]string, len(sts))
	for i, st := range sts {
		n := streams.FrameSlots(sd.cfg.Streams, sd.cfg.PayloadBits(st.Rate)) + alignSlack
		sd.walkers[i] = streams.NewWalker(st, sd.cfg.Streams, n)
		sd.results[i] = &StreamResult{Stream: st}
		if sd.cfg.Stages.IQSeparation && st.Source == streams.SourcePreamble {
			// trySplit may re-walk this stream's whole frame from its
			// anchor, so the sample window cannot slide at all.
			sd.pinned = true
		}
		// The commit stage (splitting, collision resolution) may re-walk
		// a frame from its anchor; hold it until every edge a re-walk
		// could pick is final.
		end := streams.WalkHorizon(sd.cfg.Streams, st.Offset, st.Period, n)
		if end > sd.commitCut {
			sd.commitCut = end
		}
	}
}

// stepWalkers advances every live walker while its next step's inputs
// — the edges inside its pick window and the samples under its soft
// measurement — are final. In sharded decode the walkers fan out
// across the worker pool: each Step mutates only walker-local state
// and performs pure reads on the detector (finalized edges,
// prefix-sum measurements), so per-walker goroutines are race-free,
// and per-index quarantine capture keeps the panic taxonomy identical
// to the serial loop.
func (sd *StreamDecoder) stepWalkers() {
	closed := sd.det.Closed()
	edgeDone := sd.det.EdgeComplete()
	front := sd.det.Front()
	measureSpan := sd.cfg.Edge.Gap + sd.cfg.Edge.Win + 1
	step := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				sd.quarantined[i] = fmt.Sprintf("%s: %v", StageWalk, r)
			}
		}()
		w := sd.walkers[i]
		for !w.Done() {
			if !closed && (edgeDone < w.Horizon() || front < w.MeasurePos()+measureSpan) {
				break
			}
			w.Step(sd.det)
		}
	}
	if sd.shardW >= 2 && len(sd.walkers) > 1 {
		sd.meter.Do(sd.shardW, len(sd.walkers), func(i int) {
			if sd.quarantined[i] == "" {
				step(i)
			}
		})
		return
	}
	for i := range sd.walkers {
		if sd.quarantined[i] != "" {
			continue
		}
		step(i)
	}
}

// maybeCommit runs the frame-commit stage — merged-pair splitting,
// collision resolution, sequence decoding — once every walker has
// drained and the edges a re-walk could touch are final, then emits
// the committed frames.
func (sd *StreamDecoder) maybeCommit() {
	for i, w := range sd.walkers {
		if sd.quarantined[i] == "" && !w.Done() {
			return
		}
	}
	if !sd.det.Closed() && (sd.det.EdgeComplete() < sd.commitCut || sd.det.Front() < sd.commitCut) {
		return
	}
	t0 := sd.now()
	// Quarantined streams drop out here; the healthy rest of the epoch
	// commits normally.
	results := make([]*StreamResult, 0, len(sd.results))
	for i, w := range sd.walkers {
		if sd.quarantined[i] != "" {
			sd.dropStream(sd.results[i], sd.quarantined[i])
			continue
		}
		sd.results[i].Slots = w.Obs()
		results = append(results, sd.results[i])
	}
	if sd.cfg.Stages.IQSeparation {
		// Split fully merged registrations before cross-stream collision
		// resolution; sources are derived in index order before the
		// fan-out so worker scheduling cannot perturb the k-means
		// restarts (see Decode).
		snapshot := append([]*StreamResult(nil), results...)
		splitSrcs := make([]*rng.Source, len(snapshot))
		for i := range splitSrcs {
			splitSrcs[i] = sd.src.Split(fmt.Sprintf("split/%d", i))
		}
		others := make([]*StreamResult, len(snapshot))
		errs := sd.meter.DoRecover(sd.workers, len(snapshot), func(i int) {
			if other, ok := trySplit(snapshot[i], sd.det, sd.cfg, splitSrcs[i]); ok {
				others[i] = other
			}
		})
		if errs != nil {
			// trySplit mutates its stream in place, so a panicked split
			// leaves the stream half-rewritten: quarantine it too.
			kept := results[:0]
			for i, sr := range snapshot {
				if errs[i] != nil {
					sd.dropStream(sr, fmt.Sprintf("%s: split: %v", StageCommit, errs[i]))
					others[i] = nil
					continue
				}
				kept = append(kept, sr)
			}
			results = kept
		}
		for _, other := range others {
			if other != nil {
				results = append(results, other)
				sd.res.MergedSplits++
				sd.m.Frames.MergedSplits.Inc()
			}
		}
		// Collision resolution is cross-stream; a panic there degrades
		// to unresolved collisions (raw slot observations) rather than
		// losing any stream.
		func() {
			defer func() {
				if r := recover(); r != nil {
					sd.drops = append(sd.drops, Dropped{Stream: -1, Reason: DropPanic, Lo: -1, Hi: -1,
						Detail: fmt.Sprintf("%s: collision resolution: %v", StageCommit, r)})
				}
			}()
			resolveCollisions(results, sd.cfg, sd.src.Split("collisions"), sd.res)
		}()
	}
	sigma2 := obsNoiseVariance(sd.det.NoiseFloor())
	errs := sd.meter.DoRecover(sd.workers, len(results), func(i int) {
		if hook := sd.cfg.testStreamHook; hook != nil {
			hook(results[i])
		}
		decodeStates(results[i], sd.cfg, sigma2)
	})
	if errs != nil {
		kept := results[:0]
		for i, sr := range results {
			if errs[i] != nil {
				sd.dropStream(sr, fmt.Sprintf("%s: decode: %v", StageCommit, errs[i]))
				continue
			}
			kept = append(kept, sr)
		}
		results = kept
	}
	sd.markTruncated(results)
	sd.results = results
	sd.committed = true
	// Nothing past the commit stage measures the detector's sample
	// window (cancellation works on its own raw-capture copy), so a
	// trySplit pin no longer blocks the window from sliding.
	sd.pinned = false
	sd.observe(sd.m.Stage.Commit, t0)
	if sd.tracer != nil {
		sd.tracer.Trace(obs.SpanEvent{Stage: "commit", Stream: -1, Pos: sd.commitCut, N: int64(len(sd.results))})
	}
	sd.emitFrames()
}

// dropStream records the quarantine of one stream in Result.Dropped.
func (sd *StreamDecoder) dropStream(sr *StreamResult, detail string) {
	id := -1
	if sr.Stream != nil {
		id = sr.Stream.ID
	}
	sd.m.Frames.Quarantined.Inc()
	sd.drops = append(sd.drops, Dropped{Stream: id, Reason: DropPanic, Lo: -1, Hi: -1, Detail: detail})
}

// markTruncated records, for every committed stream whose nominal
// frame runs past the end of a closed capture, a best-effort
// truncation span. Only fires when the commit happens at Flush — a
// frame that committed mid-capture was complete by construction.
func (sd *StreamDecoder) markTruncated(results []*StreamResult) {
	if !sd.det.Closed() {
		return
	}
	total := sd.det.Front()
	for _, sr := range results {
		nominal := streams.FrameSlots(sd.cfg.Streams, sd.cfg.PayloadBits(sr.Stream.Rate))
		if nominal > len(sr.Slots) {
			nominal = len(sr.Slots)
		}
		last := int64(-1)
		for k := 0; k < nominal; k++ {
			if sr.Slots[k].Pos >= total && sr.Slots[k].Pos > last {
				last = sr.Slots[k].Pos
			}
		}
		if last >= 0 {
			sd.drops = append(sd.drops, Dropped{Stream: sr.Stream.ID, Reason: DropTruncated,
				Lo: total, Hi: last + 1,
				Detail: fmt.Sprintf("frame runs %d samples past capture end", last+1-total)})
		}
	}
}

// emitFrames delivers newly committed frames through OnFrame (and the
// tracer), in result order.
func (sd *StreamDecoder) emitFrames() {
	if sd.cfg.OnFrame == nil && sd.tracer == nil {
		sd.emitted = len(sd.results)
		return
	}
	for ; sd.emitted < len(sd.results); sd.emitted++ {
		sr := sd.results[sd.emitted]
		if sd.tracer != nil {
			sd.tracer.Trace(obs.SpanEvent{Stage: "frame", Stream: sr.Stream.ID,
				Pos: int64(sr.Stream.Offset), N: int64(len(sr.Bits))})
		}
		if sd.cfg.OnFrame != nil {
			sd.cfg.OnFrame(sr)
		}
	}
}

// updateLowWater slides the detector's sample window past everything
// the remaining stages can still measure.
func (sd *StreamDecoder) updateLowWater() {
	if !sd.registered || sd.pinned || sd.det.Closed() {
		return
	}
	low := sd.det.Front()
	if !sd.committed {
		for i, w := range sd.walkers {
			if w.Done() || sd.quarantined[i] != "" {
				continue
			}
			if lw := w.LowWater(); lw < low {
				low = lw
			}
		}
	}
	if low > 0 {
		sd.det.SetLowWater(low)
	}
}
