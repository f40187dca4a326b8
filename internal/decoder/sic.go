package decoder

import (
	"math"
	"sort"

	"lf/internal/dsp"
	"lf/internal/edgedetect"
	"lf/internal/iq"
	"lf/internal/obs"
	"lf/internal/pool"
	"lf/internal/shard"
	"lf/internal/streams"
	"lf/internal/viterbi"
)

// Successive interference cancellation (SIC). A tag that failed to
// register — because its preamble collided, or its phase sat inside a
// dense multi-tag chain — is invisible to the first decode pass, yet
// its signal is still in the capture. Reconstructing every decoded
// stream's waveform from its decoded edge states and subtracting it
// from the raw samples leaves a residual in which the missed tags
// stand nearly alone, so a second pass of the ordinary pipeline picks
// them up. This is an engineering extension beyond the paper (which
// cites SIC/ZigZag as related work); it is ablatable via
// Config.CancellationRounds.
//
// The rounds run incrementally (DESIGN.md §17): one residual buffer
// persists across rounds, each round subtracts only the streams
// decoded since the previous round over their dirty spans, the
// residual's prefix-sum lanes are folded region-locally
// (dsp.RepairPrefix over each padded mask span, from its own zero
// base) instead of refolded from the origin — every lane read is a
// within-region difference, so the per-region base cancels — and the
// residual pass's detector is seeded with the folded lanes plus the
// first pass's calibration — the noise floor is a channel property; subtracting
// decoded signal does not change it — and masked to the dirty-span
// closure (dirtyClosure): recovered tags can only surface where
// subtraction changed the residual or where a decoded stream they
// collide with still stands. A round whose dirty-span set is empty is
// skipped outright: the residual is byte-unchanged, so the re-decode
// could only return streams that deduplicate against themselves.
// Config.ForceFullResidual reverts every round to fresh-copy,
// full-subtract, refold-from-origin mechanics under the same mask; the
// decode is byte-identical either way (sic_equivalence_test.go), so
// the A/B axis isolates exactly the carry-over machinery.

// refineE re-estimates a stream's edge vector from its cleanly locked
// slots: the registration estimate comes from a handful of early
// edges, while the clean locks average over the whole frame — a
// noticeably better subtraction vector.
func refineE(sr *StreamResult) complex128 {
	reg := sr.Stream.E
	var sum complex128
	count := 0
	for k, slot := range sr.Slots {
		if slot.Kind != streams.MatchClean || k >= len(sr.States) {
			continue
		}
		switch sr.States[k] {
		case viterbi.Up:
			sum += slot.Obs
			count++
		case viterbi.Down:
			sum -= slot.Obs
			count++
		}
	}
	if count < 8 {
		return reg
	}
	return sum / complex(float64(count), 0)
}

// reconSeg is one run of a reconstructed waveform: the per-sample
// values dense[0:hi-lo] over [lo, hi) when dense is non-nil, else the
// constant val. A stream's reconstruction is a position-sorted,
// non-overlapping cover of [0, n).
type reconSeg struct {
	lo, hi int
	val    complex128
	dense  []complex128
}

// reconstruct renders one decoded stream's baseband contribution — a
// ±E step at every decoded edge slot, ramped over rampSamples — as a
// run-length segment list instead of a dense n-sample buffer.
//
// The reference semantics are the former dense form: an n-sample
// difference array receiving each slot's ramp steps in slot order,
// then a running prefix accumulation out[i] = Σ diff[0..i]. Between
// ramp regions diff[i] is exactly +0.0 (the zeroed buffer only ever
// accumulated values into ramp positions, and x + (+0.0) == x bitwise
// for every float64 including ±0 and NaN), so the accumulator is
// bitwise constant there — a run-length representation loses nothing.
// Inside ramp regions the same accumulation runs densely, with each
// position's ramp contributions added in slot order exactly as the
// dense loop did. The result is O(slots) space and time instead of
// O(capture), and bit-identical sample for sample.
func reconstruct(sr *StreamResult, n int, rampSamples int) []reconSeg {
	e := refineE(sr)
	type event struct {
		idx  int
		step complex128
	}
	var events []event
	for k, st := range sr.States {
		if k >= len(sr.Slots) {
			break
		}
		var delta complex128
		switch st {
		case viterbi.Up:
			delta = e
		case viterbi.Down:
			delta = -e
		default:
			continue
		}
		// Centre the ramp on the slot position, as the synthesizer and
		// detector do.
		idx := sr.Slots[k].Pos - int64(rampSamples/2)
		if idx < 0 {
			idx = 0
		}
		if idx >= int64(n) {
			continue
		}
		events = append(events, event{int(idx), delta / complex(float64(rampSamples), 0)})
	}

	// Merge the ramp intervals [idx, idx+ramp) ∩ [0, n) into a sorted
	// disjoint cover of the "active" positions; everything outside is a
	// constant run.
	type span struct{ lo, hi int }
	spans := make([]span, len(events))
	for i, ev := range events {
		hi := ev.idx + rampSamples
		if hi > n {
			hi = n
		}
		spans[i] = span{ev.idx, hi}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	merged := spans[:0]
	for _, sp := range spans {
		if sp.lo >= sp.hi {
			continue
		}
		if m := len(merged); m > 0 && sp.lo <= merged[m-1].hi {
			if sp.hi > merged[m-1].hi {
				merged[m-1].hi = sp.hi
			}
			continue
		}
		merged = append(merged, sp)
	}

	// One scratch buffer holds every active interval's diff values;
	// offsets[i] is interval i's slice start. Ramp steps are added in
	// slot (event) order, so a position covered by overlapping ramps
	// accumulates them in exactly the dense loop's order.
	total := 0
	offsets := make([]int, len(merged))
	for i, sp := range merged {
		offsets[i] = total
		total += sp.hi - sp.lo
	}
	diff := make([]complex128, total)
	for _, ev := range events {
		si := sort.Search(len(merged), func(i int) bool { return merged[i].hi > ev.idx })
		sp := merged[si]
		base := offsets[si] + ev.idx - sp.lo
		hi := ev.idx + rampSamples
		if hi > sp.hi {
			// The event's ramp runs past this interval only when clipped
			// at the capture end; positions ≥ n are never read.
			hi = sp.hi
		}
		for r := 0; r < hi-ev.idx; r++ {
			diff[base+r] += ev.step
		}
	}

	// Prefix accumulation over the active intervals; the gaps between
	// them carry the accumulator value unchanged.
	segs := make([]reconSeg, 0, 2*len(merged)+1)
	var acc complex128
	pos := 0
	for i, sp := range merged {
		if sp.lo > pos {
			segs = append(segs, reconSeg{lo: pos, hi: sp.lo, val: acc})
		}
		dense := diff[offsets[i] : offsets[i]+sp.hi-sp.lo]
		for j := range dense {
			acc += dense[j]
			dense[j] = acc
		}
		segs = append(segs, reconSeg{lo: sp.lo, hi: sp.hi, dense: dense})
		pos = sp.hi
	}
	if pos < n {
		segs = append(segs, reconSeg{lo: pos, hi: n, val: acc})
	}
	return segs
}

// sicTrust is the quality score a decoded stream needs before its
// reconstruction is subtracted into the residual: a mixture or
// mistracked stream would inject its errors instead of removing
// signal.
const sicTrust = 0.45

// sicState is the cancellation loop's cross-round cache: the
// persistent residual buffer, the subtracted-stream watermark, and
// (seeded rounds) the residual's prefix-sum lanes, folded
// region-locally over the round's detection mask and seeded into the
// residual decode. Lane entries outside the round's regions are
// unspecified — the mask soundness argument (laneRegions) is exactly
// that the decode never reads them.
type sicState struct {
	residual   []complex128
	copied     []shard.Range // residual ranges materialized from retain
	sumsRe     []float64
	sumsIm     []float64
	seeded     bool // lanes admissible (no inadmissible samples seen)
	seen       int  // results already scanned for trusted candidates
	subtracted int  // trusted streams folded into the residual so far
}

// ensureResidual materializes the persistent residual over the given
// ranges: parts not yet copied from the retained capture are copied
// now; parts copied in an earlier round keep their (subtracted)
// values. A seeded residual decode reads samples only inside the lane
// fold regions, so the buffer is copy-on-read — O(regions), not
// O(capture) — with the rest left unmaterialized until (if ever) a
// push-path fallback needs the whole capture. Subtraction stays sound
// because every subtracted range is inside some round's regions
// (touched ⊆ active ⊆ regions), hence materialized before it is
// subtracted and never re-copied after.
func (st *sicState) ensureResidual(retain []complex128, ranges []shard.Range) {
	if st.residual == nil {
		st.residual = pool.ComplexUninit(len(retain))
	}
	for _, r := range rangeDiff(ranges, st.copied) {
		copy(st.residual[r.Lo:r.Hi], retain[r.Lo:r.Hi])
	}
	st.copied = mergeRanges(append(st.copied, ranges...))
}

// seedable reports whether residual decodes may still run seeded: once
// any fold sees an inadmissible sample the epoch falls back to the
// push path for good, in both round mechanics — the rule is monotone
// so the A/B modes cannot disagree on marginal re-admissions.
func (st *sicState) seedable() bool { return st.sumsRe == nil || st.seeded }

func (st *sicState) release() {
	if st.residual != nil {
		pool.PutComplex(st.residual)
		st.residual, st.copied = nil, nil
	}
	if st.sumsRe != nil {
		pool.PutFloat(st.sumsRe)
		pool.PutFloat(st.sumsIm)
		st.sumsRe, st.sumsIm = nil, nil
	}
}

// runCancellation drives the SIC rounds at flush. Each round selects
// the trusted streams decoded since the previous round, reconstructs
// them, subtracts them from the residual, re-decodes it, and keeps any
// genuinely new streams (deduplicated against the existing set, and
// required to carry at least a real edge's worth of signal — the
// residue of an imperfectly cancelled stream otherwise re-registers as
// a phantom; the gate derives from the original capture's noise
// floor).
func (sd *StreamDecoder) runCancellation() {
	n := len(sd.retain)
	if n == 0 {
		return
	}
	cfg := sd.cfg
	minE := 3 * sd.det.NoiseFloor()
	// Carry the first pass's calibration into every residual pass: the
	// noise floor is a property of the channel and receiver chain, and
	// subtraction removes signal, not noise — recalibrating on the
	// residual would only bias the floor low (the calibration window's
	// signal content is gone) and let cancellation residue register as
	// phantom peaks. Shared by the incremental and ForceFullResidual
	// paths so the A/B decode is byte-identical. A degenerate first
	// pass (zero floor or threshold) keeps the historical
	// recalibrate-on-residual semantics.
	var calib *edgedetect.CalibPreset
	if f, th := sd.det.NoiseFloor(), sd.det.Threshold(); f > 0 && th > 0 &&
		!math.IsInf(f, 1) && !math.IsInf(th, 1) {
		calib = &edgedetect.CalibPreset{Floor: f, Threshold: th}
	}
	reach := shard.SweepReach(cfg.Edge.Gap, cfg.Edge.Win)
	st := &sicState{}
	defer st.release()
	for round := 0; round < cfg.CancellationRounds; round++ {
		// Trusted candidates that appeared since the previous round.
		// Earlier rounds' trusted streams stay subtracted in the
		// persistent residual — they are carried, not recomputed.
		var newTrusted []*StreamResult
		for _, sr := range sd.results[st.seen:] {
			if quality(sr) >= sicTrust {
				newTrusted = append(newTrusted, sr)
			}
		}
		st.seen = len(sd.results)
		if len(newTrusted) == 0 && minE > 0 {
			// Empty dirty-span set: nothing new would be subtracted, so
			// the residual is byte-unchanged and the (deterministic)
			// re-decode could only return the previous round's streams —
			// each already deduplicates against itself in results (a
			// stream past the minE gate has |E| ≥ minE > 0, so zero
			// grid-phase distance and Dist(E,E) = 0 < 0.5·|E| make it
			// its own duplicate). Skipping the decode is provably
			// output-identical, in both incremental and
			// ForceFullResidual mode, so the A/B stats stay identical
			// too. (minE = 0 — a degenerate zero-floor capture — breaks
			// the self-dedup argument, so it keeps the historical
			// re-decode.)
			break
		}
		ramp := int(cfg.Edge.Gap)
		if ramp < 1 {
			ramp = 3
		}
		// Reconstruct the new streams in parallel (each writes only its
		// own segment list); their non-zero extents are the samples this
		// round's subtraction modifies.
		contribs := make([][]reconSeg, len(newTrusted))
		sd.meter.Do(sd.workers, len(newTrusted), func(i int) {
			contribs[i] = reconstruct(newTrusted[i], n, ramp)
		})
		touched := touchedRanges(contribs)
		// The detection mask for this round's residual pass: the touched
		// spans widened by the sweep's cut distance, closed over the
		// extents of already-decoded streams they interact with. Both
		// round mechanics decode under the same mask — it is a pure
		// function of the (shared) results — so the A/B decode stays
		// byte-identical.
		active := sd.dirtyClosure(touched, reach, n)
		dirty := int64(n)
		if active != nil {
			dirty = 0
			for _, r := range active {
				dirty += r.Len()
			}
		}
		sd.m.SIC.Rounds.Inc()
		sd.m.SIC.ResidualDecodes.Inc()
		sd.m.SIC.CarriedStreams.Add(int64(st.subtracted))
		sd.m.SIC.DirtySamples.Add(dirty)
		var res2 *Result
		var err error
		if cfg.ForceFullResidual {
			res2, err = sd.fullResidualDecode(st, active, calib)
		} else {
			res2, err = sd.incrementalResidualDecode(st, contribs, touched, active, calib)
		}
		st.subtracted += len(newTrusted)
		var found []*StreamResult
		if err == nil {
			found = res2.Streams
		}
		var fresh []*StreamResult
		for _, nr := range found {
			if dsp.Abs(nr.Stream.E) < minE {
				continue // cancellation residue, not a tag
			}
			if isDuplicateStream(nr, sd.results, cfg) {
				continue
			}
			nr.Recovered = true
			fresh = append(fresh, nr)
		}
		if sd.tracer != nil {
			sd.tracer.Trace(obs.SpanEvent{Stage: "sic", Stream: -1,
				Pos: sd.det.Front(), N: int64(len(fresh))})
		}
		if len(fresh) == 0 {
			break
		}
		sd.m.SIC.Recovered.Add(int64(len(fresh)))
		sd.results = append(sd.results, fresh...)
		sd.res.RecoveredStreams += len(fresh)
	}
}

// laneReach returns how far outside a detection-mask span the residual
// pass can read the prefix-sum lanes. Every windowed read — the sweep's
// differentials, the walker's MeasureAt/MeasureAtClean, group
// refinement — extends at most Gap+MaxWin past the position it probes.
// Positions probed outside the mask itself come from slot walking: a
// stream can only register where its edges are (inside the mask), its
// anchor can sit at most a preamble's worth of slots below its first
// detected edge, and the walk runs at most a full frame — overhead,
// payload, and commit slack slots at the slowest rate, under worst-case
// clock drift — past its anchor.
func (sd *StreamDecoder) laneReach() (left, right int64) {
	winPad := sd.cfg.Edge.Gap + sd.cfg.Edge.MaxWin + 1
	var maxPeriod float64
	maxBits := 0
	for _, rate := range sd.cfg.Streams.Rates {
		if p := sd.cfg.Streams.SampleRate / rate; p > maxPeriod {
			maxPeriod = p
		}
		if b := sd.cfg.PayloadBits(rate); b > maxBits {
			maxBits = b
		}
	}
	drift := 1 + sd.cfg.Streams.DriftPPM*1e-6
	head := float64(sd.cfg.Streams.PreambleLen+2) * maxPeriod * drift
	frame := float64(sd.cfg.Streams.PreambleLen+1+maxBits+12) * maxPeriod * drift
	left = winPad + int64(head) + 2*sd.cfg.Streams.PosTol + 64
	right = winPad + int64(frame) + 2*sd.cfg.Streams.PosTol + 64
	return left, right
}

// laneRegions is the set of lane index ranges the residual decode can
// read under the given detection mask: each mask span padded by the
// walker/window reach on both sides, clamped and merged. A nil mask
// (sweep everything) folds the whole capture.
func (sd *StreamDecoder) laneRegions(active []shard.Range, n int) []shard.Range {
	if active == nil {
		return []shard.Range{{Lo: 0, Hi: int64(n)}}
	}
	left, right := sd.laneReach()
	regions := make([]shard.Range, 0, len(active))
	for _, r := range active {
		lo, hi := r.Lo-left, r.Hi+right
		if lo < 0 {
			lo = 0
		}
		if hi > int64(n) {
			hi = int64(n)
		}
		if lo < hi {
			regions = append(regions, shard.Range{Lo: lo, Hi: hi})
		}
	}
	return mergeRanges(regions)
}

// foldLanes folds each region of the residual into the lanes from the
// region's own zero base (dsp.RepairPrefix over the bounded subslice).
// Lane reads are windowed differences confined to one region — the
// padding argument in laneReach — so the per-region base cancels and
// the decode is identical to one over from-origin lanes, at O(regions)
// cost instead of O(capture). Returns false if any region holds an
// inadmissible sample (non-finite or overflow-scale — exactly what the
// detector's push path replaces under hold-last-finite); the caller
// must then fall back to the push path, which owns that semantics.
func foldLanes(re, im []float64, residual []complex128, regions []shard.Range) bool {
	for _, r := range regions {
		re[r.Lo], im[r.Lo] = 0, 0
		if dsp.RepairPrefix(re, im, residual[:r.Hi], int(r.Lo),
			edgedetect.MaxSampleMag) != -1 {
			return false
		}
	}
	return true
}

// seedLanes allocates (once) and folds the state's lanes over this
// round's regions and builds the detector seed, shared by the
// incremental and ForceFullResidual paths so the A/B decode and the
// push-path fallback decision are byte-identical. The final lane entry
// is pinned so the value NewStream snapshots as its (unused, seeded
// streams never fold further) closing accumulator is deterministic.
func (sd *StreamDecoder) seedLanes(st *sicState, residual []complex128, active, regions []shard.Range, calib *edgedetect.CalibPreset) *edgedetect.SweepSeed {
	n := len(residual)
	if calib == nil || !st.seedable() {
		// No calibration to carry means no seeded detector (a masked
		// sweep cannot calibrate, so a seed requires a preset
		// threshold); the push path recalibrates as the historical
		// semantics did.
		st.seeded = false
		return nil
	}
	if st.sumsRe == nil {
		st.sumsRe = pool.FloatUninit(n + 1)
		st.sumsIm = pool.FloatUninit(n + 1)
		st.sumsRe[n], st.sumsIm[n] = 0, 0
	}
	st.seeded = foldLanes(st.sumsRe, st.sumsIm, residual, regions)
	if !st.seeded {
		return nil
	}
	return &edgedetect.SweepSeed{SumsRe: st.sumsRe, SumsIm: st.sumsIm, Active: active}
}

// incrementalResidualDecode is the default round mechanics: materialize
// the persistent residual over the round's mask regions (copy-on-read),
// subtract only the latest round's reconstructions — tiled over their
// merged dirty ranges — fold the prefix-sum lanes over those regions
// only, and seed the residual decode with them. A region containing
// inadmissible samples abandons seeding for the rest of the epoch
// (sicState.seedable) and decodes through the push path, which reads
// the whole residual — so that path materializes the rest first.
func (sd *StreamDecoder) incrementalResidualDecode(st *sicState, contribs [][]reconSeg, touched, active []shard.Range, calib *edgedetect.CalibPreset) (*Result, error) {
	n := len(sd.retain)
	regions := sd.laneRegions(active, n)
	st.ensureResidual(sd.retain, regions)
	for _, r := range touched {
		base := int(r.Lo)
		sd.meter.DoRanges(sd.workers, int(r.Len()), func(clo, chi int) {
			subtractSegs(st.residual, contribs, base+clo, base+chi)
		})
	}
	seed := sd.seedLanes(st, st.residual, active, regions, calib)
	if seed == nil {
		st.ensureResidual(sd.retain, []shard.Range{{Lo: 0, Hi: int64(n)}})
	}
	return sd.residualDecode(st.residual, calib, seed)
}

// fullResidualDecode is the ForceFullResidual A/B mechanics — no
// carry-over: reconstruct every trusted stream and subtract them all
// from a freshly copied residual. The subtraction runs in results
// order, so each sample sees the exact subtraction sequence the
// incremental path accumulated round by round and the residuals are
// bit-identical; the lane fold (seedLanes — shared code, shared
// regions, bit-identical residual input) then produces identical lane
// values and the identical push-path fallback decision, and the decode
// runs under the same detection mask — so the A/B axis isolates
// exactly the carry-over machinery.
func (sd *StreamDecoder) fullResidualDecode(st *sicState, active []shard.Range, calib *edgedetect.CalibPreset) (*Result, error) {
	n := len(sd.retain)
	ramp := int(sd.cfg.Edge.Gap)
	if ramp < 1 {
		ramp = 3
	}
	var trusted []*StreamResult
	for _, sr := range sd.results {
		if quality(sr) >= sicTrust {
			trusted = append(trusted, sr)
		}
	}
	contribs := make([][]reconSeg, len(trusted))
	sd.meter.Do(sd.workers, len(trusted), func(i int) {
		contribs[i] = reconstruct(trusted[i], n, ramp)
	})
	residual := pool.ComplexUninit(n)
	copy(residual, sd.retain)
	sd.meter.DoRanges(sd.workers, n, func(lo, hi int) {
		subtractSegs(residual, contribs, lo, hi)
	})
	seed := sd.seedLanes(st, residual, active, sd.laneRegions(active, n), calib)
	res2, err := sd.residualDecode(residual, calib, seed)
	// The residual pass copies everything it keeps (slot observations,
	// edge differentials, stream vectors), so the buffer can go back to
	// the pool as soon as the decode returns.
	pool.PutComplex(residual)
	return res2, err
}

// residualDecode runs one inner pipeline pass over a residual.
// Metering or tracing it would double-count every stage, so recovered
// streams surface only through the SIC counters; the pass's wall time
// is recorded against stage.sic_ns (runtime-class).
func (sd *StreamDecoder) residualDecode(residual []complex128, calib *edgedetect.CalibPreset, seed *edgedetect.SweepSeed) (*Result, error) {
	resCap := &iq.Capture{SampleRate: sd.sampleRate, Samples: residual}
	sub := sd.cfg
	sub.CancellationRounds = 0
	sub.Metrics = nil
	sub.Tracer = nil
	sub.OnFrame = nil
	sub.sicCalib = calib
	sub.sicSeed = seed
	ts := sd.now()
	res2, err := Decode(resCap, sub)
	sd.observe(sd.m.Stage.SIC, ts)
	return res2, err
}

// subtractSegs subtracts every contribution's segments overlapping
// [lo, hi) from the residual, in contribution order: each sample sees
// the exact same subtraction sequence as the serial stream-major loop,
// so the residual is bit-identical at any worker count and any range
// tiling. A constant segment whose value is exactly (+0, +0) is
// skipped: x - (+0.0) == x bitwise for every float64 (including ±0;
// NaN payloads are irrelevant downstream, which only tests IsNaN), and
// most of a capture lies in such segments — the pre-preamble and
// post-frame stretches of every reconstruction.
func subtractSegs(residual []complex128, contribs [][]reconSeg, lo, hi int) {
	for _, segs := range contribs {
		si := sort.Search(len(segs), func(i int) bool { return segs[i].hi > lo })
		for ; si < len(segs) && segs[si].lo < hi; si++ {
			seg := segs[si]
			clo, chi := seg.lo, seg.hi
			if clo < lo {
				clo = lo
			}
			if chi > hi {
				chi = hi
			}
			if seg.dense != nil {
				d := seg.dense[clo-seg.lo:]
				for i := clo; i < chi; i++ {
					residual[i] -= d[i-clo]
				}
				continue
			}
			v := seg.val
			if real(v) == 0 && imag(v) == 0 &&
				!math.Signbit(real(v)) && !math.Signbit(imag(v)) {
				continue
			}
			for i := clo; i < chi; i++ {
				residual[i] -= v
			}
		}
	}
}

// touchedRanges merges the exact extents of every non-zero
// reconstruction segment — the samples this round's subtraction
// modifies — into a sorted disjoint shard.Range tiling. Constant
// (+0, +0) segments leave the residual bitwise unchanged and are
// excluded, exactly mirroring subtractSegs's skip.
func touchedRanges(contribs [][]reconSeg) []shard.Range {
	var spans []shard.Range
	for _, segs := range contribs {
		for _, seg := range segs {
			if seg.dense == nil && real(seg.val) == 0 && imag(seg.val) == 0 &&
				!math.Signbit(real(seg.val)) && !math.Signbit(imag(seg.val)) {
				continue
			}
			spans = append(spans, shard.Range{Lo: int64(seg.lo), Hi: int64(seg.hi)})
		}
	}
	return mergeRanges(spans)
}

// mergeRanges sorts spans by Lo and merges overlapping or adjacent
// ones into a disjoint cover.
func mergeRanges(spans []shard.Range) []shard.Range {
	if len(spans) == 0 {
		return nil
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Lo < spans[j].Lo })
	merged := spans[:0]
	for _, sp := range spans {
		if sp.Lo >= sp.Hi {
			continue
		}
		if m := len(merged); m > 0 && sp.Lo <= merged[m-1].Hi {
			if sp.Hi > merged[m-1].Hi {
				merged[m-1].Hi = sp.Hi
			}
			continue
		}
		merged = append(merged, sp)
	}
	return merged
}

// dirtyClosure is the residual pass's detection mask: the touched
// spans widened by the sweep's cut distance (shard.SweepReach — beyond
// it every windowed differential and every scan/centroid read sees
// byte-identical input, DESIGN.md §15), then closed over the widened
// extents of decoded streams they overlap. A stream straddling a dirty
// span must stay fully visible to the residual pass — masking half of
// it would re-register the visible half as a phantom partial — and its
// extent can in turn overlap further streams, so the union iterates to
// a fixpoint (collision chains). Returns nil (sweep everything) when
// there are no touched spans.
func (sd *StreamDecoder) dirtyClosure(touched []shard.Range, reach int64, n int) []shard.Range {
	active := widenRanges(touched, reach, n)
	if len(active) == 0 {
		return nil
	}
	exts := make([]shard.Range, 0, len(sd.results))
	for _, sr := range sd.results {
		if len(sr.Slots) == 0 {
			continue
		}
		lo, hi := sr.Slots[0].Pos-reach, sr.Slots[len(sr.Slots)-1].Pos+1+reach
		if lo < 0 {
			lo = 0
		}
		if hi > int64(n) {
			hi = int64(n)
		}
		if lo < hi {
			exts = append(exts, shard.Range{Lo: lo, Hi: hi})
		}
	}
	for changed := true; changed; {
		changed = false
		kept := exts[:0]
		for _, e := range exts {
			if overlapsRanges(active, e) {
				active = mergeRanges(append(active, e))
				changed = true
			} else {
				kept = append(kept, e)
			}
		}
		exts = kept
	}
	return active
}

// widenRanges pads each span by pad samples, clamps to [0, n), and
// merges the result into a sorted disjoint cover.
func widenRanges(spans []shard.Range, pad int64, n int) []shard.Range {
	widened := make([]shard.Range, 0, len(spans))
	for _, r := range spans {
		lo, hi := r.Lo-pad, r.Hi+pad
		if lo < 0 {
			lo = 0
		}
		if hi > int64(n) {
			hi = int64(n)
		}
		if lo < hi {
			widened = append(widened, shard.Range{Lo: lo, Hi: hi})
		}
	}
	return mergeRanges(widened)
}

// rangeDiff returns the parts of a not covered by b, both sorted
// disjoint covers, as a sorted disjoint cover.
func rangeDiff(a, b []shard.Range) []shard.Range {
	var out []shard.Range
	bi := 0
	for _, r := range a {
		lo := r.Lo
		for bi < len(b) && b[bi].Hi <= lo {
			bi++
		}
		for j := bi; j < len(b) && b[j].Lo < r.Hi; j++ {
			if b[j].Lo > lo {
				out = append(out, shard.Range{Lo: lo, Hi: b[j].Lo})
			}
			if b[j].Hi > lo {
				lo = b[j].Hi
			}
		}
		if lo < r.Hi {
			out = append(out, shard.Range{Lo: lo, Hi: r.Hi})
		}
	}
	return out
}

// overlapsRanges reports whether e intersects any of rs.
func overlapsRanges(rs []shard.Range, e shard.Range) bool {
	for _, r := range rs {
		if r.Lo < e.Hi && e.Lo < r.Hi {
			return true
		}
	}
	return false
}

// isDuplicateStream reports whether a residual-pass stream re-detects
// an already decoded one: same rate, grid phase within a collision
// window, and a matching (±) vector.
func isDuplicateStream(nr *StreamResult, existing []*StreamResult, cfg Config) bool {
	period := cfg.Streams.SampleRate / nr.Stream.Rate
	for _, sr := range existing {
		if sr.Stream.Rate != nr.Stream.Rate {
			continue
		}
		dph := math.Mod(math.Abs(sr.Stream.Offset-nr.Stream.Offset), period)
		if dph > period/2 {
			dph = period - dph
		}
		if dph > float64(cfg.Edge.CoalesceDist) {
			continue
		}
		scale := math.Max(dsp.Abs(sr.Stream.E), dsp.Abs(nr.Stream.E))
		if dsp.Dist(sr.Stream.E, nr.Stream.E) < 0.5*scale ||
			dsp.Dist(sr.Stream.E, -nr.Stream.E) < 0.5*scale {
			return true
		}
	}
	return false
}

// quality scores a decoded stream for SIC reliability: the fraction of
// clean walker locks among slots that decoded as edges. Mixture
// decodes (wrong vector, wrong grid) lock rarely and score low.
func quality(sr *StreamResult) float64 {
	edges, locks := 0, 0
	for k, st := range sr.States {
		if st != viterbi.Up && st != viterbi.Down {
			continue
		}
		edges++
		if k < len(sr.Slots) && sr.Slots[k].Kind == streams.MatchClean {
			locks++
		}
	}
	if edges == 0 {
		return 0
	}
	return float64(locks) / float64(edges)
}
