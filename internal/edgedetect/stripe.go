package edgedetect

// Sharded differential sweep (shard mode): with StreamConfig.
// ShardWorkers ≥ 2 the stream's stage-1 magnitude sweep is carved into
// stripes — contiguous owned ranges of magnitude positions — that a
// pull-based worker pool (internal/shard) computes concurrently while
// the owner goroutine keeps pushing samples and running the serial
// stages. The stripes are the in-process shards of the ISSUE's
// seam-safe sharded decode: stage 1 is where the decode spends most of
// its time, it is the only per-sample stage, and every downstream
// stage (calibration, scan, NMS/coalesce, refinement, walking) is
// provably monotone in the sweep horizon magDone, so delaying a
// position's availability never changes any decision about it.
//
// Seam safety. A stripe owns positions [lo, hi) but its kernel reads
// prefix sums over [lo − SweepReach, hi + SweepMargin]: the overlap
// with its neighbours is exactly the shard.SweepReach cut distance
// derived from the detector geometry, and a stripe is only dispatched
// once every prefix index it can read has been pushed (hi ≤
// front − margin, minus the sparse guard holdback pre-Close — the same
// horizons the serial sweep uses). Workers therefore read only settled
// entries of the append-only prefix arrays: Push writes indices the
// snapshot's length never covered, compaction (dropSums) copies the
// retained tail out into fresh arrays rather than rewriting the shared
// ones in place, and growth reallocation leaves the snapshotted
// backing array intact.
//
// Determinism. Each stripe computes into a job-owned buffer with the
// same kernels, the same from-origin prefix sums, and the same
// interior bounds the serial sweep would use, so every owned position's
// value is bit-identical to the serial sweep's — except don't-care
// zeros from the sparse skip tier, whose placement may differ with
// stripe boundaries exactly as it already differs with worker count
// and block size (DESIGN.md §12's skip-soundness argument: every read
// downstream stages perform takes the same branch either way). The
// owner adopts completed stripes strictly in submission order (the
// overlap-dedup rule: only the owned range enters s.mag), so the
// merged magnitude series, and hence the decode, is byte-identical to
// ShardParallelism = 1 at any shard count.
//
// The int16 quantized skip tier is not built in shard mode: its shadow
// arrays are rewritten by enableQuant's backfill under in-flight
// readers, and skipping it is output-invariant by the same §12
// argument (the float64 tiers make every decision identically).

import (
	"fmt"

	"lf/internal/dsp"
	"lf/internal/pool"
	"lf/internal/shard"
	"lf/internal/work"
)

// stripeSamples is the target stripe length. Reusing work.MinChunk
// means one stripe amortizes dispatch overhead exactly like one chunk
// of the serial parallel sweep — and unlike the serial sweep, which
// only fans out when a single push computes MinChunk positions at
// once, stripes accumulate across pushes, so realistic block sizes
// (8192-sample reader blocks) actually reach the pool.
const stripeSamples = work.MinChunk

// minStripeSamples is the smallest stripe dispatched before Close;
// smaller tails wait for more pushes (or for Close, which flushes any
// remainder). Together with the in-flight bound it fixes the sweep lag
// sharding adds: pre-Close, magDone trails the serial sweep's horizon
// by the in-flight stripes plus an undispatched tail shorter than
// minStripeSamples (see shardSweep) — a few ms of signal at 25 Msps,
// which delays when frames surface mid-capture but never what they
// contain.
const minStripeSamples = stripeSamples / 4

// maxStripesInFlight bounds pending stripes per worker: enough backlog
// that workers never idle between pushes, small enough that in-flight
// stripe buffers — and the prefix-sum window the owner keeps behind
// magDone for them — stay a constant-factor memory term (accounted in
// RetainedBytes).
const maxStripesInFlight = 2

// stripe is one in-flight shard of the differential sweep: the owned
// magnitude range [lo, hi), the job-owned output buffer a pool worker
// fills, and the completion ticket the owner adopts it by.
type stripe struct {
	lo, hi int64
	mag    []float64
	t      *shard.Ticket
}

// StripeJob is one self-contained unit of the sharded differential
// sweep: everything a worker needs to compute the owned magnitude
// range [Lo, Hi) into Dst, snapshotted at dispatch time. Run executes
// it with the in-process kernels; StreamConfig.StripeRunner may
// instead ship it elsewhere (internal/dist serializes exactly these
// fields), as long as Dst comes back bit-identical to what Run would
// write — the prefix sums are from-origin absolute values, so any
// subslice covering [IntLo−SweepMargin, IntHi+SweepMargin] ∩ the
// kernel's read window reproduces the same differences bit-exactly.
type StripeJob struct {
	// Lo, Hi bound the owned magnitude positions; Dst has Hi−Lo
	// entries, Dst[i] holding position Lo+i.
	Lo, Hi int64
	// IntLo, IntHi bound the sweep interior at dispatch time; owned
	// positions outside it are blanked to zero (capture-edge margins).
	IntLo, IntHi int64
	// Re, Im are the split prefix sums the kernel reads; Base is the
	// absolute sample position of Re[0]/Im[0].
	Re, Im []float64
	Base   int64
	// Detector geometry and sparse-tier controls.
	Gap, Win, Guard int64
	Sparse          bool
	Threshold       float64
	// Dst is the job-owned output buffer.
	Dst []float64
}

// Run computes the stripe in-process.
func (j *StripeJob) Run() {
	sweepStripe(j.Dst, j.Re, j.Im, j.Base, j.Lo, j.Hi, j.IntLo, j.IntHi,
		j.Gap, j.Win, j.Guard, j.Sparse, j.Threshold)
}

// shardOn reports whether the sharded sweep is active.
func (s *Stream) shardOn() bool { return s.shards != nil }

// shardSweep is stage 1 in shard mode: carve [stripeFront, hi) into
// stripes, dispatch them to the pool, and adopt completed leading
// stripes in order. At Close the owner drains every stripe so the
// detector's horizons reach the capture end.
//
// Pre-Close, a stripe is adopted exactly when its slot is needed:
// while every slot is taken and another stripe is ready to dispatch,
// the owner waits for the oldest. So magDone trails hi by the
// in-flight stripes plus a sub-minStripeSamples tail, and which
// stripes are in flight after a Push depends on the push sequence
// alone — never on when workers finish. Trim's keep marks are clamped
// to magDone, so this makes the retained prefix window (and
// RetainedBytes) a deterministic function of the pushed blocks,
// bounded by the in-flight window, even when the pusher outruns the
// pool (guaranteed on a single-CPU box, where workers only run when
// the owner yields). Waiting hands the CPU to exactly the workers
// whose results are owed, so it costs nothing when the pool keeps up.
func (s *Stream) shardSweep(hi int64, sparse bool) {
	if !s.eof {
		for s.err == nil && s.dispatchStripes(hi, sparse) {
			s.adoptHead()
		}
		return
	}
	for s.err == nil && s.magDone < hi {
		s.dispatchStripes(hi, sparse)
		if len(s.stripes) == 0 {
			break
		}
		s.adoptHead()
	}
	if s.err != nil {
		s.closeShards()
	}
}

// dispatchStripes enqueues stripes covering [stripeFront, hi) up to
// the in-flight bound, and reports whether a dispatchable stripe is
// left waiting for a slot. Each stripe snapshots everything its kernel
// reads — slice headers of the append-only prefix arrays plus the
// interior bounds and threshold at dispatch time — so the job is
// self-contained and the owner's state can keep moving.
func (s *Stream) dispatchStripes(hi int64, sparse bool) bool {
	bound := maxStripesInFlight * s.shards.Workers()
	for {
		r, ok := shard.Next(s.stripeFront, hi, stripeSamples, minStripeSamples, s.eof)
		if !ok {
			return false
		}
		if len(s.stripes) >= bound {
			return true
		}
		s.enqueueStripe(r, sparse)
	}
}

func (s *Stream) enqueueStripe(r shard.Range, sparse bool) {
	st := &stripe{lo: r.Lo, hi: r.Hi, mag: pool.FloatUninit(int(r.Len()))}
	// Snapshot the kernel inputs. The interior bounds derive from the
	// limit at dispatch time exactly as the serial sweep's do from the
	// limit at compute time; a pre-Close stripe satisfies hi ≤
	// limit − margin (− guard when sparse), so its trailing-blank
	// branch never fires early — only the Close-time stripes blank the
	// capture's tail margin, as in the serial sweep.
	g, w := s.cfg.Gap, s.cfg.Win
	margin := shard.SweepMargin(g, w)
	job := &StripeJob{
		Lo: r.Lo, Hi: r.Hi,
		IntLo: margin, IntHi: s.limit() - margin,
		Re: s.sumsRe, Im: s.sumsIm, Base: s.sumBase,
		Gap: g, Win: w, Guard: shard.SweepGuard(g),
		Sparse: sparse, Threshold: s.threshold,
		Dst: st.mag,
	}
	if run := s.stripeRun; run != nil {
		// A runner error poisons this stripe exactly like an in-process
		// panic: the pool captures it into the ticket (error-valued
		// panics are %w-wrapped, so typed errors survive to adoption).
		st.t = s.shards.Go(func() {
			if err := run(job); err != nil {
				panic(err)
			}
		})
	} else {
		st.t = s.shards.Go(job.Run)
	}
	s.stripes = append(s.stripes, st)
	s.stripeFront = r.Hi
	s.stripeBytes += int64(len(st.mag)) * 8
	s.sm.Stripes.Inc()
	s.sm.Samples.Add(r.Len())
	s.sm.InFlight.Max(int64(len(s.stripes)))
}

// sweepStripe computes the differential magnitudes a stripe owns into
// its job-owned buffer — the serial sweep's chunk body over snapshot
// inputs. It runs on a pool worker; everything it touches is either
// the job-owned dst or settled read-only prefix entries.
func sweepStripe(dst, re, im []float64, base, lo, hi, intLo, intHi, g, w, guard int64, sparse bool, threshold float64) {
	ilo := max(lo, intLo)
	ihi := min(hi, intHi)
	for p := lo; p < min(ilo, hi); p++ {
		dst[p-lo] = 0
	}
	if ilo < ihi {
		j0 := int(ilo - base)
		out := dst[ilo-lo : ihi-lo]
		if sparse {
			dsp.DiffSweepSparse(re, im, j0, g, w, guard,
				threshold, int(intLo-base), int(intHi-base), out)
		} else {
			dsp.DiffSweep(re, im, j0, g, w, out)
		}
	}
	for p := max(ihi, lo); p < hi; p++ {
		dst[p-lo] = 0
	}
}

// adoptHead waits for the oldest in-flight stripe, merges it into
// s.mag (stripes are adopted strictly in submission order), and
// advances magDone past it.
func (s *Stream) adoptHead() {
	st := s.stripes[0]
	st.t.Wait()
	copy(s.stripes, s.stripes[1:])
	s.stripes = s.stripes[:len(s.stripes)-1]
	s.stripeBytes -= int64(len(st.mag)) * 8
	if err := st.t.Err(); err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("edgedetect: sharded sweep: %w", err)
		}
	} else if s.err == nil {
		s.mag = extendFloats(s.mag, len(st.mag))
		copy(s.mag[st.lo-s.magBase:], st.mag)
		if len(s.dropSpans) > 0 {
			// Spans are settled for this range: a drop at position p
			// only affects magnitudes ≥ p − margin, and the stripe was
			// dispatched with hi ≤ front − margin, so any span that
			// could blank it was recorded before dispatch.
			s.blankDropped(st.lo, st.hi, s.cfg.Gap+s.cfg.Win)
		}
		s.magDone = st.hi
	}
	pool.PutFloat(st.mag)
}

// closeShards drains any in-flight stripes (discarding their output)
// and retires the worker pool. Idempotent; called at Close, Release,
// and on a poisoned stripe.
func (s *Stream) closeShards() {
	if s.shards == nil {
		return
	}
	for _, st := range s.stripes {
		st.t.Wait()
		pool.PutFloat(st.mag)
	}
	s.stripes = s.stripes[:0]
	s.stripeBytes = 0
	s.shards.Close()
	s.shards = nil
}
