// Package shard implements seam-safe data-parallel sharding of the
// streaming decode pipeline: a capture (or pushed stream) is split into
// overlapping sample shards that independent workers process
// concurrently, and the per-shard results are merged deterministically
// so the output is byte-identical to the single-shard decode at any
// shard count.
//
// The correctness argument rests on the pipeline's provably-final cut
// distances. Every decode stage reads a bounded sample neighbourhood:
//
//   - The differential sweep at position p reads prefix sums over
//     p ± (Gap+Win), and the stages that consume its magnitudes read a
//     Gap+2 context around each one (the local-maximum scan's
//     neighbours and the centroid window). SweepReach bounds both.
//   - Stream registration reads no edge past
//     streams.RegistrationHorizon, and the frame walk past a stream's
//     registration reads no edge beyond streams.WalkHorizon.
//
// A shard that overlaps its neighbours by at least the relevant reach
// therefore computes exactly the values the serial pipeline would, and
// the overlap rows are deduplicated by keeping each position's value
// from the shard that owns it (half-open ownership ranges tile the
// capture exactly once). Because every retained value is bit-identical
// to the serial one, the merge order cannot matter — determinism is by
// construction, not by synchronization.
//
// The worker loop is pull-based: idle workers pull the next shard from
// a shared queue, so a straggler shard never stalls completed
// neighbours; the owner adopts finished shards in submission order
// (see Pool and Ticket).
package shard

// Range is a half-open range [Lo, Hi) of absolute sample positions —
// one shard's ownership span. Ownership ranges tile the processed
// interval exactly once; a shard's computation may read beyond its
// range (the overlap) but only its owned positions enter the merged
// output, which is the dedup rule that makes the merge deterministic.
type Range struct{ Lo, Hi int64 }

// Len returns the number of positions the range owns.
func (r Range) Len() int64 { return r.Hi - r.Lo }

// SweepMargin is the half-width of the differential window at one
// magnitude position: the sweep at p averages samples over
// [p-gap-win, p+gap+win], so prefix sums must cover that span.
func SweepMargin(gap, win int64) int64 { return gap + win }

// SweepGuard is the magnitude context the detector reads around a
// peak candidate: the local-maximum scan probes its ±1 neighbours and
// centroiding weighs every magnitude within gap+2 of it, so a decision
// at position p depends on magnitudes over p ± (gap+2).
func SweepGuard(gap int64) int64 { return gap + 2 }

// SweepReach is the farthest sample distance at which a sample can
// influence a detection decision at a position: the differential
// window margin plus the scan and centroid context (SweepGuard). The
// SIC dirty-span closure widens every changed span by it, so a
// residual pass re-detects every position whose decisions the
// change can reach.
func SweepReach(gap, win int64) int64 { return SweepMargin(gap, win) + SweepGuard(gap) }

// Next plans the next shard to dispatch: positions below covered are
// already owned by earlier shards, positions below avail are
// computable now. Pre-EOF a shard is only dispatched once at least min
// positions are available — tiny pushes would otherwise degenerate
// into per-push jobs whose dispatch cost dwarfs the work — while at
// EOF the remainder is flushed regardless of size so the stream
// drains. The second return is false when nothing should be
// dispatched yet.
func Next(covered, avail, size, min int64, eof bool) (Range, bool) {
	n := avail - covered
	if n <= 0 || (!eof && n < min) {
		return Range{}, false
	}
	if n > size {
		n = size
	}
	return Range{covered, covered + n}, true
}
