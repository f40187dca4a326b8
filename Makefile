GO ?= go
FUZZTIME ?= 30s

.PHONY: all build vet test race race-stream bench benchjson benchguard \
	fuzz fuzz-smoke kernel-smoke obs-smoke shard-smoke \
	sic-smoke gate-smoke robustness-smoke profile ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race gate exercises the parallel pipeline (decoder fan-out,
# chunked edge detection, epoch-level experiment workers) under the
# race detector; the suite's determinism tests run both serial and
# parallel paths, so this covers every pool in the tree.
race:
	$(GO) test -race ./...

# Focused race pass over the streaming-vs-batch equivalence suite: the
# streaming decoder shares worker pools with the batch path, so the
# bit-identity tests double as a race probe of every incremental stage.
race-stream:
	$(GO) test -race -run 'TestStreaming' .

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Machine-readable micro-benchmarks (ns/op, allocs/op, goodput,
# streaming throughput/latency/window). Regenerates the committed
# baseline; commit the result when a perf change is intentional.
benchjson:
	$(GO) run ./cmd/lfbench -benchjson BENCH_streaming_decode.json

# Re-run the suite and fail on >15% ns/op or allocs/op regressions in
# the gated hot-path stages (decode sweep, edgedetect sweep, streaming
# decode) against the committed baseline.
benchguard:
	$(GO) run ./cmd/lfbench -benchguard BENCH_streaming_decode.json

# Native Go fuzzing of the adversarial-input surfaces: the LFIQ
# container parser and the streaming decode pipeline. FUZZTIME bounds
# each target's budget (default 30s; raise for a soak run).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzBlockReader -fuzztime $(FUZZTIME) ./internal/iq
	$(GO) test -run '^$$' -fuzz FuzzReadCapture -fuzztime $(FUZZTIME) ./internal/iq
	$(GO) test -run '^$$' -fuzz FuzzStreamPush -fuzztime $(FUZZTIME) ./internal/decoder
	$(GO) test -run '^$$' -fuzz FuzzGateFrame -fuzztime $(FUZZTIME) ./internal/gate
	$(GO) test -run '^$$' -fuzz FuzzPrefixRepair -fuzztime $(FUZZTIME) ./internal/dsp
	$(GO) test -run '^$$' -fuzz '^FuzzDiffSweep$$' -fuzztime $(FUZZTIME) ./internal/dsp
	$(GO) test -run '^$$' -fuzz FuzzDiffSweepGated -fuzztime $(FUZZTIME) ./internal/dsp
	$(GO) test -run '^$$' -fuzz FuzzDistGate -fuzztime $(FUZZTIME) ./internal/streams
	$(GO) test -run '^$$' -fuzz FuzzMedianFloat -fuzztime $(FUZZTIME) ./internal/dsp

# Short-budget fuzz pass for CI: enough executions to catch decode-path
# panics on adversarial input without stalling the gate.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=5s

# Kernel-equivalence smoke: fuzz the SoA sweep kernel bit-for-bit
# against the complex128 reference and the gated kernel's soundness
# against the exact one (DESIGN.md §12), plus the direct unit
# equivalence suites for the SoA sweep, quickselect median, and
# chain-pass NMS, and the stream-level gated-vs-exact identity; then
# the registration kernels (DESIGN.md §19): Register's output against
# the recorded digest table, the position index against sort.Search,
# and a fuzz pass of the squared-distance gates against dsp.Dist; then
# the bit-identical O(n) kernels (DESIGN.md §20): the calibrated floor
# against its recorded digest table, a fuzz pass of the radix median
# against sort.Float64s, incremental kmeans++ seeding against the
# quadratic reference, and lazy rng sources against eager math/rand.
kernel-smoke:
	$(GO) test -run 'TestPrefixSoA|TestMedianFloat|TestSuppress' ./internal/dsp
	$(GO) test -run 'TestGatedSweep|TestNoiseFloorDigest' ./internal/edgedetect
	$(GO) test -run '^$$' -fuzz '^FuzzDiffSweep$$' -fuzztime 5s ./internal/dsp
	$(GO) test -run '^$$' -fuzz FuzzDiffSweepGated -fuzztime 5s ./internal/dsp
	$(GO) test -run 'TestRegisterDigest|TestLowerBound|TestLatticeMemo|TestDistGate' ./internal/streams
	$(GO) test -run '^$$' -fuzz FuzzDistGate -fuzztime 5s ./internal/streams
	$(GO) test -run '^$$' -fuzz FuzzMedianFloat -fuzztime 5s ./internal/dsp
	$(GO) test -run 'TestSeedPlusPlus' ./internal/cluster
	$(GO) test -run 'TestLazySource' ./internal/rng

# Observability smoke: the golden-trace corpus (batch + streaming,
# byte-for-byte against testdata/golden/) and the metrics conservation
# sweep (accounting identities across every fault kind), both under the
# race detector so the atomic counter paths are exercised concurrently,
# plus one lfbench stage-breakdown run so the per-stage timing path
# stays wired end to end.
obs-smoke:
	$(GO) test -race -run 'TestGolden|TestMetricsConservation|TestStatsDeterminism' .
	$(GO) run ./cmd/lfbench -exp stages -quick

# Sharded-decode smoke: the shard-vs-serial byte-identity sweep (shard
# counts {1,2,8} x block sizes x all fault kinds, batch + SIC
# inheritance, stats conservation, shutdown leak check) and the
# detector-level timing-independent retention test under the race
# detector, plus the shard pool/tiling primitives' unit tests.
shard-smoke:
	$(GO) test -race -run 'TestSharded' . ./internal/edgedetect
	$(GO) test -race ./internal/shard

# Incremental-SIC smoke: the dirty-span vs ForceFullResidual
# byte-identity matrix (fault kinds x rounds, block/shard
# composition, vacuity guard) under the race detector, the prefix
# subtract-and-repair unit suite, and one quick sic experiment run so
# the redecode-fraction measurement path stays wired end to end.
sic-smoke:
	$(GO) test -race -run 'TestSIC' .
	$(GO) test -run 'TestRepairPrefix' ./internal/dsp
	$(GO) run ./cmd/lfbench -exp sic -quick

# Reader-gateway smoke: the gateway lifecycle suite (resume, kill
# mid-stream flush, double-Close, connect/disconnect storm, slow-sink
# backpressure, goroutine-leak check) at -count=3, the root acceptance
# matrix (reader push blocks {1,4096,whole} x capture faults x
# transport fault kinds at severity 0.5 — every cell asserting
# byte-identity against independent local streaming decodes), and a
# four-reader loopback gateway run with the identity check enforced;
# then, without the race detector (whose sync.Pool drops buffers at
# random), the zero-allocation ingest path: chunk and frame bytes
# against the pre-reuse encoders, the steady-state chunk round trip's
# allocation count at two chunk sizes, the resume over a rebased
# pending buffer, and the pool's allocation-free round trip.
gate-smoke:
	$(GO) test -race -count=3 ./internal/gate
	$(GO) test -race -run 'TestGateway' .
	$(GO) run ./cmd/lfgate -demo -readers 4 -check
	$(GO) test -run 'TestChunkCodecMatchesReference|TestChunkPathAllocs|TestClientResumeOverRebasedPending' ./internal/gate
	$(GO) test -run 'TestSendMatchesReference|TestReadFrameReusesBuffer|TestReadFrameRejectsOversizedBeforeAllocation' ./internal/wire
	$(GO) test -run 'TestSampleCodecBitExact' ./internal/iq
	$(GO) test -run 'TestRoundTripAllocFree' ./internal/pool

# One-epoch robustness sweep: fault injection across severities with
# the streaming==batch degraded-identity check enforced per point.
robustness-smoke:
	$(GO) run ./cmd/lfbench -exp robustness -quick -epochs 1

# CPU + heap profiles of the micro-benchmark suite, for hunting the
# next hot spot (`go tool pprof lfbench.cpu.prof`).
profile:
	$(GO) run ./cmd/lfbench -benchjson /tmp/lfbench-profile.json \
		-cpuprofile lfbench.cpu.prof -memprofile lfbench.mem.prof

ci: vet build test race race-stream fuzz-smoke kernel-smoke obs-smoke shard-smoke sic-smoke gate-smoke robustness-smoke benchguard

clean:
	$(GO) clean ./...
