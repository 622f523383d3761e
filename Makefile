# Zipper development targets. CI (.github/workflows/ci.yml) runs `make ci`
# piecewise; the full suite (no -short) is the tier-1 gate.

GO ?= go

.PHONY: ci fmt vet build test test-repeat test-cpus test-full fuzz-smoke bench-smoke bench-batching bench-staging bench-adaptive bench-elastic bench-placement bench-failover bench-wire bench-control bench-ring

ci: fmt vet build test

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Fast lane: paper-figure reproductions are skipped (testing.Short); the
# Preserve tests that share a block with the application run 20 times and
# the tests of test-repeat 10 times.
test: test-repeat test-cpus
	$(GO) test -race -short ./...
	$(GO) test -race -count=20 -run 'TestJobPreserve|TestJobStagingPreserve' .

# The handover under one, two and four scheduler threads: with one the
# application and the runtime threads take turns, with more they overlap, and
# the message path has to be right (and was measured) in both regimes.
test-cpus:
	$(GO) test -short -cpu 1,2,4 -run 'TestTrickle|TestOpenBatch|TestClaim|TestStealSeesOpenBatch|TestJobDirectCycleAllocs|TestBatched' ./internal/core .

# The tests worth repeating under the race detector, in one place for `make
# test` and the CI step alike: the send window of a ring lane and of a TCP
# connection, the per-block allocation pins, the disk election (router
# table, two-regime simulation, bursty job), the assembly (one Spec on both
# platforms, the two error paths), the stager's arbiter and by-reference
# journal (the regimes, a kill at every state a record can be in, the rotten
# log, the failed append, log space reclaimed while the stream runs), both
# encode-failure paths, the codec's word-wide kernels, and the handover
# (Write's lock-free ring, Read's claim, the recycled headers: the lone
# block, both buffer bounds, the steal, the Stats lag, the stale Release,
# Job.Err).
REPEAT_TESTS = TestRingWindowParksSender TestJobRingWindowBoundsInFlight TestTCPWindowParksSender \
	TestTCPWindowOnePingPong TestJobTCPWindowBoundsInFlight TestPayloadCycleDoesNotAllocate \
	TestGaugeWritesDoNotAllocate TestJobDirectCycleAllocs TestJobTCPCompressDecodeAllocs \
	TestJobStealCycleAllocs TestAdaptiveDisk TestAdaptiveDeterministic TestOnlyAdaptiveArbitratesDisk \
	TestDiskArbiterTwoRegimes TestStealLegacyWithoutArbiter TestJobAdaptiveArbitratesDisk \
	TestForwarderEncodeFailure TestSenderEncodeFailureSendsUnreduced TestSpecRunsOnBothPlatforms \
	TestNewJobErrorLeavesNothingRunning TestFleetSubmitSpoolFailureKeepsGuarantee TestArbiter \
	TestOverflowAppendFailure TestKillDuringOverflowAppend TestKillWithResidentAndLoggedRecords \
	TestKillBetweenSendAndDeliver TestKillReplay TestCorruptSegmentDeclaredLost \
	TestJournalKeepsOnlyUndelivered TestFaultJournalSegmentsReclaimed TestFaultJobCrashWhileOverflowing \
	TestZipperFaultKillEverySweep TestLZOverlapOffsets TestLZMatchLenTiers TestLZDoesNotAllocate \
	TestTrickleWriteIsDelivered TestOpenBatchCountsAgainstBuffer TestClaimKeepsOccupancyBound \
	TestStealSeesOpenBatch TestStatsLagBounded TestReleaseTwiceAfterHeaderReuse \
	TestJobErrReportsSenderEncodeFailure TestLevelDebit
REPEAT_PKGS = ./internal/rt/realenv ./internal/block ./internal/flow ./internal/core ./internal/staging \
	./internal/reduce ./internal/workflow .
empty :=
space := $(empty) $(empty)

test-repeat:
	$(GO) test -race -count=10 -run '$(subst $(space),|,$(strip $(REPEAT_TESTS)))' $(REPEAT_PKGS)

# Tier-1: the full suite including the figure reproductions (~15 s).
test-full:
	$(GO) build ./... && $(GO) test ./...

# 10 s of each decoder fuzz target: the store readers (spill file, log) and
# the frame reader, and the block codec (arbitrary bytes into the decoder;
# encode/decode round trip).
fuzz-smoke:
	for f in FuzzReadBlock FuzzLogRead FuzzReadFrame; do \
		$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 10s ./internal/rt/realenv || exit 1; done
	for f in FuzzLZDecode FuzzLZRoundTrip; do \
		$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 10s ./internal/reduce || exit 1; done

# One iteration of every benchmark — catches bit-rot, measures nothing.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Regenerate the committed batching baseline.
bench-batching:
	$(GO) run ./cmd/benchbatch -o BENCH_batching.json

# Regenerate the committed staging baseline (in-situ vs in-transit vs hybrid).
bench-staging:
	$(GO) run ./cmd/benchstaging -o BENCH_staging.json

# Regenerate the committed adaptive-routing baseline (hybrid vs closed-loop).
bench-adaptive:
	$(GO) run ./cmd/benchadaptive -o BENCH_adaptive.json

# Regenerate the committed elastic-staging baseline (fixed-small vs
# fixed-large vs autoscaled pool).
bench-elastic:
	$(GO) run ./cmd/benchelastic -o BENCH_elastic.json

# Regenerate the committed placement baseline (rank-affine vs
# least-occupancy vs hash-ring on the skewed-rate workload).
bench-placement:
	$(GO) run ./cmd/benchplacement -o BENCH_placement.json

# Regenerate the committed failover baseline (fault plane off / quiet / with
# injected stager kills; gates blocks-lost == 0 and mean recovery time).
bench-failover:
	$(GO) run ./cmd/benchfailover -o BENCH_failover.json

# Regenerate the committed wire baseline (vectored vs copy frame writer;
# raw vs compressed bytes over a real-TCP staged job).
bench-wire:
	$(GO) run ./cmd/benchwire -o BENCH_wire.json

# Regenerate the committed intra-node fast-path baseline (SPSC ring vs
# channel transport ns/message; parallel vs inline reduction throughput;
# ring + parallel-reduce accounting identity).
bench-ring:
	$(GO) run ./cmd/benchring -o BENCH_ring.json

# Regenerate the committed multi-job control-plane baseline (shared fleet vs
# peak-provisioned private tiers; gates ≥25% node-second saving, the
# high-priority tenant within 1.5x its fair-share stall yardstick, zero loss).
bench-control:
	$(GO) run ./cmd/benchcontrol -o BENCH_control.json
