# Zipper development targets. CI (.github/workflows/ci.yml) runs `make ci`
# piecewise; the full suite (no -short) is the tier-1 gate.

GO ?= go

.PHONY: ci fmt vet build test test-repeat test-cpus test-full fuzz-smoke bench-smoke

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

# One iteration of every Go benchmark — catches bit-rot, measures nothing —
# then the repo's benchmark at 1 % of its size: all four bench/ workloads,
# every block verified, failing on any damaged block, consumer error or
# stager eviction (about half a minute on two cores).
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...
	$(GO) run ./bench -scale 0.01
