# Zipper development targets. CI (.github/workflows/ci.yml) runs `make ci`
# piecewise; the full suite (no -short) is the tier-1 gate.

GO ?= go

empty :=
space := $(empty) $(empty)

.PHONY: ci fmt vet build test test-lists test-repeat test-cpus test-full fuzz-smoke bench-smoke

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
test: test-lists test-repeat test-cpus
	$(GO) test -race -short ./...
	$(GO) test -race -count=20 -run 'TestJobPreserve|TestJobStagingPreserve' .

# The handover under one, two and four scheduler threads: with one the
# application and the runtime threads take turns, with more they overlap, and
# the message path has to be right (and was measured) in both regimes. The
# park-count pin runs on the simulator and must read the same in every one.
CPU_TESTS = TestTrickle TestOpenBatch TestClaim TestStealSeesOpenBatch TestJobDirectCycleAllocs TestBatched \
	TestHandOffParks
CPU_PKGS = ./internal/core .

test-cpus:
	$(GO) test -short -cpu 1,2,4 -run '$(subst $(space),|,$(strip $(CPU_TESTS)))' $(CPU_PKGS)

# The tests worth repeating under the race detector, in one place for `make
# test` and the CI step alike: the send window of a ring lane and of a TCP
# connection, the window credit every transport handle reports, a TCP job's
# staging tier under every placement, elastic and crashed, on the fence it
# rests on (a fenced connection has deposited every frame, and so has a closed
# one), the elastic and fault churn on both wires, the per-block allocation pins (the
# direct, relay, TCP and steal paths, the frame reader, the TCP sender's
# hand-back, the segment log's append and re-read), the disk election (router
# table, two-regime simulation, bursty job), the assembly (one Spec on both
# platforms, the two error paths), the stager's arbiter and its crash journal
# (the regimes, a kill at every state a queued block can be in, the rotten
# log, the failed append, log space reclaimed while the stream runs, and
# what the journal costs the allocator per relayed block), both
# encode-failure paths, the codec's word-wide kernels, and the handover
# (Write's lock-free ring, Read's claim, the recycled headers: the lone
# block, both buffer bounds, the steal, the Stats lag, the stale Release,
# Job.Err), Stats without an endpoint lock and the gauges under concurrent
# writers and readers, shutdown on an event (the timed Cond wait on both platforms,
# the stoppable loop, WaitContext, no goroutine outliving Wait or Close,
# Wait within 20 ms of the final Read, a Retire ending the spiller's timed
# wait), and the consumer buffer (a window of blocks by default, the parks of
# each hand-off).
REPEAT_TESTS = TestRingWindowParksSender TestJobRingWindowBoundsInFlight TestTCPWindowParksSender \
	TestTCPWindowOnePingPong TestJobTCPWindowBoundsInFlight TestTransportsReportWindowCredit \
	TestJobTCPPlacedTier TestTCPCloseFencesDelivery TestTCPFenceDeposits TestTCPStagedWorkflow TestWireValidation \
	TestElasticJobMembershipChurn TestFaultJobCrashChurn \
	TestPayloadCycleDoesNotAllocate TestTCPSendRecyclesSenderBlocks TestReadFrameAllocs TestLogAppendReadAllocs \
	TestGaugeWritesDoNotAllocate TestJobDirectCycleAllocs TestJobRelayCycleAllocs TestJobTCPCompressDecodeAllocs \
	TestJobStealCycleAllocs TestAdaptiveDisk TestAdaptiveDeterministic TestOnlyAdaptiveArbitratesDisk \
	TestDiskArbiterTwoRegimes TestStealLegacyWithoutArbiter TestJobAdaptiveArbitratesDisk \
	TestForwarderEncodeFailure TestSenderEncodeFailureSendsUnreduced TestSpecRunsOnBothPlatforms \
	TestNewJobErrorLeavesNothingRunning TestFleetSubmitSpoolFailureKeepsGuarantee TestArbiter \
	TestOverflowAppendFailure TestKillDuringOverflowAppend TestKillWithResidentAndLoggedRecords \
	TestKillBetweenSendAndDeliver TestKillReplay TestCorruptSegmentDeclaredLost \
	TestFaultJournalSegmentsReclaimed TestFaultJobCrashWhileOverflowing \
	TestZipperFaultKillEverySweep TestLZOverlapOffsets TestLZMatchLenTiers TestLZDoesNotAllocate \
	TestTrickleWriteIsDelivered TestOpenBatchCountsAgainstBuffer TestClaimKeepsOccupancyBound \
	TestStealSeesOpenBatch TestStatsLagBounded TestReleaseTwiceAfterHeaderReuse \
	TestJobErrReportsSenderEncodeFailure TestLevelDebit TestStatsTakesNoEndpointLock TestGaugesConcurrent \
	TestCondWaitFor TestLoopStopsOnTheEvent TestJobWaitContext TestNoGoroutineOutlivesWait TestPromptShutdown \
	TestRetireEndsRefusedWait TestHandOffParks TestConsumerBufferHoldsAWindow
REPEAT_PKGS = ./internal/sim ./internal/rt ./internal/rt/realenv ./internal/block ./internal/flow ./internal/core \
	./internal/staging ./internal/reduce ./internal/workflow .

test-repeat:
	$(GO) test -race -count=10 -run '$(subst $(space),|,$(strip $(REPEAT_TESTS)))' $(REPEAT_PKGS)

# A name in a lane's list that matches no test drops that test out of the
# lane without a word, so every list is checked against `go test -list`: a
# run-list name must match some test the way -run matches (a substring of its
# name), a fuzz target must exist by its exact name.
test-lists:
	@$(call check-list,$(REPEAT_TESTS),$(REPEAT_PKGS),)
	@$(call check-list,$(CPU_TESTS),$(CPU_PKGS),)
	@$(call check-list,$(FUZZ_REALENV),./internal/rt/realenv,x)
	@$(call check-list,$(FUZZ_REDUCE),./internal/reduce,x)
	@$(call check-list,$(FUZZ_STAGING),./internal/staging,x)

# $(call check-list,names,packages,x) checks names against the tests of
# packages; the third argument x asks for exact matches.
check-list = names=$$($(GO) test -list . $(2)) || { echo "$$names"; exit 1; }; \
	for n in $(1); do \
		echo "$$names" | grep -q$(3)E "$$n" || { echo "test-lists: $$n matches no test in $(2)"; exit 1; }; \
	done

# Tier-1: the full suite including the figure reproductions (~15 s).
test-full:
	$(GO) build ./... && $(GO) test ./...

# 10 s of each fuzz target: the decoders — the store readers (spill file,
# log) and the frame reader, the block codec (arbitrary bytes into the
# decoder; encode/decode round trip), and the block decode a frame's enc word
# reaches (any tag, any claimed raw size, any bytes) — and the stager's
# recovery reader (a kill at any admission, log append or forwarder Send of a
# simulated relay, then Replay).
FUZZ_REALENV = FuzzReadBlock FuzzLogRead FuzzReadFrame
FUZZ_REDUCE = FuzzLZDecode FuzzLZRoundTrip FuzzDecodeBlock
FUZZ_STAGING = FuzzKillReplay

fuzz-smoke:
	for f in $(FUZZ_REALENV); do \
		$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 10s ./internal/rt/realenv || exit 1; done
	for f in $(FUZZ_REDUCE); do \
		$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 10s ./internal/reduce || exit 1; done
	for f in $(FUZZ_STAGING); do \
		$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 10s ./internal/staging || exit 1; done

# One iteration of every Go benchmark — catches bit-rot, measures nothing —
# then the repo's benchmark at 1 % of its size: all four bench/ workloads,
# every block verified, failing on any damaged block, consumer error or
# stager eviction (about half a minute on two cores).
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...
	$(GO) run ./bench -scale 0.01
