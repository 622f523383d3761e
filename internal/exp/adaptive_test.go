package exp

import (
	"strings"
	"testing"
	"time"

	"zipper/internal/trace"
)

// TestAdaptiveSweepShape checks the four-policy comparison's headline
// claims on a small synthetic instance: the closed-loop controller must
// carry real relay traffic, stall producers no more than the reactive
// hybrid policy, and move fewer blocks over the file system than the
// steal-heavy in-situ run — while every Zipper mode still beats the
// DataSpaces staging-server baseline end to end. Deterministic under
// simenv.
func TestAdaptiveSweepShape(t *testing.T) {
	rows := RunAdaptiveSweep("synthetic", 8, 10)
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5 (four policies + DataSpaces)", len(rows))
	}
	byMode := map[string]StagingRow{}
	for _, r := range rows {
		if !r.OK {
			t.Fatalf("%s failed: %s", r.Mode, r.Fail)
		}
		byMode[r.Mode] = r
	}
	insitu, hybrid, adaptive := byMode["in-situ"], byMode["hybrid"], byMode["adaptive"]
	if adaptive.BlocksRelayed == 0 {
		t.Fatal("adaptive routing never used the staging tier under a lagging consumer")
	}
	if adaptive.WriteStall > hybrid.WriteStall {
		t.Fatalf("adaptive stalled %v, hybrid only %v", adaptive.WriteStall, hybrid.WriteStall)
	}
	if adaptive.ViaDisk >= insitu.ViaDisk {
		t.Fatalf("adaptive moved %d blocks via disk, in-situ %d", adaptive.ViaDisk, insitu.ViaDisk)
	}
	base := byMode["DataSpaces"]
	if adaptive.E2E > base.E2E {
		t.Fatalf("adaptive (%v) slower than DataSpaces baseline (%v)", adaptive.E2E, base.E2E)
	}
	out := FormatStaging("synthetic", rows)
	if !strings.Contains(out, "adaptive") {
		t.Fatalf("formatted sweep missing adaptive row:\n%s", out)
	}
}

// TestAdaptiveTraceRendersRoutingSplit checks the trace figure carries the
// routing-split timeline next to the stager thread rows.
func TestAdaptiveTraceRendersRoutingSplit(t *testing.T) {
	fig := RunAdaptiveTrace(6)
	if fig.Gantt == "" {
		t.Fatalf("no gantt rendered: %s", fig.Detail)
	}
	for _, row := range []string{"zprod.0.sender", "zstage.0.forwarder", "ana.0"} {
		if !strings.Contains(fig.Gantt, row) {
			t.Fatalf("trace missing %s row:\n%s", row, fig.Gantt)
		}
	}
	if !strings.Contains(fig.Detail, "routing split over time") {
		t.Fatalf("detail missing the routing-split timeline: %s", fig.Detail)
	}
	if !strings.ContainsAny(fig.Detail, "123456789") {
		t.Fatalf("timeline shows no staging share at all: %s", fig.Detail)
	}
}

// TestRoutingSplitTimelineEmpty pins the no-activity rendering.
func TestRoutingSplitTimelineEmpty(t *testing.T) {
	if got := RoutingSplitTimeline(nil, 8); !strings.Contains(got, "no sender activity") {
		t.Fatalf("empty trace rendered %q", got)
	}
}

// TestRoutingSplitTimelineDiskShare pins the disk row: the writer threads'
// steal spans render as the disk share of each slice's transfers, a slice
// with traffic but no steal as '.', and other producer spans are ignored.
func TestRoutingSplitTimelineDiskShare(t *testing.T) {
	ms := time.Millisecond
	spans := []trace.Span{
		// Slice 0: two relays, no steal.
		{Proc: "zprod.0.sender", State: "relay", Start: 0, End: ms},
		{Proc: "zprod.1.sender", State: "relay", Start: ms, End: 2 * ms},
		// Slice 1: one direct send, one steal — half the transfers.
		{Proc: "zprod.0.sender", State: "send", Start: 10 * ms, End: 11 * ms},
		{Proc: "zprod.0.writer", State: "steal", Start: 11 * ms, End: 12 * ms},
		{Proc: "zprod.0.app", State: "stall", Start: 11 * ms, End: 12 * ms},
		// Slice 2: idle. Slice 3: steals only.
		{Proc: "zprod.1.writer", State: "steal", Start: 30 * ms, End: 40 * ms},
	}
	got := RoutingSplitTimeline(spans, 4)
	for _, want := range []string{"[90--]", "disk share", "[.5-9]"} {
		if !strings.Contains(got, want) {
			t.Fatalf("timeline missing %q:\n%s", want, got)
		}
	}
}
