package workflow

import (
	"testing"
	"time"

	"zipper/internal/core"
	"zipper/internal/elastic"
	"zipper/internal/fault"
)

// faultTestSpec is the staging test workflow with the survivable data plane
// on over a 3-stager fixed pool.
func faultTestSpec() Spec {
	spec := stagingTestSpec()
	spec.Stagers = 3
	spec.Zipper.RoutePolicy = core.RouteStaging
	spec.Fault = fault.Config{Enabled: true}
	return spec
}

// faultElasticSpec adds the autoscaler, so membership epochs keep advancing
// through the run — each grow is a later kill point for the epoch sweep.
func faultElasticSpec() Spec {
	spec := faultTestSpec()
	spec.Elastic = elastic.Config{
		Enabled: true, MinStagers: 1, MaxStagers: 3,
		Interval: time.Millisecond, Cooldown: 5 * time.Millisecond,
	}
	return spec
}

// faultOverflowSpec shrinks the elastic pool's buffers to a quarter, so a
// victim's queue mixes blocks still in memory — journaled by reference —
// with blocks its spiller already moved to the log: the state the recovery
// reader has to stitch back together.
func faultOverflowSpec() Spec {
	spec := faultElasticSpec()
	spec.StagerBufferBlocks = 16
	return spec
}

func faultTotal(spec Spec) int64 {
	w := spec.Workload
	return int64(spec.P) * int64(w.Steps) * (w.BytesPerStep / w.BlockBytes)
}

// TestZipperFaultKillEverySweep is the tentpole's simenv acceptance test: a
// stager is hard-killed at every reachable membership epoch — under the
// virtual clock each kill lands at a deterministic instant — and every run
// must still terminate with every block analyzed and zero blocks lost,
// because the failure detector evicts the corpse, the recovery reader
// replays its journal, and counted Fins let the replayed blocks land.
func TestZipperFaultKillEverySweep(t *testing.T) {
	for _, tier := range []struct {
		name string
		mk   func() Spec
	}{
		{"fixed", faultTestSpec},
		{"elastic", faultElasticSpec},
		{"overflowing", faultOverflowSpec},
	} {
		total := faultTotal(tier.mk())
		kills, overflowed := 0, 0
		for epoch := 1; epoch <= 8; epoch++ {
			spec := tier.mk()
			spec.FaultKillEpoch = epoch
			res := RunZipper(spec)
			if !res.OK {
				t.Fatalf("%s kill@epoch %d: run failed: %s", tier.name, epoch, res.Fail)
			}
			// Analyzed counts deliveries: a block the replay sent twice would
			// push it past the total just as a lost one leaves it short.
			if res.BlocksAnalyzed != total {
				t.Fatalf("%s kill@epoch %d: analyzed %d of %d blocks", tier.name, epoch, res.BlocksAnalyzed, total)
			}
			if res.BlocksLost != 0 {
				t.Fatalf("%s kill@epoch %d: BlocksLost = %d, want 0", tier.name, epoch, res.BlocksLost)
			}
			if res.Evictions == 0 {
				// The epoch was never reached (no membership change got that
				// far before the producers finished) — the injector stayed
				// quiet, which is itself a valid sweep point.
				continue
			}
			kills++
			if res.StagerSpills > 0 && res.ReplayedBlocks > 0 {
				overflowed++
			}
			if res.Evictions != 1 {
				t.Fatalf("%s kill@epoch %d: Evictions = %d after a single kill", tier.name, epoch, res.Evictions)
			}
			var evicts, replays, respawns int
			for _, ev := range res.FailoverEvents {
				switch ev.Kind {
				case "evict":
					evicts++
				case "replay":
					replays++
				case "respawn":
					respawns++
				case "abandon":
				default:
					t.Fatalf("%s kill@epoch %d: unknown event kind %q", tier.name, epoch, ev.Kind)
				}
			}
			if evicts != 1 || replays != 1 {
				t.Fatalf("%s kill@epoch %d: %d evict / %d replay events, want 1/1",
					tier.name, epoch, evicts, replays)
			}
		}
		if kills == 0 {
			t.Fatalf("%s: no epoch in the sweep produced a kill", tier.name)
		}
		if tier.name == "overflowing" && overflowed == 0 {
			t.Fatalf("overflowing: none of the %d kills met a tier that had both overflowed and owed a replay", kills)
		}
	}
}

// TestZipperFaultRecoveryDeterministic pins the whole crash-and-recover
// workflow's simenv reproducibility: two identical killed runs share the
// virtual end time and the full eviction/recovery timeline.
func TestZipperFaultRecoveryDeterministic(t *testing.T) {
	mk := func() Result {
		spec := faultElasticSpec()
		spec.FaultKillEpoch = 2
		return RunZipper(spec)
	}
	a, b := mk(), mk()
	if !a.OK || !b.OK {
		t.Fatalf("runs failed: %v / %v", a.Fail, b.Fail)
	}
	if a.E2E != b.E2E || a.Evictions != b.Evictions || a.ReplayedBlocks != b.ReplayedBlocks ||
		a.BlocksAnalyzed != b.BlocksAnalyzed {
		t.Fatalf("killed runs diverged:\n%+v\n%+v", a, b)
	}
	if len(a.FailoverEvents) != len(b.FailoverEvents) {
		t.Fatalf("timelines diverged: %d vs %d events", len(a.FailoverEvents), len(b.FailoverEvents))
	}
	for i := range a.FailoverEvents {
		if a.FailoverEvents[i] != b.FailoverEvents[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, a.FailoverEvents[i], b.FailoverEvents[i])
		}
	}
}

// TestZipperFaultOffPinned pins the acceptance guarantee alongside the
// elastic and placement pins: with Fault disabled the run is byte-identical
// whether the fault knobs are zero or populated but off, and no fault
// machinery leaks into the result.
func TestZipperFaultOffPinned(t *testing.T) {
	zero := stagingTestSpec()
	zero.Zipper.RoutePolicy = core.RouteStaging
	a := RunZipper(zero)

	populated := stagingTestSpec()
	populated.Zipper.RoutePolicy = core.RouteStaging
	populated.Fault = fault.Config{
		Enabled:   false,
		Heartbeat: time.Millisecond, LeaseTTL: 10 * time.Millisecond,
	}
	b := RunZipper(populated)

	if !a.OK || !b.OK {
		t.Fatalf("runs failed: %v / %v", a.Fail, b.Fail)
	}
	if a.E2E != b.E2E || a.Messages != b.Messages ||
		a.BlocksSent != b.BlocksSent || a.BlocksRelayed != b.BlocksRelayed ||
		a.BlocksStolen != b.BlocksStolen || a.BlocksAnalyzed != b.BlocksAnalyzed {
		t.Fatalf("Fault:off diverged from zero knobs:\n%+v\n%+v", a, b)
	}
	for _, res := range []Result{a, b} {
		if res.Evictions != 0 || res.ReplayedBlocks != 0 || res.BlocksLost != 0 || len(res.FailoverEvents) != 0 {
			t.Fatalf("fault machinery leaked into a fault-off run: %+v", res)
		}
	}
}
