package workflow

import (
	"testing"

	"zipper/internal/core"
	"zipper/internal/place"
)

// skewedSpec is the placement test workload: four producers whose output
// volumes diverge 6:1:1:1 (rank 0 emits six blocks for every one of its
// peers, at six times the rate), everything relayed through a four-endpoint
// staging tier. Under rank-affine placement stager 0 carries rank 0's whole
// torrent; a load-aware policy spreads it.
func skewedSpec() Spec {
	spec := stagingTestSpec()
	spec.Stagers = 4
	spec.Workload.Skew = []float64{6, 1, 1, 1}
	spec.Zipper.RoutePolicy = core.RouteStaging
	return spec
}

// skewedTotal is the skewed workload's block count across channels.
func skewedTotal(spec Spec) int64 {
	perStep := spec.Workload.BytesPerStep / spec.Workload.BlockBytes
	var total int64
	for p := 0; p < spec.P; p++ {
		blocks := int64(float64(perStep) * spec.Workload.skew(p))
		total += int64(spec.Workload.Steps) * blocks
	}
	return total
}

// TestZipperPlacementRankAffinePinned pins the default: the zero-value
// Placement IS rank-affine, and requesting it explicitly changes nothing —
// the same simulation to the virtual nanosecond. Together with the
// untouched TestZipperStagersZeroUnchanged and TestZipperElasticOffPinned
// this is the byte-identical guarantee for pre-placement configurations.
func TestZipperPlacementRankAffinePinned(t *testing.T) {
	if zero := (Spec{}).Placement; zero != place.KindRankAffine {
		t.Fatalf("zero Placement is %v, want rank-affine", zero)
	}
	def := stagingTestSpec()
	def.Zipper.RoutePolicy = core.RouteHybrid
	a := RunZipper(def)

	explicit := stagingTestSpec()
	explicit.Zipper.RoutePolicy = core.RouteHybrid
	explicit.Placement = place.KindRankAffine
	b := RunZipper(explicit)

	if !a.OK || !b.OK {
		t.Fatalf("runs failed: %v / %v", a.Fail, b.Fail)
	}
	if a.E2E != b.E2E || a.Messages != b.Messages ||
		a.BlocksSent != b.BlocksSent || a.BlocksRelayed != b.BlocksRelayed ||
		a.BlocksStolen != b.BlocksStolen || a.ProducerStall != b.ProducerStall {
		t.Fatalf("explicit RankAffine diverged from the default:\n%+v\n%+v", a, b)
	}
}

// TestZipperPlacementLeastOccupancyRebalances is the deterministic simenv
// rebalancing check: on the skewed 4-producer workload the load-aware
// policy must cut the per-stager relay imbalance well below rank-affine's
// while conserving every block through mid-run reassignment, and the whole
// run must replay identically.
func TestZipperPlacementLeastOccupancyRebalances(t *testing.T) {
	ra := RunZipper(skewedSpec())

	lo := skewedSpec()
	lo.Placement = place.KindLeastOccupancy
	a := RunZipper(lo)
	b := RunZipper(lo)

	if !ra.OK || !a.OK || !b.OK {
		t.Fatalf("runs failed: %v / %v / %v", ra.Fail, a.Fail, b.Fail)
	}
	total := skewedTotal(skewedSpec())
	for _, res := range []Result{ra, a} {
		if got := res.BlocksSent + res.BlocksRelayed + res.BlocksStolen; got != total {
			t.Fatalf("conservation broken: %d+%d+%d = %d blocks, want %d",
				res.BlocksSent, res.BlocksRelayed, res.BlocksStolen, got, total)
		}
		if res.BlocksRelayed != total {
			t.Fatalf("RouteStaging relayed %d of %d blocks", res.BlocksRelayed, total)
		}
	}
	if ra.RelayImbalance < 2 {
		t.Fatalf("rank-affine imbalance %.2f on the 6:1:1:1 skew — the workload is not skewed enough to test rebalancing",
			ra.RelayImbalance)
	}
	if a.RelayImbalance*2 > ra.RelayImbalance {
		t.Fatalf("least-occupancy imbalance %.2f did not halve rank-affine's %.2f",
			a.RelayImbalance, ra.RelayImbalance)
	}
	if a.E2E != b.E2E || a.RelayImbalance != b.RelayImbalance || a.Messages != b.Messages {
		t.Fatalf("least-occupancy runs diverged:\n%+v\n%+v", a, b)
	}
}
