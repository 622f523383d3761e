package exp

import (
	"strings"
	"testing"
)

// TestPlacementSweepRebalances runs the sweep at a small step count and
// checks the structural story the zippertrace view exists to show: every
// policy completes, and least-occupancy carries a lower per-stager relay
// imbalance than the rank-affine funnel on the skewed workload.
func TestPlacementSweepRebalances(t *testing.T) {
	rows := RunPlacementSweep(4)
	byPolicy := map[string]PlacementRow{}
	for _, r := range rows {
		if !r.OK {
			t.Fatalf("policy %s failed: %s", r.Policy, r.Fail)
		}
		byPolicy[r.Policy] = r
	}
	ra, lo := byPolicy["rank-affine"], byPolicy["least-occupancy"]
	if ra.Imbalance <= 1 {
		t.Fatalf("rank-affine imbalance %.2f on a 6:1:1:1 skew — the workload is not skewed", ra.Imbalance)
	}
	if lo.Imbalance >= ra.Imbalance {
		t.Fatalf("least-occupancy imbalance %.2f did not improve on rank-affine's %.2f",
			lo.Imbalance, ra.Imbalance)
	}
	out := FormatPlacement(rows)
	for _, want := range []string{"rank-affine", "least-occupancy", "imbalance"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered sweep missing %q:\n%s", want, out)
		}
	}
}
