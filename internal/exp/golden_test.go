package exp

import (
	"testing"
	"time"

	"zipper/internal/workflow"
)

// TestGoldenVirtualTimes pins two paper-scale simulations to the virtual
// nanosecond (see internal/workflow/golden_test.go for why these are
// absolute): the run bench reports as workflow.sim_t2s_virtual_s, and the
// adaptive row of the routing sweep, where all three channels carry data.
func TestGoldenVirtualTimes(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale simulations")
	}
	res := workflow.RunZipper(CFDStampede2(204, 10))
	if !res.OK {
		t.Fatalf("CFDStampede2(204, 10): %s", res.Fail)
	}
	if want := 4280149349 * time.Nanosecond; res.E2E != want {
		t.Errorf("CFDStampede2(204, 10) E2E = %d ns, want %d", res.E2E, want)
	}
	for _, row := range RunAdaptiveSweep("synthetic", 8, 10) {
		if row.Mode != "adaptive" {
			continue
		}
		if want := 25670473295 * time.Nanosecond; !row.OK || row.E2E != want {
			t.Errorf("adaptive sweep row: ok=%v E2E = %d ns, want %d", row.OK, row.E2E, want)
		}
	}
}
