package workflow

import (
	"reflect"
	"testing"
	"time"

	"zipper/internal/core"
	"zipper/internal/elastic"
)

// elasticTestSpec is the staging test workflow with the autoscaler on: a
// consumer-bound run over a 3-endpoint ceiling starting from a 1-stager
// pool.
func elasticTestSpec() Spec {
	spec := stagingTestSpec()
	spec.Stagers = 3
	spec.Zipper.RoutePolicy = core.RouteStaging
	spec.Elastic = elastic.Config{
		Enabled: true, MinStagers: 1, MaxStagers: 3,
		Interval: time.Millisecond, Cooldown: 5 * time.Millisecond,
	}
	return spec
}

// TestZipperElasticWorkflow runs the autoscaled staging tier end to end on
// the simulated platform: no block may be lost across membership changes,
// the consumer-bound burst must grow the pool beyond its floor, and the
// elastic run must bill fewer stager node-seconds than the same ceiling
// held statically for the whole run.
func TestZipperElasticWorkflow(t *testing.T) {
	total := int64(4) * 6 * (8 << 20) / (1 << 20) // P × steps × blocks/step

	res := RunZipper(elasticTestSpec())
	if !res.OK {
		t.Fatalf("elastic run failed: %s", res.Fail)
	}
	if got := res.BlocksSent + res.BlocksRelayed + res.BlocksStolen; got != total {
		t.Fatalf("conservation broken: %d+%d+%d = %d blocks, want %d",
			res.BlocksSent, res.BlocksRelayed, res.BlocksStolen, got, total)
	}
	if res.BlocksRelayed != total {
		t.Fatalf("RouteStaging relayed %d of %d blocks", res.BlocksRelayed, total)
	}
	grows := 0
	for _, ev := range res.ScaleEvents {
		if ev.PoolSize < 1 || ev.PoolSize > 3 {
			t.Fatalf("pool size %d escaped [1,3]", ev.PoolSize)
		}
		if ev.Action == "grow" {
			grows++
		}
	}
	if grows == 0 {
		t.Fatal("a consumer-bound run never grew the pool")
	}
	if res.StagerNodeSeconds <= 0 {
		t.Fatalf("StagerNodeSeconds = %v, want > 0", res.StagerNodeSeconds)
	}

	// The same ceiling as a fixed pool: every endpoint is provisioned for
	// the whole run, so the elastic run must come in under it.
	fixed := elasticTestSpec()
	fixed.Elastic = elastic.Config{}
	fres := RunZipper(fixed)
	if !fres.OK {
		t.Fatalf("fixed run failed: %s", fres.Fail)
	}
	if res.StagerNodeSeconds >= fres.StagerNodeSeconds {
		t.Fatalf("elastic billed %.3f stager node-seconds, fixed ceiling %.3f — no saving",
			res.StagerNodeSeconds, fres.StagerNodeSeconds)
	}
}

// TestZipperElasticDeterministic pins the whole elastic workflow's simenv
// reproducibility, scaling timeline included — also under the adaptive
// router, whose decisions read a gauge that is folded lazily: the same Spec
// must give the same Result, field for field.
func TestZipperElasticDeterministic(t *testing.T) {
	for _, policy := range []core.RoutePolicy{core.RouteStaging, core.RouteAdaptive} {
		spec := elasticTestSpec()
		spec.Zipper.RoutePolicy = policy
		a, b := RunZipper(spec), RunZipper(spec)
		if !a.OK || !b.OK {
			t.Fatalf("%v: runs failed: %v / %v", policy, a.Fail, b.Fail)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: elastic runs diverged:\n%+v\n%+v", policy, a, b)
		}
	}
}

// TestZipperElasticOffPinned pins the acceptance guarantee alongside the
// unmodified TestZipperStagersZeroUnchanged: with Elastic disabled the run
// is byte-identical to today's fixed pool — the same virtual end time,
// stats, and message counts whether the Elastic knobs are zero or populated
// but off, and no scaling machinery leaks into the result.
func TestZipperElasticOffPinned(t *testing.T) {
	zero := stagingTestSpec()
	zero.Zipper.RoutePolicy = core.RouteHybrid
	a := RunZipper(zero)

	populated := stagingTestSpec()
	populated.Zipper.RoutePolicy = core.RouteHybrid
	populated.Elastic = elastic.Config{
		Enabled: false, MinStagers: 2, MaxStagers: 3,
		GrowOccupancy: 0.5, DrainOccupancy: 0.1,
		Interval: time.Millisecond, Cooldown: time.Millisecond,
	}
	b := RunZipper(populated)

	if !a.OK || !b.OK {
		t.Fatalf("runs failed: %v / %v", a.Fail, b.Fail)
	}
	if a.E2E != b.E2E || a.Messages != b.Messages ||
		a.BlocksSent != b.BlocksSent || a.BlocksRelayed != b.BlocksRelayed ||
		a.BlocksStolen != b.BlocksStolen || a.ProducerStall != b.ProducerStall ||
		a.StagerNodeSeconds != b.StagerNodeSeconds {
		t.Fatalf("disabled Elastic diverged from the fixed pool:\n%+v\n%+v", a, b)
	}
	if len(a.ScaleEvents) != 0 || len(b.ScaleEvents) != 0 {
		t.Fatalf("fixed pools produced scale events: %d / %d", len(a.ScaleEvents), len(b.ScaleEvents))
	}
}
