package exp

import (
	"strings"
	"testing"

	"zipper/internal/workflow"
)

// TestFleetConsolidationSaving is the control plane's bargain on the
// shared-fleet scenario: the three jobs sharing one tier bill at most three
// quarters of the stager node-seconds the same jobs bill each alone, from
// t=0, on a tier provisioned like the shared one (today 7.47 against 11.38,
// a 34 % saving), and the shared run gets there by preempting the flood, not
// by losing its blocks.
func TestFleetConsolidationSaving(t *testing.T) {
	const steps = 6
	run := func(name string, spec workflow.FleetSpec) workflow.FleetResult {
		t.Helper()
		spec.Sample = 0
		res := workflow.RunFleet(spec)
		if !res.OK {
			t.Fatalf("%s: %s", name, res.Fail)
		}
		for _, j := range res.Jobs {
			if j.BlocksLost != 0 || j.BlocksWritten == 0 || j.BlocksAnalyzed != j.BlocksWritten {
				t.Fatalf("%s: job %s analyzed %d of %d blocks, lost %d",
					name, j.Name, j.BlocksAnalyzed, j.BlocksWritten, j.BlocksLost)
			}
		}
		return res
	}
	shared := run("shared", FleetScenario(steps))
	if shared.Preemptions == 0 {
		t.Fatal("the shared run fired no preemptions: the scenario lost its pressure story")
	}
	var private float64
	for _, job := range FleetScenario(steps).Jobs {
		spec := FleetScenario(steps)
		job.StartAfter = 0
		spec.Jobs = []workflow.FleetJob{job}
		private += run("private "+job.Name, spec).StagerNodeSeconds
	}
	if shared.StagerNodeSeconds > 0.75*private {
		t.Fatalf("shared fleet billed %.2f stager node-seconds, the private tiers %.2f: a %.0f %% saving, want ≥ 25 %%",
			shared.StagerNodeSeconds, private, 100*(1-shared.StagerNodeSeconds/private))
	}
}

// TestFleetTraceRenders pins the zippertrace fleet view: the shared-fleet
// scenario must complete with zero loss, fire preemptions against the noisy
// tenant, and render both the per-tenant occupancy chart and the control
// event log.
func TestFleetTraceRenders(t *testing.T) {
	fig := RunFleetTrace(4)
	if strings.HasPrefix(fig.Detail, "crash:") {
		t.Fatal(fig.Detail)
	}
	for _, want := range []string{
		"per-tenant occupancy/quota timeline",
		"control events:",
		"preempt quiet  victim=noisy",
		"lost=0",
	} {
		if !strings.Contains(fig.Detail, want) {
			t.Errorf("detail missing %q:\n%s", want, fig.Detail)
		}
	}
	if strings.Contains(fig.Detail, "lost=1") || strings.Contains(fig.Detail, "0 preemptions") {
		t.Fatalf("fleet scenario lost its pressure story:\n%s", fig.Detail)
	}
}
