package core

import (
	"testing"
	"time"

	"zipper/internal/flow"
	"zipper/internal/rt/simenv"
	"zipper/internal/sim"
)

// diskRegime is one corner of the three-channel trade-off on the simulated
// platform: how much the stager can absorb, how fast the file system writes,
// and how fast the consumer analyzes.
type diskRegime struct {
	stagerBlocks int
	ostBandwidth float64
	analyze      time.Duration
}

// blindRouter is the adaptive controller with its disk election hidden — what
// a plug-in written against flow.Router alone looks like to the producer, and
// so exactly the parent's behaviour: the router splits the network channels,
// Algorithm 1 steals behind its back.
type blindRouter struct{ flow.Router }

// diskRegimeRun drives one producer through one stager to one consumer:
// bursts of 50 blocks written back to back, 2 ms of compute between them.
// newRouter nil leaves the RouteAdaptive controller in charge of all three
// channels. It returns the producer's totals and the virtual end-to-end time.
func diskRegimeRun(t *testing.T, rg diskRegime, newRouter func() flow.Router) (ProducerStats, time.Duration) {
	t.Helper()
	const (
		bursts     = 12
		burst      = 50
		blockBytes = 64 << 10
	)
	eng, prod, cons := stagedSimRig(Config{
		BufferBlocks: 8, HighWater: 6, MaxBatchBlocks: 2,
		RoutePolicy: RouteAdaptive, NewRouter: newRouter,
		Adaptive: flow.Tuning{Tau: 2 * time.Millisecond, Decay: 10 * time.Millisecond},
	}, rg.stagerBlocks, rg.ostBandwidth, nil)

	prodEnv := simenv.NewEnv(eng, 0, 0)
	eng.Spawn("app.prod", func(sp *sim.Proc) {
		c := prodEnv.WrapProc(sp)
		for s := 0; s < bursts; s++ {
			sp.Delay(2 * time.Millisecond)
			for b := 0; b < burst; b++ {
				prod.Write(c, s, int64(b)*blockBytes, nil, blockBytes)
			}
		}
		prod.Close(c)
		prod.Wait(c)
	})
	consEnv := simenv.NewEnv(eng, 1, 0)
	analyzed := 0
	eng.Spawn("app.cons", func(sp *sim.Proc) {
		c := consEnv.WrapProc(sp)
		for {
			if _, ok := cons.Read(c); !ok {
				break
			}
			analyzed++
			sp.Delay(rg.analyze)
		}
		cons.Wait(c)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	ps := prod.Stats()
	if ps.BlocksWritten != bursts*burst || analyzed != bursts*burst {
		t.Fatalf("wrote %d and analyzed %d blocks, want %d", ps.BlocksWritten, analyzed, bursts*burst)
	}
	if ps.BlocksSent+ps.BlocksRelayed+ps.BlocksStolen != ps.BlocksWritten {
		t.Fatalf("channel split %d+%d+%d != %d", ps.BlocksSent, ps.BlocksRelayed, ps.BlocksStolen, ps.BlocksWritten)
	}
	return ps, eng.Now()
}

func blind(tun flow.Tuning) func() flow.Router {
	return func() flow.Router { return blindRouter{flow.NewAdaptive(tun)} }
}

// TestDiskArbiterTwoRegimes pins both sides of the cost rule against the
// parent's behaviour (the same controller with its disk election hidden).
// With a stager roomy enough to take the bursts and a file system thirty times
// slower than the fabric, Algorithm 1 alone keeps the writer thread busy on the
// slow medium for the whole run, and the consumer then waits for its reader to
// fetch those blocks back; the arbiter explores, measures, and keeps disk to
// its probes. With a stager that saturates behind a slow consumer and a file
// system as fast as the fabric, every channel waits on the same consumer,
// disk costs what the network costs, and stealing in parallel stays the right
// call: the arbiter must leave it alone.
func TestDiskArbiterTwoRegimes(t *testing.T) {
	tun := flow.Tuning{Tau: 2 * time.Millisecond, Decay: 10 * time.Millisecond}
	share := func(ps ProducerStats) float64 { return float64(ps.BlocksStolen) / float64(ps.BlocksWritten) }

	roomySlowPFS := diskRegime{stagerBlocks: 1024, ostBandwidth: 3e7, analyze: 100 * time.Microsecond}
	parent, parentE2E := diskRegimeRun(t, roomySlowPFS, blind(tun))
	change, changeE2E := diskRegimeRun(t, roomySlowPFS, nil)
	t.Logf("roomy stager, slow PFS: stolen %d → %d of %d, steal busy %v → %v, e2e %v → %v",
		parent.BlocksStolen, change.BlocksStolen, change.BlocksWritten, parent.StealBusy, change.StealBusy, parentE2E, changeE2E)
	if change.BlocksStolen == 0 {
		t.Fatal("the arbiter never explored the disk channel")
	}
	if share(change) >= 0.05 {
		t.Fatalf("arbiter stole %.1f%% through a file system two orders slower than the relay, want < 5%%", 100*share(change))
	}
	if change.BlocksStolen*4 > parent.BlocksStolen {
		t.Fatalf("arbiter stole %d blocks where Algorithm 1 alone stole %d, want under a quarter", change.BlocksStolen, parent.BlocksStolen)
	}
	if changeE2E > parentE2E {
		t.Fatalf("keeping off the slow disk lengthened the run: %v → %v", parentE2E, changeE2E)
	}

	saturatedFastPFS := diskRegime{stagerBlocks: 8, ostBandwidth: 8e8, analyze: 300 * time.Microsecond}
	parent, parentE2E = diskRegimeRun(t, saturatedFastPFS, blind(tun))
	change, changeE2E = diskRegimeRun(t, saturatedFastPFS, nil)
	t.Logf("saturated stager, fast PFS: stolen %d → %d of %d, write stall %v → %v, e2e %v → %v",
		parent.BlocksStolen, change.BlocksStolen, change.BlocksWritten, parent.WriteStall, change.WriteStall, parentE2E, changeE2E)
	if share(parent) < 0.2 {
		t.Fatalf("the regime does not bite: Algorithm 1 alone stole only %.0f%%", 100*share(parent))
	}
	if d := share(change) - share(parent); d > 0.1*share(parent) || d < -0.1*share(parent) {
		t.Fatalf("stolen share moved %.1f%% → %.1f%%, want within a tenth of the parent's: disk costs what the network costs here",
			100*share(parent), 100*share(change))
	}
}

// TestStealLegacyWithoutArbiter: a producer whose router does not arbitrate
// disk, or that has no staging tier to weigh disk against, runs Algorithm 1
// exactly — the same steals at the same virtual instants as with the
// controller's election hidden.
func TestStealLegacyWithoutArbiter(t *testing.T) {
	run := func(cfg Config) ProducerStats {
		r := newSimRig(cfg, 1, 1, 2)
		runSimWorkflow(t, r, 6, 40, 64<<10, 2*time.Millisecond, 300*time.Microsecond)
		return r.prod[0].Stats()
	}
	base := Config{BufferBlocks: 8, HighWater: 6, MaxBatchBlocks: 2}
	want := run(base)
	if want.BlocksStolen == 0 {
		t.Fatal("the workload never stole")
	}
	adaptive := base
	adaptive.RoutePolicy = RouteAdaptive // no stager: nothing to arbitrate
	if got := run(adaptive); got.BlocksStolen != want.BlocksStolen || got.Finished != want.Finished || got.StealBusy != want.StealBusy {
		t.Fatalf("RouteAdaptive without a stager: stolen %d finished %v steal-busy %v, want Algorithm 1's %d, %v, %v",
			got.BlocksStolen, got.Finished, got.StealBusy, want.BlocksStolen, want.Finished, want.StealBusy)
	}
}
