package elastic_test

import (
	"fmt"
	"testing"
	"time"

	"zipper/internal/core"
	"zipper/internal/elastic"
	"zipper/internal/fabric"
	"zipper/internal/flow"
	"zipper/internal/pfs"
	"zipper/internal/rt"
	"zipper/internal/rt/simenv"
	"zipper/internal/sim"
	"zipper/internal/staging"
)

// simHost wires spawn/retire/drained for the manual simenv rig. The engine
// runs one process at a time, so the plain slice needs no lock.
type simHost struct {
	spawn func(slot int) *staging.Stager
	slots []*staging.Stager
	net   *simenv.Network
	base  int
}

func (h *simHost) Spawn(c rt.Ctx, slot int) *flow.StagerFlows {
	return h.spawn(slot).Flows()
}
func (h *simHost) Retire(c rt.Ctx, slot int) {
	h.net.Send(c, h.base+slot, rt.Message{Retire: true})
}
func (h *simHost) Drained(c rt.Ctx, slot int) bool {
	st := h.slots[slot]
	return st == nil || st.Drained(c)
}
func (h *simHost) WaitDrained(c rt.Ctx, slot int) time.Duration {
	st := h.slots[slot]
	st.Wait(c)
	return st.Stats(c).Finished
}

// elasticStepRun drives the canonical step-change workload on the simulated
// platform: a fast burst saturates the staging tier (scale-up), a long calm
// lets the consumer catch up (drain-down to the floor), then a second burst
// forces the pool to regrow into the retired slots, and a final calm drains
// it again before the janitor stops the scaler. It returns the scaling
// timeline, the analyzed-block count, and the virtual end time.
func elasticStepRun(t *testing.T) (events []elastic.Event, analyzed int, end time.Duration) {
	t.Helper()
	const (
		burstBlocks = 200
		blockBytes  = 64 << 10
		analyze     = 2 * time.Millisecond
		calm        = 600 * time.Millisecond
	)
	eng := sim.New()
	// Nodes: 0 producer, 1 consumer, 2-4 stagers, 5-6 OSTs, 7 MDS.
	fab := fabric.New(eng, fabric.Config{
		Nodes: 8, NodesPerLeaf: 16, LinkBandwidth: 1e9, LinkLatency: time.Microsecond, MTU: 256 << 10,
	})
	fs := pfs.New(eng, fab, pfs.Config{
		OSTNodes: []fabric.NodeID{5, 6}, MDSNode: 7, OSTBandwidth: 8e8,
	})
	net := simenv.NewNetwork(eng, fab, []fabric.NodeID{1, 2, 3, 4}, 2)
	store := simenv.NewStore(fs, "zipper")

	ecfg := elastic.Config{
		Enabled: true, MinStagers: 1, MaxStagers: 3,
		Interval: time.Millisecond, Cooldown: 4 * time.Millisecond,
	}.WithDefaults(3)
	pool := elastic.NewPool()
	slots := make([]*staging.Stager, 3)
	spawn := func(slot int) *staging.Stager {
		env := simenv.NewEnv(eng, fabric.NodeID(2+slot), 0)
		st := staging.NewStager(env, staging.Config{
			BufferBlocks: 16, MaxBatchBlocks: 4, Managed: true,
		}, slot, net.Inbox(1+slot), net, simenv.NewStore(fs, fmt.Sprintf("zipper-stage%d", slot)))
		slots[slot] = st
		return st
	}
	first := spawn(0)
	pool.Add(1)
	scaler := elastic.NewScaler(simenv.NewEnv(eng, 2, 0), ecfg, pool,
		&simHost{spawn: spawn, slots: slots, net: net, base: 1},
		1, []*flow.StagerFlows{first.Flows()})
	scaler.Start()

	cfg := core.Config{
		BufferBlocks: 8, MaxBatchBlocks: 2,
		RoutePolicy: core.RouteStaging,
		Directory:   pool,
		StagerLevel: func(addr int) *flow.Level {
			if st := slots[addr-1]; st != nil {
				return st.Level()
			}
			return nil
		},
	}
	cons := core.NewConsumer(simenv.NewEnv(eng, 1, 0), cfg, 0, 1, net.Inbox(0), store)
	prod := core.NewStagedProducer(simenv.NewEnv(eng, 0, 0), cfg, 0, 0, core.NoStager, net, store)

	prodEnv := simenv.NewEnv(eng, 0, 0)
	eng.Spawn("app.prod", func(sp *sim.Proc) {
		c := prodEnv.WrapProc(sp)
		step := 0
		burst := func() {
			for i := 0; i < burstBlocks; i++ {
				sp.Delay(200 * time.Microsecond)
				prod.Write(c, step, 0, nil, blockBytes)
				step++
			}
		}
		burst()        // saturate: scale-up
		sp.Delay(calm) // consumer catches up: drain-down
		burst()        // regrow into the retired slots
		prod.Close(c)
		prod.Wait(c)
	})
	consEnv := simenv.NewEnv(eng, 1, 0)
	eng.Spawn("app.cons", func(sp *sim.Proc) {
		c := consEnv.WrapProc(sp)
		for {
			_, ok := cons.Read(c)
			if !ok {
				break
			}
			analyzed++
			sp.Delay(analyze)
		}
		cons.Wait(c)
	})
	janEnv := simenv.NewEnv(eng, 2, 0)
	janEnv.Go("elastic.janitor", func(c rt.Ctx) {
		prod.Wait(c)
		scaler.Stop(c)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return scaler.Events(), analyzed, eng.Now()
}

// TestElasticStepChangeConvergence is the end-to-end autoscaler test on the
// simulated platform: the burst must grow the pool to its ceiling, the calm
// must drain it back to the floor, and the second burst must regrow into
// the slots the drain retired — all without losing a block.
func TestElasticStepChangeConvergence(t *testing.T) {
	events, analyzed, _ := elasticStepRun(t)
	if analyzed != 400 {
		t.Fatalf("analyzed %d blocks, want 400", analyzed)
	}
	if len(events) == 0 {
		t.Fatal("the scaler never acted")
	}
	var maxPool, regrown int
	var drainedToFloor bool
	prevDrain := false
	for _, ev := range events {
		if ev.PoolSize > maxPool {
			maxPool = ev.PoolSize
		}
		if ev.PoolSize < 1 || ev.PoolSize > 3 {
			t.Fatalf("pool size %d escaped [1,3] at %v", ev.PoolSize, ev.At)
		}
		if ev.Action == "drain" && ev.PoolSize == 1 {
			drainedToFloor = true
		}
		if ev.Action == "grow" && prevDrain {
			regrown++
		}
		prevDrain = prevDrain || ev.Action == "drain"
	}
	if maxPool != 3 {
		t.Fatalf("burst grew the pool to %d, want the ceiling 3", maxPool)
	}
	if !drainedToFloor {
		t.Fatal("the calm never drained the pool back to the floor")
	}
	if regrown == 0 {
		t.Fatal("the second burst never regrew into a retired slot")
	}
}

// TestElasticStepChangeDeterministic pins the controller's simenv
// reproducibility: two identical runs must produce the identical scaling
// timeline, action by action and timestamp by timestamp.
func TestElasticStepChangeDeterministic(t *testing.T) {
	e1, a1, end1 := elasticStepRun(t)
	e2, a2, end2 := elasticStepRun(t)
	if a1 != a2 || end1 != end2 {
		t.Fatalf("runs diverged: analyzed %d/%d, end %v/%v", a1, a2, end1, end2)
	}
	if len(e1) != len(e2) {
		t.Fatalf("event counts diverged: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, e1[i], e2[i])
		}
	}
}
