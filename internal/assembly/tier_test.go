package assembly_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"zipper/internal/assembly"
	"zipper/internal/control"
	"zipper/internal/core"
	"zipper/internal/elastic"
	"zipper/internal/fabric"
	"zipper/internal/fault"
	"zipper/internal/pfs"
	"zipper/internal/rt"
	"zipper/internal/rt/simenv"
	"zipper/internal/sim"
)

// simTier is a small simulated machine for driving one tier by hand: node 0
// hosts every producer, node 1 the consumer (address 0), nodes 2–4 the
// stager slots (addresses 1–3) and the tier's control thread, nodes 5–6
// the OSTs and 7 the MDS.
type simTier struct {
	eng   *sim.Engine
	net   *simenv.Network
	store *simenv.Store
}

func newSimTier() *simTier {
	eng := sim.New()
	fab := fabric.New(eng, fabric.Config{
		Nodes: 8, NodesPerLeaf: 16, LinkBandwidth: 1e9, LinkLatency: time.Microsecond, MTU: 256 << 10,
	})
	fs := pfs.New(eng, fab, pfs.Config{OSTNodes: []fabric.NodeID{5, 6}, MDSNode: 7, OSTBandwidth: 8e8})
	return &simTier{
		eng:   eng,
		net:   simenv.NewNetwork(eng, fab, []fabric.NodeID{1, 2, 3, 4}, 2),
		store: simenv.NewStore(fs, "zipper"),
	}
}

func (pf *simTier) env(role assembly.Role, i int) *simenv.Env {
	node := fabric.NodeID(2)
	switch role {
	case assembly.Producer:
		node = 0
	case assembly.Consumer:
		node = 1
	case assembly.Stager:
		node = fabric.NodeID(2 + i)
	}
	return simenv.NewEnv(pf.eng, node, 0)
}

func (pf *simTier) Env(role assembly.Role, i int) rt.Env { return pf.env(role, i) }
func (pf *simTier) Inbox(addr int) rt.Inbox              { return pf.net.Inbox(addr) }
func (pf *simTier) Port(assembly.Role, int) rt.Transport { return pf.net }
func (pf *simTier) Partition(name string) (rt.BlockStore, error) {
	if name == "" {
		return pf.store, nil
	}
	return pf.store.Partition("zipper-" + name), nil
}

// setupCtx is the context Assemble runs in, before the engine starts.
type setupCtx struct{ eng *sim.Engine }

func (c setupCtx) Now() time.Duration  { return c.eng.Now() }
func (c setupCtx) Sleep(time.Duration) { panic("assembling a run must not block") }

// tierRun is one finished run of a hand-driven tier.
type tierRun struct {
	tier     *assembly.Tier
	written  int
	analyzed int
	lost     int64
	prodEnd  time.Duration // when the last producer finished
	end      time.Duration // when the simulation ended
}

const (
	tierProducers = 3
	tierBlock     = 64 << 10
)

// tierSpec is three producers relaying through a tier of up to three
// 16-block stagers into one consumer.
func tierSpec() assembly.Spec {
	return assembly.Spec{
		Producers: tierProducers, Consumers: 1,
		Core:    core.Config{BufferBlocks: 8, MaxBatchBlocks: 2, RoutePolicy: core.RouteStaging},
		Stagers: 3, StagerBufferBlocks: 16, Window: 2,
	}
}

// elasticConfig is the autoscaler both step-change tests run: from one
// stager up to three, on a 1 ms step and a 4 ms cooldown.
func elasticConfig() elastic.Config {
	return elastic.Config{
		Enabled: true, MinStagers: 1, MaxStagers: 3,
		Interval: time.Millisecond, Cooldown: 4 * time.Millisecond,
	}
}

// runTier assembles spec on a fresh simulated machine and runs it: each
// producer writes its phases in turn — a phase of n > 0 blocks writes them
// gap apart, n == 0 idles for gap — and closes; the consumer analyzes each
// block for analyze; a janitor shuts the tier down once every producer is
// done. inject, when set, runs as a thread of its own with the tier and a
// report of whether the producers are done.
func runTier(t *testing.T, spec assembly.Spec, phases []phase, analyze time.Duration,
	inject func(c rt.Ctx, tier *assembly.Tier, done func() bool)) tierRun {
	t.Helper()
	pf := newSimTier()
	a, err := assembly.Assemble(setupCtx{pf.eng}, pf, spec)
	if err != nil {
		t.Fatal(err)
	}
	run := tierRun{tier: a.Tier}
	finished := 0
	for p, prod := range a.Producers {
		pf.env(assembly.Producer, p).Go(fmt.Sprintf("app.prod.%d", p), func(c rt.Ctx) {
			step := 0
			for _, ph := range phases {
				if ph.blocks == 0 {
					c.Sleep(ph.gap)
				}
				for i := 0; i < ph.blocks; i++ {
					c.Sleep(ph.gap)
					prod.Write(c, step, 0, nil, tierBlock)
					step++
				}
			}
			run.written += step
			prod.Close(c)
			prod.Wait(c)
			finished++
			run.prodEnd = max(run.prodEnd, c.Now())
		})
	}
	cons := a.Consumers[0]
	pf.env(assembly.Consumer, 0).Go("app.cons", func(c rt.Ctx) {
		for {
			if _, ok := cons.Read(c); !ok {
				break
			}
			run.analyzed++
			c.Sleep(analyze)
		}
		cons.Wait(c)
	})
	pf.env(assembly.Control, 0).Go("tier.janitor", func(c rt.Ctx) {
		for _, prod := range a.Producers {
			prod.Wait(c)
		}
		a.Tier.Shutdown(c)
	})
	if inject != nil {
		pf.env(assembly.Control, 0).Go("tier.injector", func(c rt.Ctx) {
			inject(c, a.Tier, func() bool { return finished == len(a.Producers) })
		})
	}
	if err := pf.eng.Run(); err != nil {
		t.Fatal(err)
	}
	run.lost = cons.Stats().BlocksLost
	run.end = pf.eng.Now()
	return run
}

// phase is one stretch of a producer's run: blocks written gap apart, or,
// with blocks 0, an idle gap.
type phase struct {
	blocks int
	gap    time.Duration
}

// stepChange is burst → calm → burst → calm: each burst writes 210 blocks
// at ten times the rate the consumer analyzes them, each calm lets it catch
// up.
var stepChange = []phase{
	{70, 600 * time.Microsecond}, {0, 600 * time.Millisecond},
	{70, 600 * time.Microsecond}, {0, 600 * time.Millisecond},
}

// checkConserved fails the run unless every block written was analyzed
// exactly once — a block replayed twice pushes analyzed past written just as
// a lost one leaves it short — and none was declared lost.
func checkConserved(t *testing.T, run tierRun) {
	t.Helper()
	if run.analyzed != run.written || run.lost != 0 {
		t.Fatalf("analyzed %d of %d blocks written, %d lost", run.analyzed, run.written, run.lost)
	}
}

// TestElasticStepChangeConvergence is the autoscaler's end-to-end test on
// the simulated platform: the first burst must grow the pool to its
// ceiling, the calm must drain it back to the floor, and the second burst
// must regrow into the slots the drain retired — all without losing a
// block.
func TestElasticStepChangeConvergence(t *testing.T) {
	spec := tierSpec()
	spec.Elastic = elasticConfig()
	run := runTier(t, spec, stepChange, 2*time.Millisecond, nil)
	checkConserved(t, run)
	events := run.tier.ScaleEvents()
	if len(events) == 0 {
		t.Fatal("the autoscaler never acted")
	}
	var maxPool, floors, regrown int
	retired := map[int]bool{}
	for _, ev := range events {
		maxPool = max(maxPool, ev.PoolSize)
		if ev.PoolSize < 1 || ev.PoolSize > 3 {
			t.Fatalf("pool size %d escaped [1,3] at %v", ev.PoolSize, ev.At)
		}
		switch ev.Action {
		case "drain":
			retired[ev.Slot] = true
			if ev.PoolSize == 1 {
				floors++
			}
		case "grow":
			if retired[ev.Slot] {
				regrown++
			}
		default:
			t.Fatalf("a fault-free run logged %+v", ev)
		}
	}
	if maxPool != 3 {
		t.Fatalf("the bursts grew the pool to %d, want the ceiling 3", maxPool)
	}
	if floors < 2 {
		t.Fatalf("the pool drained to the floor %d times, want once per calm: %+v", floors, events)
	}
	if regrown == 0 {
		t.Fatalf("the second burst never regrew into a retired slot: %+v", events)
	}
}

// TestElasticStepChangeDeterministic pins the autoscaler's simenv
// reproducibility: two identical runs produce the identical scaling
// timeline, action by action and timestamp by timestamp.
func TestElasticStepChangeDeterministic(t *testing.T) {
	spec := tierSpec()
	spec.Elastic = elasticConfig()
	a := runTier(t, spec, stepChange, 2*time.Millisecond, nil)
	b := runTier(t, spec, stepChange, 2*time.Millisecond, nil)
	if a.analyzed != b.analyzed || a.end != b.end {
		t.Fatalf("runs diverged: analyzed %d/%d, end %v/%v", a.analyzed, b.analyzed, a.end, b.end)
	}
	if ea, eb := a.tier.ScaleEvents(), b.tier.ScaleEvents(); !slices.Equal(ea, eb) {
		t.Fatalf("timelines diverged:\n%+v\n%+v", ea, eb)
	}
}

// faultConfig is a 1 ms heartbeat and a 4 ms lease.
func faultConfig() fault.Config {
	return fault.Config{Enabled: true, Heartbeat: time.Millisecond, LeaseTTL: 4 * time.Millisecond}
}

// TestRespawnCapRunsOut kills every occupant of slot 0 of a fixed pool: the
// slot is respawned three times, its fourth eviction is replayed and
// abandoned, and the address ends outside the membership. The injector
// asks for a kill every 50 µs; once the detector has taken the slot into
// recovery, Kill waits for the replacement and kills it, so each kill after
// the first lands at the instant of the respawn before it, and Kill on the
// abandoned slot reports false.
func TestRespawnCapRunsOut(t *testing.T) {
	spec := tierSpec()
	spec.Stagers = 2
	spec.Fault = faultConfig()
	var kills []time.Duration
	run := runTier(t, spec, []phase{{400, 500 * time.Microsecond}}, 100*time.Microsecond,
		func(c rt.Ctx, tier *assembly.Tier, done func() bool) {
			for !done() {
				if tier.Kill(c, 0) {
					kills = append(kills, c.Now())
				}
				c.Sleep(50 * time.Microsecond)
			}
		})
	checkConserved(t, run)
	const addr = 1 // slot 0, after the consumer's address
	var kinds []string
	var respawns []time.Duration
	for _, ev := range run.tier.FailoverEvents() {
		if ev.Addr != addr {
			t.Fatalf("event %+v names another address", ev)
		}
		kinds = append(kinds, ev.Kind)
		if ev.Kind == "respawn" {
			respawns = append(respawns, ev.At)
		}
	}
	want := []string{
		"evict", "replay", "respawn",
		"evict", "replay", "respawn",
		"evict", "replay", "respawn",
		"evict", "replay", "abandon",
	}
	if !slices.Equal(kinds, want) {
		t.Fatalf("timeline %v, want %v", kinds, want)
	}
	if n := run.tier.Evictions(); n != 4 || len(kills) != 4 {
		t.Fatalf("%d evictions after %d kills, want 4 and 4", n, len(kills))
	}
	for i, at := range respawns {
		if kills[i+1] != at {
			t.Fatalf("kill %d landed at %v, not at the respawn before it (%v): Kill did not wait out the recovery", i+2, kills[i+1], at)
		}
	}
	if slices.Contains(run.tier.Pool.Members(), addr) {
		t.Fatalf("abandoned address %d still in the membership %v", addr, run.tier.Pool.Members())
	}
}

// TestDrainUnderFault runs the step change on an elastic, fault-protected
// tier and kills a member right after its drain's Retire went out: the
// pool must drain mid-run, the killed member's journal must be replayed,
// grow must not hand its slot out while the recovery owns it, and every
// block must still be analyzed exactly once.
func TestDrainUnderFault(t *testing.T) {
	spec := tierSpec()
	spec.Elastic = elasticConfig()
	spec.Fault = faultConfig()
	victim, killedAt := -1, time.Duration(0)
	run := runTier(t, spec, stepChange, 2*time.Millisecond,
		func(c rt.Ctx, tier *assembly.Tier, done func() bool) {
			seen := 0
			for !done() && victim < 0 {
				events := tier.ScaleEvents()
				for _, ev := range events[seen:] {
					if ev.Action == "drain" && tier.Kill(c, ev.Slot) {
						victim, killedAt = ev.Slot, c.Now()
						break
					}
				}
				seen = len(events)
				c.Sleep(20 * time.Microsecond)
			}
		})
	checkConserved(t, run)
	events := run.tier.ScaleEvents()
	drains := 0
	for _, ev := range events {
		if ev.Action == "drain" && ev.At < run.prodEnd {
			drains++
		}
	}
	if drains == 0 {
		t.Fatalf("the pool never drained while the producers ran: %+v", events)
	}
	if victim < 0 {
		t.Fatalf("no draining member could be killed before its flush ended: %+v", events)
	}
	addr := victim + 1
	var evicted, replayed bool
	for _, ev := range run.tier.FailoverEvents() {
		if ev.Addr != addr {
			t.Fatalf("event %+v names a member nobody killed", ev)
		}
		evicted = evicted || ev.Kind == "evict"
		replayed = replayed || ev.Kind == "replay" && ev.Replayed > 0
	}
	if !evicted || !replayed {
		t.Fatalf("the member killed mid-drain at %v was not evicted and replayed: %+v", killedAt, run.tier.FailoverEvents())
	}
	recovering := false
	for _, ev := range events {
		if ev.Slot != victim {
			continue
		}
		switch ev.Action {
		case "crash":
			recovering = true
		case "respawn":
			recovering = false
		case "grow":
			if recovering {
				t.Fatalf("grow handed out slot %d while its recovery ran: %+v", victim, events)
			}
		}
	}
}

// TestSharedTierTakesNoFaultOrElastic: a shared tier's membership is its
// control plane's, so NewTier refuses Fault and Elastic by name rather than
// dropping them.
func TestSharedTierTakesNoFaultOrElastic(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*assembly.Spec)
	}{
		{"Fault", func(s *assembly.Spec) { s.Fault = faultConfig() }},
		{"Elastic", func(s *assembly.Spec) { s.Elastic = elasticConfig() }},
	} {
		spec := assembly.Spec{Consumers: 2, Stagers: 2, StagerBufferBlocks: 16, Tenants: &control.Config{MaxTenants: 2}}
		tc.set(&spec)
		pf := newSimTier()
		tier, err := assembly.NewTier(setupCtx{pf.eng}, pf, spec)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("a shared tier with %s on: NewTier = %v, %v; want an error naming %s", tc.field, tier, err, tc.field)
		}
	}
}
