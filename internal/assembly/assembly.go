// Package assembly builds the Zipper topology — consumers, the consumer
// directory, the in-transit staging tier with its scaler, failure detector
// or control plane, and producers — from one platform-neutral Spec. It is
// the only place the runtime's endpoints are constructed and retired:
// zipper.NewJob and zipper.Fleet call it over the real machine,
// workflow.RunZipper and workflow.RunFleet over the simulator, so the
// simulator validates the wiring the real system ships.
//
// A Platform is everything that differs between the two. The assembler
// calls it while it constructs or respawns an endpoint and never on the
// message path, so it adds nothing between Producer.Write and
// Consumer.Read.
//
// Construction order is part of the contract: consumers, then the tier's
// stagers in slot order (then its scaler or control plane), then
// producers, then the failure detector. The simulator's process ids and
// the order of equal-timestamp events follow from it; the real machine
// pins no order and simply adopts this one.
package assembly

import (
	"fmt"

	"zipper/internal/block"
	"zipper/internal/control"
	"zipper/internal/core"
	"zipper/internal/elastic"
	"zipper/internal/fault"
	"zipper/internal/flow"
	"zipper/internal/place"
	"zipper/internal/rt"
)

// Role says whose threads an Env hosts or whose sends a Port carries.
type Role int

const (
	// Consumer i is the endpoint at transport address i.
	Consumer Role = iota
	// Stager i occupies reserved tier slot i.
	Stager
	// Producer i is the producer of global rank i.
	Producer
	// Control is the tier's management: scaler, failure detector, control
	// plane, and whichever thread runs Shutdown. Its index is always 0.
	Control
)

// Platform is what differs between the real machine and the simulator.
type Platform interface {
	// Env returns the thread host for endpoint i of the role: the one
	// shared environment on the real machine, the endpoint's fabric node in
	// the simulator.
	Env(role Role, i int) rt.Env
	// Inbox returns the receive side of transport address addr. Consumers
	// come first, the tier's reserved slots after them.
	Inbox(addr int) rt.Inbox
	// Port returns a send handle onto the wire. A Producer or Stager port
	// belongs to that endpoint's one sending thread (a private lane set on
	// the ring wire, a dialed connection for a TCP producer); the Control
	// port is safe from any thread.
	Port(role Role, i int) rt.Transport
	// Partition returns the named partition of the job's spool, "" being
	// the spool itself. Asking twice for a name yields the same partition.
	// A partition that is to hold a journal must be an rt.LogStore.
	Partition(name string) (rt.BlockStore, error)
}

// Spec describes one job's topology, or (with Tenants) one shared tier.
type Spec struct {
	// Producers and Consumers are the endpoint counts. A fleet tier has no
	// endpoints of its own: there Consumers is the size of the consumer
	// address space the tier's slots come after, and Producers is 0.
	Producers, Consumers int
	// Core is the producer/consumer runtime configuration. The stagers
	// take their batching caps, Reduce, ReducePipeline and Recorder from it
	// too. Directory, ConsumerDirectory and StagerLevel are the
	// assembler's to fill.
	Core core.Config
	// Stagers is the reserved tier size (see Slots for how much of it is
	// built) and StagerBufferBlocks each stager's in-memory capacity.
	Stagers            int
	StagerBufferBlocks int
	// Elastic, Placement and Fault select the tier's shape: a scaler over
	// an epoch-versioned pool, a pool resolved per batch by the placement
	// policy, leases and journals on every pool member. All off is the
	// fixed tier, producer p relaying through slot p mod Slots.
	Elastic   elastic.Config
	Placement place.Kind
	Fault     fault.Config
	// Window is the receive window in messages. The assembler does not
	// read it; it is here so that one Spec sizes the wire on every platform.
	Window int
	// Tenants, when non-nil, makes this a shared fleet tier: every slot
	// runs from the start, accounts per tenant, and a control plane splits
	// the buffers among the jobs that Join.
	Tenants *Tenants
}

// Tenants configures a fleet tier's multi-tenancy.
type Tenants struct {
	// Plane tunes the control plane; Plane.MaxTenants also pre-sizes the
	// per-tenant state at every stager.
	Plane control.Config
	// Of maps a global producer rank to its tenant id. The stagers call it
	// per arriving message: a table lookup, never a platform call.
	Of func(rank int) int
}

// Slots is the number of tier slots the spec reserves: none when routing
// cannot reach a tier (its receivers would wait forever for Fins), and
// never more than the producers (a stager with no producer never ends).
func (s Spec) Slots() int {
	switch {
	case s.Tenants != nil:
		return s.Stagers
	case s.Core.RoutePolicy == core.RouteDirect:
		return 0
	case s.Stagers > s.Producers:
		return s.Producers
	}
	return s.Stagers
}

// Endpoints are one job's producer and consumer runtime modules.
type Endpoints struct {
	Consumers []*core.Consumer
	Producers []*core.Producer
}

// Assembly is a private job: its endpoints and (nil without one) its tier.
type Assembly struct {
	Endpoints
	Tier *Tier
}

// Assemble builds and starts a private job. c is the calling thread's
// context. Everything that can fail — the spool and every reserved slot's
// partition — is acquired before the first thread starts, so an error
// leaves nothing running.
func Assemble(c rt.Ctx, pf Platform, spec Spec) (*Assembly, error) {
	store, err := pf.Partition("")
	if err != nil {
		return nil, err
	}
	tier, err := newTier(pf, spec)
	if err != nil {
		return nil, err
	}
	cfg := spec.Core
	cfg.Recycler = block.NewRecycler(cfg.MaxBatchBlocks)
	a := &Assembly{Tier: tier}
	a.Consumers = startConsumers(pf, spec, &cfg, store, 0)
	fixed := 0
	if tier != nil {
		tier.start(c)
		cfg.StagerLevel = tier.level
		if tier.Pool != nil {
			cfg.Directory = tier.Pool
		} else {
			fixed = len(tier.slots)
		}
	}
	a.Producers = startProducers(pf, spec, cfg, store, 0, 0, fixed)
	if tier != nil {
		tier.startMonitor()
	}
	return a, nil
}

// NewTier builds and starts a shared fleet tier (spec.Tenants set): its
// stagers, then its control plane. Jobs come and go through Admit, Join
// and Plane.Finish; Shutdown ends it.
func NewTier(c rt.Ctx, pf Platform, spec Spec) (*Tier, error) {
	if spec.Tenants == nil {
		return nil, fmt.Errorf("assembly: NewTier builds a shared tier; a private job's comes with Assemble")
	}
	t, err := newTier(pf, spec)
	if err != nil {
		return nil, err
	}
	t.start(c)
	return t, nil
}

// Join builds and starts an admitted tenant's endpoints over the shared
// tier: consumers at consBase.., producers of global rank rankBase..,
// spilling into store. Producers resolve their stager through the
// tenant's directory, on tenant-scoped occupancy — another tenant's
// backlog never shows in this job's routing signals.
func (t *Tier) Join(pf Platform, spec Spec, store rt.BlockStore, consBase, rankBase int, tenant *control.Tenant) *Endpoints {
	cfg := spec.Core
	cfg.Recycler = block.NewRecycler(cfg.MaxBatchBlocks)
	if cfg.RoutePolicy != core.RouteDirect {
		tid := tenant.ID()
		cfg.Directory = tenant.Directory()
		cfg.StagerLevel = func(addr int) *flow.Level { return t.TenantLevel(addr, tid) }
	}
	ep := &Endpoints{}
	ep.Consumers = startConsumers(pf, spec, &cfg, store, consBase)
	ep.Producers = startProducers(pf, spec, cfg, store, consBase, rankBase, 0)
	return ep
}

// startConsumers builds the job's consumers at addresses consBase.. and,
// under a load-aware placement, the directory producers resolve them
// through (recorded in cfg).
func startConsumers(pf Platform, spec Spec, cfg *core.Config, store rt.BlockStore, consBase int) []*core.Consumer {
	placed := spec.Placement != place.KindRankAffine
	cons := make([]*core.Consumer, spec.Consumers)
	for q := range cons {
		// A placement-resolved consumer can receive from any producer, and
		// every producer Fin-broadcasts to every consumer; a rank-affine one
		// hears from the producers p with p·Q/P == q.
		n := spec.Producers
		if !placed {
			n = 0
			for p := 0; p < spec.Producers; p++ {
				if p*spec.Consumers/spec.Producers == q {
					n++
				}
			}
		}
		addr := consBase + q
		cons[q] = core.NewConsumer(pf.Env(Consumer, addr), *cfg, addr, n, pf.Inbox(addr), store)
	}
	if placed {
		// Static membership, per-batch resolution fed by the consumers'
		// live buffer-occupancy gauges.
		dir := place.New(spec.Placement.New(), func(addr int) *flow.Level {
			return cons[addr-consBase].Level()
		})
		for q := range cons {
			dir.Add(consBase + q)
		}
		cfg.ConsumerDirectory = dir
	}
	return cons
}

// startProducers builds the job's producers. With fixed > 0 the tier is
// the fixed rank-affine one and producer p relays through slot p mod
// fixed; otherwise cfg.Directory (or nothing) decides.
func startProducers(pf Platform, spec Spec, cfg core.Config, store rt.BlockStore, consBase, rankBase, fixed int) []*core.Producer {
	prods := make([]*core.Producer, spec.Producers)
	for p := range prods {
		stager := core.NoStager
		if fixed > 0 {
			stager = spec.Consumers + p%fixed
		}
		rank := rankBase + p
		dest := consBase + p*spec.Consumers/spec.Producers
		prods[p] = core.NewStagedProducer(pf.Env(Producer, rank), cfg, rank, dest, stager, pf.Port(Producer, rank), store)
	}
	return prods
}
