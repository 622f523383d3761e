package assembly

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"zipper/internal/control"
	"zipper/internal/elastic"
	"zipper/internal/fault"
	"zipper/internal/flow"
	"zipper/internal/place"
	"zipper/internal/rt"
	"zipper/internal/staging"
)

// Instance is one stager that ran, or runs, on a tier slot. A slot
// accumulates instances as the scaler reuses it and the failure detector
// respawns into it; the latest is its occupant.
type Instance struct {
	Slot int
	St   *staging.Stager

	// Guarded by the tier's mutex; read them from an Instances snapshot.
	Drained   bool  // sent its Retire (a drain, the shutdown sweep) or evicted
	Evicted   bool  // the failure detector evicted it
	Recovered bool  // it is a respawned replacement
	Replayed  int64 // blocks the recovery reader re-forwarded from its journal
	Lost      int64 // blocks its journal's replay declared unrecoverable

	journal *staging.Journal // what the instance still owes (fault plane only)
	spill   rt.BlockStore    // the slot's spool partition
}

// Tier is the in-transit staging tier in any of its shapes — fixed
// rank-affine, pool-managed behind a placement directory, elastic, each of
// the last two optionally fault-protected, or a fleet's shared tier — and
// the one implementation of the callbacks its controllers drive it through:
// elastic.Host, fault.Host and control.Host.
type Tier struct {
	// Pool is the stager directory producers resolve through, Scaler the
	// autoscaler, Monitor the failure detector, Plane a fleet's control
	// plane. Each is nil in the shapes that have none.
	Pool    *place.Directory
	Scaler  *elastic.Scaler
	Monitor *fault.Monitor
	Plane   *control.Plane

	pf     Platform
	spec   Spec
	base   int             // transport address of slot 0
	ecfg   elastic.Config  // defaults resolved; Enabled false unless the tier is elastic
	fcfg   fault.Config    // defaults resolved; Enabled false with the fault plane off
	wire   rt.Transport    // any-thread port: Retire messages, journal replay
	stores []rt.BlockStore // every reserved slot's spool partition

	// slots holds each slot's occupant. Producers read it on their routing
	// path (level), so it is lock-free; mu guards the rest, is a leaf, and
	// is never held across a call that can park — uncontended, and so
	// deterministic, under the simulator's one-process-at-a-time engine.
	slots   []atomic.Pointer[Instance]
	mu      sync.Mutex
	all     []*Instance // every instance ever spawned, in spawn order
	tenants []*control.Tenant
}

// newTier sizes the tier and acquires every reserved slot's partition. It
// starts no thread; nil means the spec has no tier.
func newTier(pf Platform, spec Spec) (*Tier, error) {
	n := spec.Slots()
	if n == 0 {
		return nil, nil
	}
	t := &Tier{pf: pf, spec: spec, base: spec.Consumers}
	if spec.Tenants == nil && spec.Fault.Enabled {
		t.fcfg = spec.Fault.WithDefaults()
	}
	if spec.Tenants == nil && spec.Elastic.Enabled {
		t.ecfg = spec.Elastic.WithDefaults(n)
		n = t.ecfg.MaxStagers
	}
	t.slots = make([]atomic.Pointer[Instance], n)
	for slot := 0; slot < n; slot++ {
		store, err := pf.Partition(fmt.Sprintf("stage%d", slot))
		if err != nil {
			return nil, err
		}
		t.stores = append(t.stores, store)
	}
	t.wire = pf.Port(Control, 0)
	return t, nil
}

// managed reports pool-managed termination: the stagers exit on Retire,
// not on a count of Fins.
func (t *Tier) managed() bool {
	return t.spec.Tenants != nil || t.ecfg.Enabled || t.fcfg.Enabled ||
		t.spec.Placement != place.KindRankAffine
}

// start spawns the starting stagers in slot order, then the scaler or the
// control plane.
func (t *Tier) start(c rt.Ctx) {
	n := len(t.slots)
	if t.ecfg.Enabled {
		n = t.ecfg.MinStagers
	}
	if t.managed() && t.spec.Tenants == nil {
		// An epoch-versioned membership resolved per drained batch through
		// the placement policy, on the stagers' live occupancy gauges. The
		// fault plane needs it even under rank-affine placement: an
		// eviction is a membership epoch, and counted Fins are what let
		// replayed blocks land after their relay died.
		t.Pool = place.New(t.spec.Placement.New(), t.level)
	}
	addrs := make([]int, n)
	initial := make([]*flow.StagerFlows, n)
	for slot := range addrs {
		addrs[slot] = t.base + slot
		initial[slot] = t.spawn(c, slot).St.Flows()
		if t.Pool != nil {
			t.Pool.Add(addrs[slot])
		}
	}
	switch {
	case t.spec.Tenants != nil:
		t.Plane = control.NewPlane(t.spec.Tenants.Plane, addrs, t.spec.StagerBufferBlocks, t)
		t.Plane.Start(t.pf.Env(Control, 0))
	case t.ecfg.Enabled:
		t.Scaler = elastic.NewScaler(t.pf.Env(Control, 0), t.ecfg, t.Pool, t, t.base, initial)
		if t.fcfg.Enabled {
			t.Scaler.GrowOnly() // a member may already be dead: no mid-run drains
		}
		t.Scaler.Start()
	}
}

// startMonitor starts the failure detector: it sweeps the lease table
// every heartbeat, evicts lapsed members, and drives fence → replay →
// respawn through the tier.
func (t *Tier) startMonitor() {
	if t.fcfg.Enabled && t.Pool != nil {
		t.Monitor = fault.NewMonitor(t.pf.Env(Control, 0), t.fcfg, t.Pool, t)
		t.Monitor.Start()
	}
}

// spawn builds and starts a stager on the slot and makes it the occupant.
// A reused slot keeps its partition: a drained occupant flushed it before
// retiring, and a crashed occupant's leftovers belong to its journal, whose
// replay removes them.
func (t *Tier) spawn(c rt.Ctx, slot int) *Instance {
	scfg := staging.Config{
		BufferBlocks:   t.spec.StagerBufferBlocks,
		MaxBatchBlocks: t.spec.Core.MaxBatchBlocks,
		Managed:        t.managed(),
		Reduce:         t.spec.Core.Reduce,
		Pipeline:       t.spec.Core.ReducePipeline,
		Recorder:       t.spec.Core.Recorder,
	}
	if ten := t.spec.Tenants; ten != nil {
		scfg.Tenants, scfg.Tenant = ten.Plane.MaxTenants, ten.Of
	}
	if !scfg.Managed {
		// The fixed tier ends by counting the Fins of the producers p with
		// p mod slots == slot.
		n := len(t.slots)
		scfg.Producers = (t.spec.Producers - slot + n - 1) / n
	}
	addr := t.base + slot
	in := &Instance{Slot: slot, spill: t.stores[slot]}
	if t.fcfg.Enabled {
		// A fresh journal per instance — a respawned slot must not replay
		// its predecessor's records — and a liveness lease, renewed by the
		// heartbeat thread and released synchronously by the last thread of
		// a clean drain, so only a crash ever lapses it.
		in.journal = staging.NewJournal()
		scfg.Journal = in.journal
		scfg.HeartbeatInterval = t.fcfg.Heartbeat
		scfg.Heartbeat = func(c rt.Ctx) { t.Pool.Beat(addr, c.Now()) }
		scfg.Unlease = func() { t.Pool.Unlease(addr) }
		t.Pool.Lease(addr, t.fcfg.LeaseTTL, c.Now())
	}
	// The forwarder is one sending thread, a respawned one a fresh thread:
	// every instance gets a port of its own.
	in.St = staging.NewStager(t.pf.Env(Stager, slot), scfg, slot, t.pf.Inbox(addr), t.pf.Port(Stager, slot), in.spill)
	t.slots[slot].Store(in)
	t.mu.Lock()
	t.all = append(t.all, in)
	t.mu.Unlock()
	return in
}

// occupant returns the slot's latest instance, nil for a slot never used
// (or out of range).
func (t *Tier) occupant(slot int) *Instance {
	if slot < 0 || slot >= len(t.slots) {
		return nil
	}
	return t.slots[slot].Load()
}

// level is core.Config.StagerLevel: the occupancy gauge of the stager at
// addr, nil while the slot is empty.
func (t *Tier) level(addr int) *flow.Level {
	if in := t.occupant(addr - t.base); in != nil {
		return in.St.Level()
	}
	return nil
}

// Instances snapshots every instance ever spawned, in spawn order: retired
// and evicted ones stay visible so totals account for work already shed.
func (t *Tier) Instances() []Instance {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Instance, len(t.all))
	for i, in := range t.all {
		out[i] = *in
	}
	return out
}

// RelayImbalance is the max/mean ratio of the blocks each instance ever
// spawned received: 1 when every stager carried an equal share of the relay
// traffic, the instance count when one carried everything, 0 with no tier or
// nothing relayed.
func (t *Tier) RelayImbalance() float64 {
	ins := t.Instances()
	var total, peak int64
	for _, in := range ins {
		n := in.St.Stats(nil).BlocksIn
		total += n
		peak = max(peak, n)
	}
	if total == 0 {
		return 0
	}
	return float64(peak) * float64(len(ins)) / float64(total)
}

// NodeSeconds is the tier's provisioned cost in stager-seconds: what the
// scaler billed, or, without one, each instance's finish time summed. It is
// complete once the tier has shut down.
func (t *Tier) NodeSeconds() float64 {
	if t != nil && t.Scaler != nil {
		return t.Scaler.NodeSeconds()
	}
	var sum float64
	for _, in := range t.Instances() {
		sum += in.St.Stats(nil).Finished.Seconds()
	}
	return sum
}

// Spawn implements elastic.Host.
func (t *Tier) Spawn(c rt.Ctx, slot int) *flow.StagerFlows {
	return t.spawn(c, slot).St.Flows()
}

// Retire implements elastic.Host: the Retire control message, which the
// caller's membership change and quiesce have made the last message the
// slot's occupant receives.
func (t *Tier) Retire(c rt.Ctx, slot int) {
	in := t.occupant(slot)
	t.mu.Lock()
	in.Drained = true
	t.mu.Unlock()
	t.wire.Send(c, t.base+slot, rt.Message{Retire: true})
}

// Drained implements elastic.Host.
func (t *Tier) Drained(c rt.Ctx, slot int) bool {
	in := t.occupant(slot)
	return in == nil || in.St.Drained(c)
}

// WaitDrained implements elastic.Host.
func (t *Tier) WaitDrained(c rt.Ctx, slot int) time.Duration {
	st := t.occupant(slot).St
	st.Wait(c)
	return st.Stats(c).Finished
}

// Dead implements fault.Host: the liveness oracle the shutdown sweep uses
// to tell an undetected crash from a healthy member about to drain.
func (t *Tier) Dead(c rt.Ctx, addr int) bool {
	in := t.occupant(addr - t.base)
	return in != nil && in.St.Killed(c)
}

// Evict implements fault.Host: fence the evicted occupant — kill it if the
// eviction was a false positive, so a still-live flush can never race the
// journal replay into duplicate deliveries — release its dead-mode
// receiver with the Retire message, and join every thread. The membership
// change and claim quiesce have already happened.
func (t *Tier) Evict(c rt.Ctx, addr int) {
	in := t.occupant(addr - t.base)
	if in == nil {
		return
	}
	if t.Scaler != nil {
		t.Scaler.Crashed(in.Slot)
	}
	if !in.St.Killed(c) {
		in.St.Kill(c)
	}
	if in.St.NeedsRetire(c) {
		t.wire.Send(c, addr, rt.Message{Retire: true})
	}
	in.St.Wait(c)
	t.mu.Lock()
	in.Drained, in.Evicted = true, true
	t.mu.Unlock()
}

// Recover implements fault.Host: the recovery reader replays the dead
// occupant's journal and orphan backlog straight to the consumers, where
// counted Fin accounting absorbs the re-sent blocks.
func (t *Tier) Recover(c rt.Ctx, addr int) (replayed, lost int64) {
	in := t.occupant(addr - t.base)
	if in == nil || in.journal == nil {
		return 0, 0
	}
	replayed, _, lost = staging.Replay(c, in.journal, in.spill, t.wire)
	t.mu.Lock()
	in.Replayed += replayed
	in.Lost += lost
	t.mu.Unlock()
	return replayed, lost
}

// Respawn implements fault.Host: a replacement on the freed slot,
// re-admitted to the membership. The monitor re-leases it and marks the
// address recovered.
func (t *Tier) Respawn(c rt.Ctx, addr int) bool {
	in := t.spawn(c, addr-t.base)
	t.mu.Lock()
	in.Recovered = true
	t.mu.Unlock()
	t.Pool.Add(addr)
	if t.Scaler != nil {
		t.Scaler.Respawned(in.Slot, in.St.Flows())
	}
	return true
}

// TenantLevel implements control.Host. A fleet tier's occupants never
// change, so this and the two below are lock-free table lookups.
func (t *Tier) TenantLevel(addr, tenant int) *flow.Level {
	return t.occupant(addr - t.base).St.TenantLevel(tenant)
}

// TenantSpilled implements control.Host.
func (t *Tier) TenantSpilled(addr, tenant int) int64 {
	return t.occupant(addr - t.base).St.TenantSpilled(tenant)
}

// SetTenantQuota implements control.Host.
func (t *Tier) SetTenantQuota(c rt.Ctx, addr, tenant, blocks int) {
	t.occupant(addr-t.base).St.SetTenantQuota(c, tenant, blocks)
}

// Admit admits a job to a fleet tier's control plane and remembers the
// tenant, so Shutdown can take the stagers out of its directory.
func (t *Tier) Admit(c rt.Ctx, spec control.JobSpec) (*control.Tenant, error) {
	tenant, err := t.Plane.Admit(c, spec)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.tenants = append(t.tenants, tenant)
	t.mu.Unlock()
	return tenant, nil
}

// Kill hard-stops the slot's occupant — fault injection, for
// Job.InjectStagerCrash and the simulator's kill injector. Its heartbeat
// stops with it, so the lease lapses and the failure detector takes over.
// It reports false when the fault plane is off, the slot is empty, or its
// occupant is already dead or drained.
func (t *Tier) Kill(c rt.Ctx, slot int) bool {
	if t == nil || !t.fcfg.Enabled {
		return false
	}
	in := t.occupant(slot)
	if in == nil || in.St.Killed(c) || in.St.Drained(c) {
		return false
	}
	in.St.Kill(c)
	return true
}

// Shutdown ends the tier, on the calling thread. Call it once no relay
// traffic can appear (a private job's producers have finished; a fleet's
// jobs have all released their tenants). The order matters: the failure
// detector stops first — its final forced sweep recovers kills whose lease
// never lapsed, the replays must land while the consumers are still
// counting, and no respawn may interleave with what follows; then every
// remaining stager leaves the membership, has its in-flight claims
// quiesced and gets the provably-last Retire; then every stager is joined,
// its flush delivered and its heartbeat exited. Every controller wakes on
// its Stop, so no step waits for a tick. A fixed rank-affine tier ends by
// itself on its producers' Fins and is only joined. A nil tier has nothing
// to end.
func (t *Tier) Shutdown(c rt.Ctx) {
	if t == nil {
		return
	}
	if t.Monitor != nil {
		t.Monitor.Stop(c)
	}
	switch {
	case t.Scaler != nil:
		t.Scaler.Stop(c)
	case t.Pool != nil:
		t.Pool.RetireAll(c, func(addr int) { t.Retire(c, addr-t.base) })
	case t.Plane != nil:
		t.Plane.Stop(c)
		t.mu.Lock()
		tenants := append([]*control.Tenant(nil), t.tenants...)
		t.mu.Unlock()
		// One stager at a time, each flushed before the next is retired.
		for slot := range t.slots {
			for _, tenant := range tenants {
				tenant.Directory().Remove(t.base + slot)
				tenant.Directory().Quiesce(c, t.base+slot)
			}
			t.Retire(c, slot)
			t.occupant(slot).St.Wait(c)
		}
	}
	for _, in := range t.Instances() {
		in.St.Wait(c)
	}
}

var (
	_ elastic.Host = (*Tier)(nil)
	_ fault.Host   = (*Tier)(nil)
	_ control.Host = (*Tier)(nil)
)
