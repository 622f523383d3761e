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
	spawned time.Duration    // when spawn started it: the start of its bill
}

// Tier is the in-transit staging tier in either of its shapes — a private
// pool behind a placement directory, optionally elastic and optionally
// fault-protected, or a fleet's shared tier — and the one implementation of
// the callbacks its controllers drive it through: elastic.Host, fault.Host
// and control.Host. Its controllers decide when a stager starts or leaves
// mid-run; the tier alone ends the rest at Shutdown and bills them all
// (NodeSeconds).
type Tier struct {
	// Pool is a private tier's stager directory, which producers resolve
	// through, Scaler the autoscaler, Monitor the failure detector, Plane a
	// fleet's control plane. Each is nil in the shapes that have none.
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

	// ranks is a shared tier's tenant table, the tenant id of every
	// producer rank a Join registered: copy-on-write under mu, so the
	// stagers' receivers read it (tenantOf) without a lock.
	ranks atomic.Pointer[[]int]
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

// start spawns the starting stagers in slot order, then the scaler or the
// control plane.
func (t *Tier) start(c rt.Ctx) {
	n := len(t.slots)
	if t.ecfg.Enabled {
		n = t.ecfg.MinStagers
	}
	if t.spec.Tenants == nil {
		// An epoch-versioned membership resolved per drained batch through
		// the placement policy, on the stagers' live occupancy gauges: an
		// eviction or a drain is a membership epoch, and the direct Fins'
		// declared totals are what let relayed and replayed blocks land
		// whichever member carried them.
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
		t.Plane = control.NewPlane(*t.spec.Tenants, addrs, t.spec.StagerBufferBlocks, t)
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
	if t.fcfg.Enabled {
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
		Managed:        true,
		Reduce:         t.spec.Core.Reduce,
		Pipeline:       t.spec.Core.ReducePipeline,
		Recorder:       t.spec.Core.Recorder,
		Recycler:       t.spec.Core.Recycler,
	}
	if ten := t.spec.Tenants; ten != nil {
		scfg.Tenants, scfg.Tenant = ten.MaxTenants, t.tenantOf
	}
	addr := t.base + slot
	in := &Instance{Slot: slot, spill: t.stores[slot], spawned: c.Now()}
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

// NodeSeconds is the tier's provisioned cost in stager-seconds, one rule
// for every shape: each instance is billed from its spawn to the moment its
// forwarder exited — the end of its flush, or, for a crashed one, the end
// of the send it was in when the crash took it. An instance still running
// is not billed yet, so the sum is complete once the tier has shut down.
func (t *Tier) NodeSeconds() float64 {
	var sum time.Duration
	for _, in := range t.Instances() {
		if end := in.St.Stats(nil).Finished; end > 0 {
			sum += end - in.spawned
		}
	}
	return sum.Seconds()
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

// register records an admitted tenant for Shutdown and maps its producers'
// global ranks [rankBase, rankBase+n) to it.
func (t *Tier) register(tenant *control.Tenant, rankBase, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tenants = append(t.tenants, tenant)
	var old []int
	if p := t.ranks.Load(); p != nil {
		old = *p
	}
	ranks := make([]int, max(len(old), rankBase+n))
	copy(ranks, old)
	for r := rankBase; r < rankBase+n; r++ {
		ranks[r] = tenant.ID()
	}
	t.ranks.Store(&ranks)
}

// tenantOf is the shared stagers' staging.Config.Tenant: the tenant whose
// Join registered the rank, 0 for a rank no Join registered.
func (t *Tier) tenantOf(rank int) int {
	if p := t.ranks.Load(); p != nil && rank >= 0 && rank < len(*p) {
		return (*p)[rank]
	}
	return 0
}

// TenantTotals sums tenant's account over every stager instance: the
// blocks the stagers admitted, those they spilled, and those resident in
// their memory now. Safe from any thread; final after Shutdown.
func (t *Tier) TenantTotals(tenant int) (in, spilled int64, resident int) {
	for _, inst := range t.Instances() {
		in += inst.St.TenantIn(tenant)
		spilled += inst.St.TenantSpilled(tenant)
		if lv := inst.St.TenantLevel(tenant); lv != nil {
			q, _ := lv.Get()
			resident += q
		}
	}
	return in, spilled, resident
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

// Shutdown ends the tier, on the calling thread: it is the one place a
// stager's life ends at shutdown, whatever the tier's shape. Call it once
// no relay traffic can appear (a private job's producers have finished; a
// fleet's jobs have all released their tenants). The order matters: the
// failure detector stops first — its final forced sweep recovers kills
// whose lease never lapsed, the replays must land while the consumers are
// still counting, and no respawn may interleave with what follows; then
// the scaler or the control plane, so membership stops changing; then, in
// slot order, every occupant not yet retired or evicted leaves every
// directory that lists it, has its in-flight claims quiesced and gets the
// provably-last Retire; then every instance is joined, its flush delivered
// and its heartbeat exited. Every controller wakes on its Stop, so no step
// waits for a tick. A nil tier has nothing to end.
func (t *Tier) Shutdown(c rt.Ctx) {
	if t == nil {
		return
	}
	if t.Monitor != nil {
		t.Monitor.Stop(c)
	}
	if t.Scaler != nil {
		t.Scaler.Stop(c)
	}
	if t.Plane != nil {
		t.Plane.Stop(c)
	}
	// The controllers have stopped, so the occupants are final.
	var dirs []*place.Directory // every directory that can list a stager
	if t.Pool != nil {
		dirs = append(dirs, t.Pool)
	}
	var live []int
	t.mu.Lock()
	for _, tenant := range t.tenants {
		dirs = append(dirs, tenant.Directory())
	}
	for slot := range t.slots {
		if in := t.occupant(slot); in != nil && !in.Drained {
			live = append(live, slot)
		}
	}
	t.mu.Unlock()
	for _, slot := range live {
		for _, dir := range dirs {
			dir.Remove(t.base + slot)
			dir.Quiesce(c, t.base+slot)
		}
		t.Retire(c, slot)
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
