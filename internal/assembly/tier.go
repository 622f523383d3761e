package assembly

import (
	"fmt"
	"math"
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
// accumulates instances as the autoscaler reuses it and the failure
// detector respawns into it; the latest is its occupant.
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
// fault-protected, or a fleet's shared tier. It owns every slot: one
// control thread runs the tier's policies over its one slot table — the
// failure detector, the autoscaler, a fleet's control plane — and the tier
// alone ends the stagers at Shutdown and bills them all (NodeSeconds).
type Tier struct {
	// Pool is a private tier's stager directory, which producers resolve
	// through, Plane a fleet's control plane. Each is nil in the shape that
	// has none.
	Pool  *place.Directory
	Plane *control.Plane

	pf     Platform
	spec   Spec
	base   int             // transport address of slot 0
	ecfg   elastic.Config  // defaults resolved; Enabled false unless the tier is elastic
	fcfg   fault.Config    // defaults resolved; Enabled false with the fault plane off
	wire   rt.Transport    // any-thread port: Retire messages, journal replay
	stores []rt.BlockStore // every reserved slot's spool partition

	// The control thread and its policies, in the order each wake runs
	// them. The fields below them are the thread's own.
	loop      *rt.Loop
	policies  []*policy
	respawns  []int         // replacements spawned per slot (fault plane only)
	lastAct   time.Duration // the autoscaler's last grow or drain
	lastSpill int64         // the pool's spill total at the last cooled step

	// slots holds each slot's occupant. Producers read it on their routing
	// path (level), so it is lock-free; mu guards the rest, is a leaf, and
	// is never held across a call that can park — uncontended, and so
	// deterministic, under the simulator's one-process-at-a-time engine.
	slots    []atomic.Pointer[Instance]
	mu       sync.Mutex
	all      []*Instance // every instance ever spawned, in spawn order
	tenants  []*control.Tenant
	scaling  []elastic.Event // the autoscaler's timeline
	failover []fault.Event   // the failure detector's timeline

	// recovering marks each slot whose recovery sequence runs, from the
	// sweep that evicts its occupant to the respawn or abandon; rlk guards
	// it, and recovered is broadcast as a sequence ends (Kill waits on it).
	rlk        rt.Lock
	recovered  rt.Cond
	recovering []bool

	// ranks is a shared tier's tenant table, the tenant id of every
	// producer rank a Join registered: copy-on-write under mu, so the
	// stagers' receivers read it (tenantOf) without a lock.
	ranks atomic.Pointer[[]int]
}

// policy is one of the control thread's periodic steps. Its next step is
// due one period after its last one ended.
type policy struct {
	period time.Duration
	due    time.Duration // 0 until the thread's first wait
	step   func(rt.Ctx)
}

// newTier sizes the tier and acquires every reserved slot's partition. It
// starts no thread; nil means the spec has no tier. A shared tier's
// membership belongs to its control plane, so it takes neither Fault nor
// Elastic.
func newTier(pf Platform, spec Spec) (*Tier, error) {
	if spec.Tenants != nil {
		switch {
		case spec.Fault.Enabled:
			return nil, fmt.Errorf("assembly: a shared tier takes no Fault: its control plane owns the membership")
		case spec.Elastic.Enabled:
			return nil, fmt.Errorf("assembly: a shared tier takes no Elastic: its control plane owns the membership")
		}
	}
	n := spec.Slots()
	if n == 0 {
		return nil, nil
	}
	t := &Tier{pf: pf, spec: spec, base: spec.Consumers}
	if spec.Elastic.Enabled {
		t.ecfg = spec.Elastic.WithDefaults(n)
		n = t.ecfg.MaxStagers
	}
	if spec.Fault.Enabled {
		t.fcfg = spec.Fault.WithDefaults()
		t.respawns = make([]int, n)
		t.recovering = make([]bool, n)
		t.rlk = pf.Env(Control, 0).NewLock("tier.recovery")
		t.recovered = t.rlk.NewCond("tier.recovered")
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

// start spawns the starting stagers in slot order, then builds a fleet's
// control plane. An elastic or a shared tier starts its control thread
// here, before any producer exists; a tier whose only policy is the failure
// detector starts it once they do (startControl).
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
	for slot := range addrs {
		addrs[slot] = t.base + slot
		t.spawn(c, slot)
		if t.Pool != nil {
			t.Pool.Add(addrs[slot])
		}
	}
	if t.spec.Tenants != nil {
		t.Plane = control.NewPlane(*t.spec.Tenants, addrs, t.spec.StagerBufferBlocks, t)
	}
	if t.Plane != nil || t.ecfg.Enabled {
		t.startControl()
	}
}

// startControl starts the tier's one control thread, unless it runs or the
// tier has no policy. Each wake runs the due policies in a fixed order: the
// failure detector's sweep and recoveries, the autoscaler's step, the
// control plane's reconcile. Each keeps its own period as a deadline, so a
// tier with one policy wakes exactly as a loop of that period would.
func (t *Tier) startControl() {
	if t.loop != nil {
		return
	}
	if t.fcfg.Enabled {
		t.policies = append(t.policies, &policy{period: t.fcfg.Heartbeat, step: t.detect})
	}
	if t.ecfg.Enabled {
		t.policies = append(t.policies, &policy{period: t.ecfg.Interval, step: t.scale})
	}
	if t.Plane != nil {
		t.policies = append(t.policies, &policy{period: control.Interval, step: t.Plane.Reconcile})
	}
	if len(t.policies) > 0 {
		t.loop = rt.StartPacedLoop(t.pf.Env(Control, 0), "tier.control", t.pace, t.tick, t.final)
	}
}

// pace is the wait until the earliest policy deadline. A policy that has
// not run yet is due one period after the thread started.
func (t *Tier) pace(c rt.Ctx) time.Duration {
	now := c.Now()
	wait := time.Duration(math.MaxInt64)
	for _, p := range t.policies {
		if p.due == 0 {
			p.due = now + p.period
		}
		wait = min(wait, p.due-now)
	}
	return wait
}

// tick runs every policy that is due, in order.
func (t *Tier) tick(c rt.Ctx) {
	for _, p := range t.policies {
		if c.Now() >= p.due {
			p.step(c)
			p.due = c.Now() + p.period
		}
	}
}

// final is the control thread's last pass, once Shutdown halts it: the
// failure detector's forced sweep. It evicts exactly the members that
// crashed, however young their lease — their journals must be replayed
// while the consumers still count their Fins — and respawns none: the run
// is ending.
func (t *Tier) final(c rt.Ctx) {
	if t.fcfg.Enabled {
		t.recover(c, t.Pool.EvictIf(func(addr int) bool { return t.occupant(addr - t.base).St.Killed(c) }), false)
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

// detect is the failure detector's step: every member whose lease lapsed
// is evicted and recovered.
func (t *Tier) detect(c rt.Ctx) { t.recover(c, t.Pool.Sweep(c.Now()), true) }

// recover runs the recovery sequence for each evicted address, in order,
// on the control thread: the claims already in flight drain (the dead
// receiver keeps absorbing them); the corpse is fenced — killed if the
// eviction was a false positive, so a still-live flush can never race the
// replay into duplicate deliveries — released by a Retire unless a drain
// already sent it one, and joined; the recovery reader replays its journal
// and orphan backlog straight to the consumers, where counted Fin
// accounting absorbs the re-sent blocks; and a replacement is respawned
// into the slot, re-admitted and marked recovered, until the slot's
// respawns are spent (then it is abandoned: it stays empty). At shutdown
// (respawn false) the sequence ends with the replay. The slot counts as
// under recovery from the sweep to the sequence's end.
func (t *Tier) recover(c rt.Ctx, addrs []int, respawn bool) {
	if len(addrs) == 0 {
		return
	}
	t.rlk.Lock(c)
	for _, addr := range addrs {
		t.recovering[addr-t.base] = true
	}
	t.rlk.Unlock(c)
	for _, addr := range addrs {
		slot := addr - t.base
		in := t.occupant(slot)
		t.logFailover(fault.Event{At: c.Now(), Kind: "evict", Addr: addr})
		t.Pool.Quiesce(c, addr)
		if !in.St.Killed(c) {
			in.St.Kill(c)
		}
		t.mu.Lock()
		retired := in.Drained
		t.mu.Unlock()
		if !retired && in.St.NeedsRetire(c) {
			t.wire.Send(c, addr, rt.Message{Retire: true})
		}
		in.St.Wait(c)
		t.mu.Lock()
		in.Drained, in.Evicted = true, true
		t.mu.Unlock()
		t.logScaling(c, "crash", slot, 0)

		replayed, _, lost := staging.Replay(c, in.journal, in.spill, t.wire)
		t.mu.Lock()
		in.Replayed += replayed
		in.Lost += lost
		t.mu.Unlock()
		t.logFailover(fault.Event{At: c.Now(), Kind: "replay", Addr: addr, Replayed: replayed, Lost: lost})

		if respawn {
			kind := "abandon"
			if t.respawns[slot] < fault.MaxRecoveries {
				t.respawns[slot]++
				next := t.spawn(c, slot)
				t.mu.Lock()
				next.Recovered = true
				t.mu.Unlock()
				t.Pool.Add(addr)
				t.Pool.MarkRecovered(addr)
				t.logScaling(c, "respawn", slot, 0)
				kind = "respawn"
			}
			t.logFailover(fault.Event{At: c.Now(), Kind: kind, Addr: addr})
		}
		t.rlk.Lock(c)
		t.recovering[slot] = false
		t.recovered.Broadcast()
		t.rlk.Unlock(c)
	}
}

// scale is the autoscaler's step: once the cooldown since its last action
// has run out, it observes the live members' gauges and grows or drains by
// at most one member. lastSpill advances only on cooled steps, so spill
// pressure that lands entirely inside a cooldown window accumulates into
// the next real decision instead of being consumed unseen. A recovery that
// the same wake started has ended before this step runs.
func (t *Tier) scale(c rt.Ctx) {
	now := c.Now()
	if t.lastAct != 0 && now-t.lastAct < t.ecfg.Cooldown {
		return
	}
	live := t.live()
	members := make([]*flow.StagerFlows, len(live))
	for i, in := range live {
		members[i] = in.St.Flows()
	}
	sig := flow.AggregatePool(members)
	spillDelta := sig.Spilled - t.lastSpill
	t.lastSpill = sig.Spilled
	switch t.ecfg.Decide(sig.Occupancy, spillDelta, len(live), true) {
	case 1:
		t.grow(c, now, sig.Occupancy)
	case -1:
		t.drain(c, live, sig.Occupancy)
	}
}

// live returns the occupants in service — spawned, neither retired nor
// evicted — in slot order.
func (t *Tier) live() []*Instance {
	t.mu.Lock()
	defer t.mu.Unlock()
	var live []*Instance
	for slot := range t.slots {
		if in := t.slots[slot].Load(); in != nil && !in.Drained {
			live = append(live, in)
		}
	}
	return live
}

// grow spawns a stager on the lowest free slot and admits it to the pool.
// A slot is free when it was never used, or when a drain retired its
// occupant and the occupant has flushed; one whose occupant crashed is the
// recovery sequence's until a replacement runs there. The endpoint is live
// before the membership change, so the first batch resolved to it finds a
// running receiver.
func (t *Tier) grow(c rt.Ctx, now time.Duration, occ float64) {
	for slot := range t.slots {
		if in := t.occupant(slot); in != nil {
			t.mu.Lock()
			retired := in.Drained
			t.mu.Unlock()
			if !retired || in.St.Killed(c) || !in.St.Drained(c) {
				continue
			}
		}
		t.spawn(c, slot)
		t.Pool.Add(t.base + slot)
		t.lastAct = now
		t.logScaling(c, "grow", slot, occ)
		return
	}
}

// drain retires the highest live member that has not crashed: out of the
// membership first, a quiesce for in-flight claims, then the Retire
// message — on every wire the last message the endpoint receives. The flush
// runs on; grow reuses the slot once it is done. A member killed mid-drain
// never releases its lease, so the detector recovers it like any crash.
func (t *Tier) drain(c rt.Ctx, live []*Instance, occ float64) {
	for i := len(live) - 1; i >= 0; i-- {
		in := live[i]
		if in.St.Killed(c) {
			continue
		}
		t.Pool.Remove(t.base + in.Slot)
		t.Pool.Quiesce(c, t.base+in.Slot)
		t.retire(c, in)
		t.lastAct = c.Now()
		t.logScaling(c, "drain", in.Slot, occ)
		return
	}
}

// retire sends the occupant the Retire control message, which the caller's
// membership change and quiesce have made the last message it receives.
func (t *Tier) retire(c rt.Ctx, in *Instance) {
	t.mu.Lock()
	in.Drained = true
	t.mu.Unlock()
	t.wire.Send(c, t.base+in.Slot, rt.Message{Retire: true})
}

// logScaling records a change of an elastic pool on its timeline, with the
// live pool size after it. Crashes and respawns are recoveries, not
// occupancy decisions: they carry no occupancy.
func (t *Tier) logScaling(c rt.Ctx, action string, slot int, occ float64) {
	if !t.ecfg.Enabled {
		return
	}
	size := len(t.live())
	t.mu.Lock()
	t.scaling = append(t.scaling, elastic.Event{At: c.Now(), Action: action, Slot: slot, PoolSize: size, Occupancy: occ})
	t.mu.Unlock()
}

func (t *Tier) logFailover(ev fault.Event) {
	t.mu.Lock()
	t.failover = append(t.failover, ev)
	t.mu.Unlock()
}

// Protected reports whether the fault plane is on.
func (t *Tier) Protected() bool { return t != nil && t.fcfg.Enabled }

// ScaleEvents returns an elastic tier's timeline in action order: the
// autoscaler's grows and drains, and the recovery sequence's crashes and
// respawns.
func (t *Tier) ScaleEvents() []elastic.Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]elastic.Event(nil), t.scaling...)
}

// FailoverEvents returns the failure detector's eviction and recovery
// timeline in step order.
func (t *Tier) FailoverEvents() []fault.Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]fault.Event(nil), t.failover...)
}

// Evictions is the number of members the failure detector evicted.
func (t *Tier) Evictions() (n int64) {
	for _, ev := range t.FailoverEvents() {
		if ev.Kind == "evict" {
			n++
		}
	}
	return n
}

// ReplayedBlocks is the number of blocks the recoveries re-forwarded from
// the dead members' journals and orphaned messages.
func (t *Tier) ReplayedBlocks() (n int64) {
	for _, ev := range t.FailoverEvents() {
		n += ev.Replayed
	}
	return n
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
// Job.InjectStagerCrash and the simulator's kill injectors. Its heartbeat
// stops with it, so the lease lapses and the failure detector takes over.
// On a slot under recovery it first waits for the recovery to end, then
// kills the replacement. It reports false when the fault plane is off, the
// slot was never used or has been abandoned, or its occupant is already
// dead or has flushed its drain.
func (t *Tier) Kill(c rt.Ctx, slot int) bool {
	if !t.Protected() || slot < 0 || slot >= len(t.slots) {
		return false
	}
	t.rlk.Lock(c)
	defer t.rlk.Unlock(c)
	for t.recovering[slot] {
		t.recovered.Wait(c)
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
// control thread stops first — its final pass recovers kills whose lease
// never lapsed, the replays must land while the consumers are still
// counting, and no respawn, grow or drain may interleave with what
// follows; then, in slot order, every occupant not yet retired or evicted
// leaves every directory that lists it, has its in-flight claims quiesced
// and gets the provably-last Retire; then every instance is joined, its
// flush delivered and its heartbeat exited. The control thread wakes on the
// stop, so no step waits for a tick. A nil tier has nothing to end.
func (t *Tier) Shutdown(c rt.Ctx) {
	if t == nil {
		return
	}
	if t.loop != nil {
		t.loop.Stop(c)
	}
	// The control thread has stopped, so the occupants are final.
	var dirs []*place.Directory // every directory that can list a stager
	if t.Pool != nil {
		dirs = append(dirs, t.Pool)
	}
	t.mu.Lock()
	for _, tenant := range t.tenants {
		dirs = append(dirs, tenant.Directory())
	}
	t.mu.Unlock()
	for _, in := range t.live() {
		for _, dir := range dirs {
			dir.Remove(t.base + in.Slot)
			dir.Quiesce(c, t.base+in.Slot)
		}
		t.retire(c, in)
	}
	for _, in := range t.Instances() {
		in.St.Wait(c)
	}
}

var _ control.Host = (*Tier)(nil)
