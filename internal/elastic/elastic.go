// Package elastic is the autoscaler subsystem of the Zipper staging tier: it
// grows and drains in-transit stager endpoints at runtime so the tier tracks
// the workload instead of being provisioned for its peak.
//
// It has three cooperating parts:
//
//   - Pool, an epoch-versioned stager directory — since the placement plane
//     landed it IS a place.Directory (the type below is an alias), so the
//     assignment rule is pluggable: rank-affine by default, or any
//     place.Policy (least-occupancy) the embedder configures. Producers
//     resolve their stager from the live membership per drained batch, so
//     membership changes compose with every flow.Router unchanged. The directory also counts
//     claimed-but-undelivered relay sends per endpoint, which is what makes
//     retirement race-free: Quiesce waits for the last straggler to deposit
//     before the Retire control message is sent, so Retire is provably the
//     final message a draining endpoint receives. That proof leans on a
//     transport whose Send returns only after the message is deposited in
//     the destination inbox — true of the in-process channel network and
//     the simulated network, NOT of the TCP transport (frames from
//     different connections interleave at the listener), so an elastic tier
//     must not span a TCP hop.
//
//   - The drain protocol (implemented by staging.Stager in Managed mode): a
//     draining stager stops admitting on Retire, flushes its in-memory queue
//     and its spill partition to the consumers, and exits. Stream
//     termination stays correct under any membership history because Fins
//     carry declared delivery totals (rt.Message.FinBlocks/FinDisk) and the
//     consumer holds its stream open until the counts are met.
//
//   - Scaler, the control loop. It observes the pool-wide flow gauges
//     (occupancy, forward rate, spill growth — flow.PoolSignals), applies a
//     hysteresis band plus a cooldown, and spawns or retires endpoints
//     through a platform Host, up to the reserved endpoint ceiling. The
//     loop is clocked purely by rt.Ctx time, so the identical controller
//     runs deterministically inside the discrete-event simulator and live
//     on the real machine.
package elastic

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"zipper/internal/flow"
	"zipper/internal/place"
	"zipper/internal/rt"
)

// Config tunes the elastic staging tier. The zero value of every field but
// Enabled selects the default noted on the field.
type Config struct {
	// Enabled turns the autoscaler on. Off, the staging tier is the fixed
	// pool of earlier revisions, byte-identical in behavior.
	Enabled bool
	// MinStagers is the floor the pool drains down to and the size it starts
	// at (default 1). MaxStagers is the growth ceiling (default: the number
	// of reserved stager endpoints).
	MinStagers, MaxStagers int
	// GrowOccupancy and DrainOccupancy bound the hysteresis band on
	// pool-wide buffer occupancy (fractions of summed capacity, defaults
	// 0.75 and 0.20): above the former — or whenever the tier spilled to
	// disk since the last tick — the pool grows; below the latter with no
	// spill pressure it drains. Between them the scaler holds.
	GrowOccupancy, DrainOccupancy float64
	// Interval is the control period (default 2ms — virtual time under the
	// simulator). Cooldown is the minimum time between scaling actions
	// (default 10×Interval); together with the hysteresis band it keeps the
	// pool from thrashing on transients.
	Interval, Cooldown time.Duration
}

// WithDefaults resolves zero fields against the reserved endpoint ceiling.
func (c Config) WithDefaults(ceiling int) Config {
	if c.MinStagers <= 0 {
		c.MinStagers = 1
	}
	if c.MaxStagers <= 0 || c.MaxStagers > ceiling {
		c.MaxStagers = ceiling
	}
	if c.MinStagers > c.MaxStagers {
		c.MinStagers = c.MaxStagers
	}
	if c.GrowOccupancy <= 0 {
		c.GrowOccupancy = 0.75
	}
	if c.DrainOccupancy <= 0 {
		c.DrainOccupancy = 0.20
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Millisecond
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 10 * c.Interval
	}
	return c
}

// Validate rejects inconsistent elastic bounds against the reserved stager
// ceiling, before defaults are applied. It reports nothing when disabled.
func (c Config) Validate(ceiling int) error {
	if !c.Enabled {
		return nil
	}
	if ceiling < 1 {
		return errors.New("elastic staging needs Stagers ≥ 1 reserved endpoints")
	}
	if c.MinStagers < 0 || c.MaxStagers < 0 {
		return fmt.Errorf("elastic stager bounds must be ≥ 0 (0 selects the default), got min %d max %d",
			c.MinStagers, c.MaxStagers)
	}
	if c.MaxStagers > 0 && c.MinStagers > c.MaxStagers {
		return fmt.Errorf("elastic MinStagers (%d) exceeds MaxStagers (%d)", c.MinStagers, c.MaxStagers)
	}
	if c.MaxStagers > ceiling {
		return fmt.Errorf("elastic MaxStagers (%d) exceeds the reserved Stagers ceiling (%d)",
			c.MaxStagers, ceiling)
	}
	if c.MinStagers > ceiling {
		return fmt.Errorf("elastic MinStagers (%d) exceeds the reserved Stagers ceiling (%d)",
			c.MinStagers, ceiling)
	}
	if c.GrowOccupancy < 0 || c.GrowOccupancy > 1 || c.DrainOccupancy < 0 || c.DrainOccupancy > 1 {
		return fmt.Errorf("elastic occupancy targets must lie in [0,1], got grow %v drain %v",
			c.GrowOccupancy, c.DrainOccupancy)
	}
	if c.GrowOccupancy > 0 && c.DrainOccupancy > 0 && c.DrainOccupancy >= c.GrowOccupancy {
		return fmt.Errorf("elastic DrainOccupancy (%v) must lie below GrowOccupancy (%v): the hysteresis band would be empty",
			c.DrainOccupancy, c.GrowOccupancy)
	}
	if c.Interval < 0 || c.Cooldown < 0 {
		return errors.New("elastic time constants must be ≥ 0 (0 selects the default)")
	}
	return nil
}

// Decide is the scaler's per-tick verdict, exposed as a pure function so the
// hysteresis band is unit-testable without a platform: +1 grow, -1 drain, 0
// hold. occ is the pool-wide occupancy fraction, spillDelta the blocks the
// tier spilled since the last tick, size the live pool size, and cooled
// whether the cooldown since the last action has elapsed. The receiver must
// have defaults resolved (WithDefaults).
func (c Config) Decide(occ float64, spillDelta int64, size int, cooled bool) int {
	if !cooled {
		return 0
	}
	if (occ >= c.GrowOccupancy || spillDelta > 0) && size < c.MaxStagers {
		return 1
	}
	if occ <= c.DrainOccupancy && spillDelta == 0 && size > c.MinStagers {
		return -1
	}
	return 0
}

// Pool is the epoch-versioned stager directory: the live membership of the
// elastic staging tier plus the in-flight relay accounting that makes
// retirement race-free. It is the placement plane's place.Directory — the
// generalization extracted from the original elastic pool — and implements
// core.StagerDirectory.
type Pool = place.Directory

// NewPool returns an empty rank-affine pool; the embedder Adds the initial
// membership. Pools resolving through another assignment policy (or fed by
// per-endpoint occupancy gauges) are built directly with place.New.
func NewPool() *Pool { return place.New(place.RankAffine(), nil) }

// Host is the platform half of the scaler: it owns the reserved endpoint
// slots and knows how to build a stager on one (fresh goroutine set on the
// real machine, fresh engine processes in the simulator) and how to deliver
// the Retire control message. Slot s corresponds to transport address
// base+s. Every method is called from the scaler's thread only.
type Host interface {
	// Spawn builds and starts a managed stager endpoint on reserved slot
	// `slot` and returns its flow gauges for pool-wide observation. It
	// cannot fail: everything a slot needs that could (its spill partition)
	// was acquired when the slot was reserved.
	Spawn(c rt.Ctx, slot int) *flow.StagerFlows
	// Retire sends the Retire control message to slot's endpoint.
	Retire(c rt.Ctx, slot int)
	// Drained reports whether slot's endpoint has finished flushing after
	// Retire (its threads exited); the slot is then reusable.
	Drained(c rt.Ctx, slot int) bool
	// WaitDrained blocks until Drained would report true and every one of
	// the endpoint's threads, its heartbeat included, has exited, and
	// returns the instant the endpoint finished its flush — the end of its
	// provisioned lifetime, as a fixed pool bills it.
	WaitDrained(c rt.Ctx, slot int) time.Duration
}

// Event is one scaling action on the pool, for the Job.Stats timeline and
// the zippertrace pool-size view. The fault plane contributes "crash"
// (eviction took the slot's endpoint) and "respawn" (a replacement is
// live) events with zero Occupancy — they are recoveries, not occupancy
// decisions.
type Event struct {
	At        time.Duration // platform time of the action
	Action    string        // "grow", "drain", "crash", or "respawn"
	Slot      int           // reserved endpoint slot acted on
	PoolSize  int           // live pool size after the action
	Occupancy float64       // pool-wide occupancy that triggered it
}

// Scaler is the elastic control loop. Build it with NewScaler, Start it
// once the initial pool members are live, and Stop it after the producers
// have finished; Stop wakes the loop to retire every remaining endpoint and
// returns when the tier has fully flushed.
//
// Concurrency: the scaler thread is the only mutator of the pool-state
// fields; the mutex exists for the cross-thread readers (Events,
// NodeSeconds, PoolSize, the fault plane's notifications) and is held only
// for quick state access — NEVER across an operation that can park the
// thread on a platform primitive (Quiesce, Host calls, sleeps). A parked
// holder of a raw mutex would block any other runtime thread that touches
// it, and inside the discrete-event engine that stalls the entire
// simulation: the engine resumes one process at a time and a raw mutex wait
// never parks.
type Scaler struct {
	env  rt.Env
	cfg  Config
	pool *Pool
	host Host
	base int // transport address of slot 0
	loop *rt.Loop

	mu        sync.Mutex
	live      map[int]*flow.StagerFlows // slot → gauges of the running endpoint
	draining  map[int]bool              // Retire sent, flush not yet confirmed
	free      []int                     // reusable slots, ascending
	spawnedAt map[int]time.Duration
	events    []Event
	nodeTime  time.Duration // summed provisioned lifetime of retired endpoints
	lastAct   time.Duration
	lastSpill int64
	pending   []poolChange // fault-plane notifications awaiting the scaler thread

	// onResize (set before Start via SetOnResize) fires after every
	// pool-membership change; lastEpoch is the pool epoch it last fired
	// for. Scaler thread only (single-writer rule) — epoch comparison also
	// catches membership edits the fault plane made directly on the pool.
	onResize  func(c rt.Ctx, members []int)
	lastEpoch int64

	// growOnly (set before Start via GrowOnly) drops the drain verdict.
	growOnly bool
}

// poolChange is one fault-plane notification: fl == nil records a crash
// (the slot's endpoint was evicted), fl != nil a respawn (a replacement is
// live on the slot with these gauges). The fault monitor posts them from
// its own thread; the scaler thread applies them at the top of its next
// iteration, preserving the single-writer rule for the pool-state fields.
type poolChange struct {
	slot int
	fl   *flow.StagerFlows
}

// NewScaler wires a control loop over pool and host. initial holds the flow
// gauges of the already-running endpoints on slots 0..len(initial)-1 (the
// embedder builds the starting pool and has added their addresses to the
// pool); slots len(initial)..MaxStagers-1 start free. cfg must already have
// its defaults resolved via WithDefaults — an unresolved config has no
// ceiling (MaxStagers 0) and a zero Interval, neither of which NewScaler
// repairs.
func NewScaler(env rt.Env, cfg Config, pool *Pool, host Host, base int, initial []*flow.StagerFlows) *Scaler {
	s := &Scaler{
		env: env, cfg: cfg, pool: pool, host: host, base: base,
		live:      map[int]*flow.StagerFlows{},
		draining:  map[int]bool{},
		spawnedAt: map[int]time.Duration{},
	}
	for slot, fl := range initial {
		s.live[slot] = fl
		s.spawnedAt[slot] = 0
	}
	for slot := len(initial); slot < cfg.MaxStagers; slot++ {
		s.free = append(s.free, slot)
	}
	s.lastEpoch = pool.Epoch()
	return s
}

// SetOnResize registers a hook invoked on the scaler thread after every
// pool-membership change — grow, drain, crash, respawn — with the live
// membership (transport addresses, ascending). It is the bridge to the
// multi-job control plane: a fleet passes control.Plane.Resize here so
// tenant fair shares are recomputed whenever the shared pool changes size.
// The hook may park (it runs with no scaler mutex held); it must not call
// back into the scaler. Call before Start.
func (s *Scaler) SetOnResize(fn func(c rt.Ctx, members []int)) {
	s.onResize = fn
}

// GrowOnly removes the scale-down verdict: the pool only grows (and
// respawns crashed slots) until shutdown. A fault-protected tier asks for
// it — draining a member that may already be dead is unsound without
// fencing (its Retire would never be consumed and the quiesce handshake
// would wedge against a crashed receiver), so fault mode trades mid-run
// drains for crash safety. Call before Start.
func (s *Scaler) GrowOnly() { s.growOnly = true }

// Start launches the control loop as a runtime thread: a tick every
// Interval, the shutdown on Stop.
func (s *Scaler) Start() {
	s.loop = rt.StartLoop(s.env, "elastic.scaler", s.cfg.Interval, s.tick, s.shutdown)
}

// Crashed tells the scaler that slot's endpoint was evicted by the failure
// detector: the slot leaves the live set (its node-time is booked) without
// entering the free list, so grow can never hand it out while the recovery
// path owns it. Safe to call from any thread.
func (s *Scaler) Crashed(slot int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = append(s.pending, poolChange{slot: slot})
}

// Respawned tells the scaler that the recovery path spawned a replacement
// endpoint on a crashed slot: it rejoins the live set with the new gauges
// and its provisioned lifetime restarts. No cooldown is charged — a
// respawn is recovery, not a control decision. Safe to call from any
// thread.
func (s *Scaler) Respawned(slot int, fl *flow.StagerFlows) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = append(s.pending, poolChange{slot: slot, fl: fl})
}

// applyPending replays the fault plane's crash/respawn notifications on
// the scaler thread, in posting order, and records them on the scaling
// timeline.
func (s *Scaler) applyPending(now time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pc := range s.pending {
		if pc.fl == nil {
			if _, ok := s.live[pc.slot]; !ok {
				continue
			}
			delete(s.live, pc.slot)
			s.nodeTime += now - s.spawnedAt[pc.slot]
			delete(s.spawnedAt, pc.slot)
			s.events = append(s.events, Event{At: now, Action: "crash", Slot: pc.slot, PoolSize: len(s.live)})
			continue
		}
		s.live[pc.slot] = pc.fl
		s.spawnedAt[pc.slot] = now
		s.events = append(s.events, Event{At: now, Action: "respawn", Slot: pc.slot, PoolSize: len(s.live)})
	}
	s.pending = nil
}

// tick is one control period: reap flushed drains, observe the pool, and
// apply at most one scaling action. lastSpill advances only on cooled
// ticks, so spill pressure that lands entirely inside a cooldown window
// accumulates into the next real decision instead of being consumed unseen.
// Reads of the pool-state fields here are lock-free by the single-writer
// rule (this thread is the only mutator).
func (s *Scaler) tick(c rt.Ctx) {
	now := c.Now()
	s.applyPending(now)
	s.reap(c, now)
	if !(s.lastAct == 0 || now-s.lastAct >= s.cfg.Cooldown) {
		s.notifyResize(c) // fault-plane edits surface even inside a cooldown
		return
	}
	sig := s.observe(now)
	spillDelta := sig.Spilled - s.lastSpill
	s.lastSpill = sig.Spilled
	switch s.cfg.Decide(sig.Occupancy, spillDelta, len(s.live), true) {
	case 1:
		s.grow(c, now, sig.Occupancy)
	case -1:
		if !s.growOnly {
			s.drain(c, now, sig.Occupancy)
		}
	}
	s.notifyResize(c)
}

// notifyResize fires the SetOnResize hook when the pool membership changed
// since the last notification — whether this tick's grow/drain did it or
// the fault plane edited the pool directly (epoch comparison sees both).
// Runs on the scaler thread with no mutex held: the hook may park.
func (s *Scaler) notifyResize(c rt.Ctx) {
	if s.onResize == nil {
		return
	}
	if ep := s.pool.Epoch(); ep != s.lastEpoch {
		s.lastEpoch = ep
		s.onResize(c, s.pool.Members())
	}
}

// observe aggregates the live members' gauges.
func (s *Scaler) observe(now time.Duration) flow.PoolSignals {
	members := make([]*flow.StagerFlows, 0, len(s.live))
	for _, slot := range s.liveSlots() {
		members = append(members, s.live[slot])
	}
	return flow.AggregatePool(now, members)
}

// liveSlots returns the live slots ascending (map order is not
// deterministic; the scaler's decisions must be).
func (s *Scaler) liveSlots() []int {
	slots := make([]int, 0, len(s.live))
	for slot := range s.live {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	return slots
}

// grow spawns a stager on the lowest free slot and admits it to the pool.
// The endpoint is live before the membership change, so the first batch
// resolved to it finds a running receiver.
func (s *Scaler) grow(c rt.Ctx, now time.Duration, occ float64) {
	if len(s.free) == 0 {
		return
	}
	slot := s.free[0]
	fl := s.host.Spawn(c, slot) // may park: no mutex held
	s.mu.Lock()
	defer s.mu.Unlock()
	s.free = s.free[1:]
	s.live[slot] = fl
	s.spawnedAt[slot] = now
	s.pool.Add(s.base + slot)
	s.lastAct = now
	s.events = append(s.events, Event{At: now, Action: "grow", Slot: slot, PoolSize: len(s.live), Occupancy: occ})
}

// drain retires the highest live slot: out of the membership first, a
// quiesce for in-flight claims, then the Retire message — provably the last
// message the endpoint receives. The flush runs concurrently; the slot is
// reaped (and its node-time booked) once the stager reports Drained.
func (s *Scaler) drain(c rt.Ctx, now time.Duration, occ float64) {
	slots := s.liveSlots()
	if len(slots) == 0 {
		return
	}
	slot := slots[len(slots)-1]
	s.pool.Remove(s.base + slot)
	s.pool.Quiesce(c, s.base+slot) // may park: no mutex held
	s.host.Retire(c, slot)         // may park: no mutex held
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.live, slot)
	s.draining[slot] = true
	s.lastAct = c.Now()
	s.events = append(s.events, Event{At: c.Now(), Action: "drain", Slot: slot, PoolSize: len(s.live), Occupancy: occ})
}

// reap returns flushed drained slots to the free list and books their
// provisioned lifetime. Drained is polled in slot order so the engine's
// event sequence stays deterministic.
func (s *Scaler) reap(c rt.Ctx, now time.Duration) {
	var flushed []int
	for _, slot := range s.drainingSlots() {
		if s.host.Drained(c, slot) { // may park: no mutex held
			flushed = append(flushed, slot)
		}
	}
	if len(flushed) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, slot := range flushed {
		s.freeLocked(slot, now)
	}
}

// drainingSlots returns the slots whose Retire was sent, ascending.
func (s *Scaler) drainingSlots() []int {
	slots := make([]int, 0, len(s.draining))
	for slot := range s.draining {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	return slots
}

// freeLocked books a flushed slot's provisioned lifetime up to now and
// returns the slot to the free list.
func (s *Scaler) freeLocked(slot int, now time.Duration) {
	delete(s.draining, slot)
	s.nodeTime += now - s.spawnedAt[slot]
	delete(s.spawnedAt, slot)
	s.free = append(s.free, slot)
	sort.Ints(s.free)
}

// shutdown retires every remaining endpoint (teardown, not control
// decisions — no events are logged), then joins every retiring endpoint in
// slot order, booking each one's lifetime up to the end of its own flush.
func (s *Scaler) shutdown(c rt.Ctx) {
	s.applyPending(c.Now())
	for _, slot := range s.liveSlots() {
		s.pool.Remove(s.base + slot)
		s.pool.Quiesce(c, s.base+slot)
		s.host.Retire(c, slot)
		s.mu.Lock()
		delete(s.live, slot)
		s.draining[slot] = true
		s.mu.Unlock()
	}
	for _, slot := range s.drainingSlots() {
		end := s.host.WaitDrained(c, slot) // may park: no mutex held
		s.mu.Lock()
		s.freeLocked(slot, end)
		s.mu.Unlock()
	}
}

// Stop wakes the control loop to retire every remaining endpoint and returns
// when the whole tier has flushed. Call it after Start, and only once all
// producers have finished (no new relay traffic can appear); the consumers'
// counted termination then completes from the flushed deliveries. The
// retirement work runs on the scaler's own thread, so Stop never contends
// with a parked mutex holder.
func (s *Scaler) Stop(c rt.Ctx) { s.loop.Stop(c) }

// Events returns the scaling timeline in action order.
func (s *Scaler) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// NodeSeconds returns the summed provisioned lifetime of every stager
// endpoint the scaler managed, in seconds — the resource-cost metric the
// elastic tier is judged on against a fixed pool (which pays pool-size ×
// run-length). It is complete only after Stop.
func (s *Scaler) NodeSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodeTime.Seconds()
}

// PoolSize returns the current live pool size.
func (s *Scaler) PoolSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live)
}
