// Package fault is the survivable data plane's control loop: a failure
// detector plus recovery sequencer over a leased placement directory.
//
// Every fault-enabled stager holds a lease in the place.Directory, renewed
// by heartbeats clocked on rt.Ctx virtual time — so the simulated and real
// platforms share one deterministic detector. The Monitor sweeps the lease
// table every heartbeat interval; a member whose lease lapsed is evicted
// from the membership (a new epoch — producers re-resolve their claims
// through the placement policy automatically), fenced (the occupant is
// killed if it is somehow still moving, so a false-positive eviction can
// never race a live flush into duplicates), drained of its in-flight
// claims, and retired. The recovery reader then replays what the dead
// endpoint still queued, through its journal — resident blocks from memory,
// overflowed ones from the log in its spool partition, disk refs — and the
// orphan messages its dead receiver absorbed, so the producers' direct
// Fins, which declare their totals, balance without consumers ever learning
// a relay died. Finally a replacement is respawned into the freed slot (up
// to maxRecoveries per slot) and re-leased.
//
// At Stop the Monitor runs one forced sweep with the host's liveness
// oracle: kills injected so late that their TTL never lapsed are still
// recovered (no respawn — the run is ending), while healthy members about
// to drain are left alone.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"zipper/internal/place"
	"zipper/internal/rt"
)

// Config tunes the failure detector. The zero value of every field but
// Enabled selects the default noted on the field.
type Config struct {
	// Enabled turns the fault plane on: leases, heartbeats, the eviction
	// monitor, and write-ahead journaling on every managed stager.
	Enabled bool
	// Heartbeat is the lease renewal period and the detector's sweep
	// interval (default 500µs — virtual time under the simulator).
	Heartbeat time.Duration
	// LeaseTTL is how long a member may go without a heartbeat before it
	// is evicted (default 4×Heartbeat). Must exceed Heartbeat: a TTL inside
	// the renewal period would evict healthy members between beats.
	LeaseTTL time.Duration
}

// maxRecoveries caps how many replacement endpoints may be respawned into
// one slot; an eviction past it is replayed and the slot stays empty.
const maxRecoveries = 3

// WithDefaults resolves zero fields.
func (c Config) WithDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 500 * time.Microsecond
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 4 * c.Heartbeat
	}
	return c
}

// Validate rejects inconsistent fault timings, before defaults are
// applied. It reports nothing when disabled.
func (c Config) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.Heartbeat < 0 || c.LeaseTTL < 0 {
		return errors.New("fault time constants must be ≥ 0 (0 selects the default)")
	}
	if c.LeaseTTL > 0 {
		hb := c.Heartbeat
		if hb == 0 {
			hb = 500 * time.Microsecond
		}
		if c.LeaseTTL <= hb {
			return fmt.Errorf("fault LeaseTTL (%v) must exceed the heartbeat interval (%v): a lease shorter than its renewal period evicts healthy members", c.LeaseTTL, hb)
		}
	}
	return nil
}

// Event is one entry on the eviction/recovery timeline.
type Event struct {
	At   time.Duration // platform time of the step
	Kind string        // "evict", "replay", "respawn", or "abandon"
	Addr int           // evicted endpoint's transport address
	// Replay outcome ("replay" events): blocks re-forwarded and blocks
	// declared unrecoverable.
	Replayed, Lost int64
}

// Host is the platform half of the monitor: it owns the endpoint
// instances behind the directory addresses and knows how to fence, drain,
// replay, and rebuild them. All methods are called from the monitor's
// thread only, and always in the Evict → Recover → Respawn order per
// eviction.
type Host interface {
	// Dead reports whether the endpoint at addr crashed (was killed) — the
	// liveness oracle the shutdown sweep uses to tell an undetected crash
	// from a healthy member about to drain.
	Dead(c rt.Ctx, addr int) bool
	// Evict completes the evicted endpoint's shutdown: fence it (kill the
	// occupant if it is somehow still live, so a false-positive eviction
	// cannot race a healthy flush into duplicate deliveries), deliver the
	// Retire that releases its dead-mode receiver, and wait for every
	// thread to exit. The directory membership change and claim quiesce
	// have already happened when Evict is called.
	Evict(c rt.Ctx, addr int)
	// Recover replays what the dead occupant still queued and its orphan
	// backlog to the consumers. Returns blocks re-forwarded and blocks
	// declared unrecoverable.
	Recover(c rt.Ctx, addr int) (replayed, lost int64)
	// Respawn builds a replacement endpoint on the freed address and
	// re-admits it to the directory membership. Returns false when the
	// platform cannot (the slot then stays empty).
	Respawn(c rt.Ctx, addr int) bool
}

// Monitor is the failure detector's control loop. Build it with
// NewMonitor once the initial members are leased, Start it, and Stop it
// after the producers have finished but before the staging tier is
// retired — the final forced sweep must run while consumers are still
// counting.
type Monitor struct {
	env  rt.Env
	cfg  Config // defaults resolved
	dir  *place.Directory
	host Host

	loop *rt.Loop

	mu        sync.Mutex
	attempts  map[int]int // respawns used per address
	events    []Event
	evictions int64 // leases expired and swept from the membership
	replayed  int64 // blocks re-forwarded from dead stagers' journals
}

// NewMonitor wires a failure detector over dir and host. cfg must already
// have its defaults resolved via WithDefaults.
func NewMonitor(env rt.Env, cfg Config, dir *place.Directory, host Host) *Monitor {
	return &Monitor{env: env, cfg: cfg, dir: dir, host: host, attempts: map[int]int{}}
}

// Start launches the detector loop as a runtime thread: a sweep every
// heartbeat, the shutdown sweep on Stop.
func (m *Monitor) Start() {
	m.loop = rt.StartLoop(m.env, "fault.monitor", m.cfg.Heartbeat, m.sweep, m.shutdownSweep)
}

// sweep evicts the members whose lease lapsed and recovers each.
func (m *Monitor) sweep(c rt.Ctx) {
	for _, addr := range m.dir.Sweep(c.Now()) {
		m.recover(c, addr, true)
	}
}

// shutdownSweep evicts exactly the members that actually crashed, however
// young their lease — their journals must be replayed before consumers can
// balance their counted Fins — and respawns none: the run is ending.
func (m *Monitor) shutdownSweep(c rt.Ctx) {
	for _, addr := range m.dir.EvictIf(func(addr int) bool { return m.host.Dead(c, addr) }) {
		m.recover(c, addr, false)
	}
}

// recover runs the full eviction → replay → respawn sequence for one
// evicted address. Evictions are processed serially, so at most one
// endpoint instance ever occupies an address at a time.
func (m *Monitor) recover(c rt.Ctx, addr int, respawn bool) {
	m.mu.Lock()
	m.evictions++
	m.mu.Unlock()
	m.event(Event{At: c.Now(), Kind: "evict", Addr: addr})

	// The membership change happened in the sweep; drain the claims that
	// were already in flight (the dead receiver keeps absorbing them), then
	// let the host fence and join the corpse.
	m.dir.Quiesce(c, addr)
	m.host.Evict(c, addr)

	replayed, lost := m.host.Recover(c, addr)
	m.mu.Lock()
	m.replayed += replayed
	m.mu.Unlock()
	m.event(Event{At: c.Now(), Kind: "replay", Addr: addr, Replayed: replayed, Lost: lost})

	if !respawn {
		return
	}
	m.mu.Lock()
	used := m.attempts[addr]
	if used < maxRecoveries {
		m.attempts[addr]++
	}
	m.mu.Unlock()
	if used >= maxRecoveries {
		m.event(Event{At: c.Now(), Kind: "abandon", Addr: addr})
		return
	}
	if !m.host.Respawn(c, addr) {
		m.event(Event{At: c.Now(), Kind: "abandon", Addr: addr})
		return
	}
	m.dir.Lease(addr, m.cfg.LeaseTTL, c.Now())
	m.dir.MarkRecovered(addr)
	m.event(Event{At: c.Now(), Kind: "respawn", Addr: addr})
}

func (m *Monitor) event(ev Event) {
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
}

// Stop wakes the detector at once to run its final forced sweep —
// recovering kills whose TTL never lapsed, without respawning — and returns
// when that sweep is done. Call it after the producers have finished and
// before the staging tier is retired.
func (m *Monitor) Stop(c rt.Ctx) { m.loop.Stop(c) }

// Events returns the eviction/recovery timeline in step order.
func (m *Monitor) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// Evictions returns the lifetime eviction count.
func (m *Monitor) Evictions() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictions
}

// ReplayedBlocks returns the lifetime count of blocks the recovery reader
// re-forwarded (journal replays plus orphaned-message blocks).
func (m *Monitor) ReplayedBlocks() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.replayed
}
