package place

import (
	"sort"
	"time"
)

// The liveness layer: directory membership stops being an immortality
// assumption and becomes a lease. A managed endpoint holds a lease renewed
// by heartbeats; the failure detector (assembly.Tier) periodically Sweeps
// the lease table and evicts members whose lease lapsed — Remove from the
// membership (a new epoch, so every subsequent Claim re-resolves through
// the policy), mark the address Evicted, and hand it to the recovery path.
// Lease state is deliberately decoupled from membership: a planned drain
// Removes the member first and releases the lease only when the endpoint's
// last thread exits (Unlease), so a healthy drain never reads as a crash,
// while a crashed endpoint stops heartbeating, never Unleases, and is
// caught by TTL expiry exactly like a fleet-registry member.
//
// All times are rt.Ctx virtual time, so the simulated and real platforms
// share one deterministic failure detector.

// Health is the liveness state of a leased endpoint address.
type Health int

const (
	// Live means the lease is current: a heartbeat arrived within TTL/2.
	Live Health = iota
	// Suspect means the lease is stale but not expired: more than TTL/2
	// has passed since the last heartbeat.
	Suspect
	// Evicted means the lease expired and the member was swept from the
	// membership; its in-flight work is owed to the recovery path.
	Evicted
	// Recovered means a replacement endpoint was respawned into the
	// address after an eviction; the state is sticky so stats keep
	// showing that the slot failed over.
	Recovered
)

// String names the health state for stats and traces.
func (h Health) String() string {
	switch h {
	case Live:
		return "live"
	case Suspect:
		return "suspect"
	case Evicted:
		return "evicted"
	case Recovered:
		return "recovered"
	default:
		return "unknown"
	}
}

// lease is one address's liveness record.
type lease struct {
	ttl    time.Duration
	beat   time.Duration // virtual time of the last heartbeat (or grant)
	health Health
}

// Lease grants (or re-grants) the endpoint at addr a liveness lease with
// the given TTL, dated now. Call it when the endpoint is spawned; its
// heartbeats then renew via Beat. Re-leasing an address after an eviction
// clears Evicted (the respawn path additionally marks it Recovered).
func (d *Directory) Lease(addr int, ttl, now time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.leases == nil {
		d.leases = map[int]*lease{}
	}
	h := Live
	if prev, ok := d.leases[addr]; ok && prev.health == Recovered {
		h = Recovered
	}
	d.leases[addr] = &lease{ttl: ttl, beat: now, health: h}
}

// Beat renews addr's lease as of now. A Suspect member beats back to Live;
// Recovered is sticky. Beating an unleased (or already evicted) address is
// a no-op — the heartbeat lost the race against the sweep.
func (d *Directory) Beat(addr int, now time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.leases[addr]
	if !ok {
		return
	}
	l.beat = now
	if l.health == Suspect {
		l.health = Live
	}
}

// Unlease releases addr's lease without eviction — the planned-drain exit.
// The endpoint's last exiting thread calls it, so by the time a drain's
// Retire handshake completes the failure detector can no longer mistake
// the silence for a crash.
func (d *Directory) Unlease(addr int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.leases, addr)
}

// Sweep is the failure detector's clock tick: every leased address whose
// lease has expired as of now is evicted — removed from the membership
// (bumping the epoch so claims re-resolve), marked Evicted, counted, and
// its lease dropped. Addresses past TTL/2 but not yet expired are marked
// Suspect. The expired addresses are returned in ascending order for the
// recovery path to process deterministically.
func (d *Directory) Sweep(now time.Duration) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var expired []int
	for addr, l := range d.leases {
		age := now - l.beat
		switch {
		case age > l.ttl:
			expired = append(expired, addr)
		case age > l.ttl/2 && l.health == Live:
			l.health = Suspect
		}
	}
	sort.Ints(expired)
	for _, addr := range expired {
		d.evictLocked(addr)
	}
	return expired
}

// EvictIf force-expires the leases `dead` reports as crashed, regardless of
// TTL: the shutdown sweep. At end of run a kill whose TTL has not lapsed
// yet must still be recovered before consumers can balance their counted
// Fins, while healthy members that are merely about to drain must not be
// disturbed — so the caller supplies the liveness oracle. Evicted addresses
// return ascending.
func (d *Directory) EvictIf(dead func(addr int) bool) []int {
	d.mu.Lock()
	var doomed []int
	for addr := range d.leases {
		doomed = append(doomed, addr)
	}
	d.mu.Unlock()
	sort.Ints(doomed)
	var evicted []int
	for _, addr := range doomed {
		if !dead(addr) {
			continue
		}
		d.mu.Lock()
		if _, ok := d.leases[addr]; ok {
			d.evictLocked(addr)
			evicted = append(evicted, addr)
		}
		d.mu.Unlock()
	}
	return evicted
}

// evictLocked removes addr from membership (if present), records the
// eviction, and drops the lease.
func (d *Directory) evictLocked(addr int) {
	for i, m := range d.members {
		if m == addr {
			d.members = append(d.members[:i], d.members[i+1:]...)
			d.epoch++
			break
		}
	}
	d.evictions++
	delete(d.leases, addr)
	if d.health == nil {
		d.health = map[int]Health{}
	}
	d.health[addr] = Evicted
}

// MarkRecovered records that a replacement endpoint now occupies addr;
// Health reports Recovered (sticky) from here on. Call it after the
// respawned endpoint has been re-Leased.
func (d *Directory) MarkRecovered(addr int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.health == nil {
		d.health = map[int]Health{}
	}
	d.health[addr] = Recovered
	if l, ok := d.leases[addr]; ok {
		l.health = Recovered
	}
}

// Health reports the liveness state of addr: the lease state while one is
// held, else the sticky post-eviction state (Evicted, or Recovered once a
// replacement was spawned). ok=false means the address was never leased.
func (d *Directory) Health(addr int) (Health, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if l, ok := d.leases[addr]; ok {
		return l.health, true
	}
	if h, ok := d.health[addr]; ok {
		return h, true
	}
	return Live, false
}

// Evictions returns the lifetime count of lease evictions.
func (d *Directory) Evictions() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.evictions
}

// Leased returns a copy of the currently leased addresses, ascending.
func (d *Directory) Leased() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []int
	for addr := range d.leases {
		out = append(out, addr)
	}
	sort.Ints(out)
	return out
}
