// Package control is the multi-job control plane: the layer that admits many
// concurrent producer/consumer jobs onto one shared in-transit stager fleet
// and keeps them isolated from each other while they run.
//
// It has three parts. The registry + admission layer (Plane.Admit) accepts
// job specs carrying per-tenant quotas — a guaranteed buffer-block
// reservation and a priority class — and
// rejects over-subscription with typed *ConfigErrors before a single block
// moves. The reconcile engine (modeled on coreos-fleet's offer/reconcile
// engine: desired state in a registry, an engine that continuously diffs it
// against the live fleet and repairs the delta) assigns each tenant a slice
// of stager capacity through its own place.Directory and recomputes the
// weighted-fair share whenever jobs arrive or finish, and every reconcile
// period. Priority preemption evicts spill-heavy low-priority tenants'
// claims first: when a higher-priority tenant is pressured against its
// quota, the noisiest lower-priority tenant's effective weight is halved,
// shrinking both its stager slice and its buffer quota on the next
// reconcile. Per-tenant flow isolation lives in the stager itself (see
// staging's tenant states); the plane only reads those gauges and pushes
// quotas through the Host.
//
// Everything is clocked by rt.Ctx, so the same reconcile engine runs
// deterministically inside the discrete-event simulator and live on the
// real machine. The plane runs no thread of its own: the shared tier
// (assembly.Tier) calls Reconcile every Interval on its one control thread,
// and Admit and Finish reconcile on the caller's. The plane's mutex guards
// registry state and is never held across a call that can park the thread
// (Host.SetTenantQuota takes a stager's platform lock); quota pushes are
// computed under the mutex and applied after it is released. Directory
// membership edits and gauge reads are lock-order leaves and stay inline.
package control

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"zipper/internal/flow"
	"zipper/internal/place"
	"zipper/internal/rt"
)

// Priority is a tenant's preemption class. Under pressure the plane takes
// capacity from lower classes first; equal classes are never preempted by
// each other.
type Priority int

const (
	// PriorityLow marks best-effort batch tenants: first to lose capacity.
	PriorityLow Priority = iota
	// PriorityNormal is the default class.
	PriorityNormal
	// PriorityHigh marks latency-sensitive tenants whose pressure triggers
	// preemption of lower classes.
	PriorityHigh
)

func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityNormal:
		return "normal"
	case PriorityHigh:
		return "high"
	}
	return fmt.Sprintf("priority(%d)", int(p))
}

func (p Priority) valid() bool { return p >= PriorityLow && p <= PriorityHigh }

// Quota is a tenant's resource envelope on the shared fleet.
type Quota struct {
	// BufferBlocks is the tenant's guaranteed fleet-wide in-memory buffer
	// reservation, in blocks. Admission rejects a job whose guarantee would
	// oversubscribe the fleet's aggregate buffer. 0 means best-effort (no
	// guarantee, only the fair share).
	BufferBlocks int
	// Priority is the preemption class (default PriorityLow — the zero
	// value; latency-sensitive tenants opt up).
	Priority Priority
}

// JobSpec is what a job presents at admission.
type JobSpec struct {
	// Name labels the tenant in events and stats.
	Name string
	// Quota is the tenant's resource envelope.
	Quota Quota
}

// ConfigError is a typed admission or configuration rejection: which field
// of the spec was unacceptable and why. Errors.As-able by embedders that
// wrap it.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return "control: invalid " + e.Field + ": " + e.Reason
}

// Config tunes the plane.
type Config struct {
	// MaxTenants caps lifetime admissions (tenant ids index pre-sized
	// per-tenant state at every stager, so ids are never reused). 0 means
	// the embedder pre-sized for unlimited growth — fleets always set it.
	MaxTenants int
}

const (
	// Interval is the reconcile period. Admission and finish also reconcile
	// synchronously; the periodic pass exists for preemption and convergence
	// while the tenant set is static.
	Interval = 2 * time.Millisecond
	// preemptOccupancy is the quota-fraction at which a tenant counts as
	// pressured: when a tenant's worst per-stager tenant-occupancy reaches
	// this fraction of its quota, the plane looks for a lower-priority
	// spill-heavy victim to preempt.
	preemptOccupancy = 0.75
)

// Host is the fleet half of the plane: it owns the shared stagers and
// exposes their per-tenant gauges and quota knobs by transport address.
// TenantLevel and TenantSpilled read lock-order-leaf gauges and are safe
// from any thread; SetTenantQuota may park (it takes the stager's platform
// lock) and is only called with no plane mutex held.
type Host interface {
	// TenantLevel returns tenant's occupancy gauge at the stager at addr
	// (resident blocks vs admission quota).
	TenantLevel(addr, tenant int) *flow.Level
	// TenantSpilled returns tenant's lifetime spilled-block count at addr.
	TenantSpilled(addr, tenant int) int64
	// SetTenantQuota pushes tenant's per-stager admission cap in blocks
	// (0 = uncapped) to the stager at addr.
	SetTenantQuota(c rt.Ctx, addr, tenant, blocks int)
}

// Event is one control action, for the fleet timeline and the zippertrace
// fleet view.
type Event struct {
	At      time.Duration
	Kind    string // "admit", "finish", "assign", or "preempt"
	Tenant  int    // subject tenant id
	Victim  int    // preempted tenant id (kind "preempt"; -1 otherwise)
	Stagers int    // subject's slice size after the action
	Blocks  int    // subject's total buffer quota across its slice after the action
}

// Tenant is one admitted job's handle on the plane: its identity, its spec,
// and the place.Directory through which its producers resolve stagers. The
// plane is the only mutator of the directory's membership; producers only
// Peek/Claim/Done against it.
type Tenant struct {
	id   int
	spec JobSpec
	dir  *place.Directory

	// Reconciler state, guarded by the plane's mutex.
	active      bool
	stagers     []int       // assigned stager addrs, ascending
	quotaAt     map[int]int // addr → pushed admission cap
	penalty     uint        // preemption throttle: effective weight is 1/2^penalty
	lastSpilled int64       // fleet-wide spilled total at last reconcile
	lastTotal   int         // total buffer quota across the slice at last reconcile
}

// ID returns the tenant id: the index of this tenant's pre-sized state at
// every stager.
func (t *Tenant) ID() int { return t.id }

// Directory returns the tenant's stager directory — the core.StagerDirectory
// its producers route through.
func (t *Tenant) Directory() *place.Directory { return t.dir }

// weight is the tenant's effective fair-share weight: every tenant starts
// at 1, and each preemption strike halves it.
func (t *Tenant) weight() float64 {
	return 1 / float64(uint(1)<<t.penalty)
}

// TenantSnapshot is one tenant's current assignment, for FleetStats.
type TenantSnapshot struct {
	ID          int
	Name        string
	Priority    Priority
	Active      bool
	Stagers     []int // assigned stager addrs, ascending
	QuotaBlocks int   // total admission cap across the slice
	Preempted   int   // times this tenant was the preemption victim
}

// Plane is the control plane over one shared stager fleet.
type Plane struct {
	cfg  Config
	host Host

	mu           sync.Mutex
	fleet        []int // live stager addrs, ascending
	bufPerStager int
	tenants      []*Tenant
	preempted    []int // per-tenant victim counts, indexed by id
	events       []Event
	preemptions  int
}

// NewPlane builds a plane over the fleet's live stager addresses, each with
// bufPerStager in-memory buffer blocks. The host resolves addresses to
// per-tenant gauges and quota knobs.
func NewPlane(cfg Config, fleet []int, bufPerStager int, host Host) *Plane {
	f := append([]int(nil), fleet...)
	sort.Ints(f)
	return &Plane{cfg: cfg, host: host, fleet: f, bufPerStager: bufPerStager}
}

// capacityLocked is the fleet's aggregate in-memory buffer in blocks.
func (p *Plane) capacityLocked() int { return len(p.fleet) * p.bufPerStager }

// Admit validates spec against the fleet's remaining capacity and, on
// success, registers the tenant and reconciles synchronously — the caller
// holds a populated directory and live quotas before the job's first block
// is written. Rejections are *ConfigError values.
func (p *Plane) Admit(c rt.Ctx, spec JobSpec) (*Tenant, error) {
	p.mu.Lock()
	q := spec.Quota
	switch {
	case !q.Priority.valid():
		p.mu.Unlock()
		return nil, &ConfigError{"Quota.Priority", fmt.Sprintf("unknown class %d", int(q.Priority))}
	case q.BufferBlocks < 0:
		p.mu.Unlock()
		return nil, &ConfigError{"Quota.BufferBlocks", fmt.Sprintf("must be ≥ 0, got %d", q.BufferBlocks)}
	}
	if p.cfg.MaxTenants > 0 && len(p.tenants) >= p.cfg.MaxTenants {
		p.mu.Unlock()
		return nil, &ConfigError{"Jobs", fmt.Sprintf("fleet admission ceiling reached (%d tenants admitted over the fleet lifetime)", p.cfg.MaxTenants)}
	}
	guaranteed := q.BufferBlocks
	for _, t := range p.tenants {
		if t.active {
			guaranteed += t.spec.Quota.BufferBlocks
		}
	}
	if cap := p.capacityLocked(); guaranteed > cap {
		p.mu.Unlock()
		return nil, &ConfigError{"Quota.BufferBlocks",
			fmt.Sprintf("guarantee oversubscribes the fleet: %d blocks guaranteed against %d aggregate buffer blocks", guaranteed, cap)}
	}
	id := len(p.tenants)
	t := &Tenant{id: id, spec: spec, active: true, quotaAt: map[int]int{}}
	t.dir = place.New(place.RankAffine(), func(addr int) *flow.Level {
		return p.host.TenantLevel(addr, id)
	})
	p.tenants = append(p.tenants, t)
	p.preempted = append(p.preempted, 0)
	p.events = append(p.events, Event{At: c.Now(), Kind: "admit", Tenant: id, Victim: -1})
	pushes := p.reconcileLocked(c.Now())
	p.mu.Unlock()
	p.apply(c, pushes)
	return t, nil
}

// Finish retires the tenant from the registry: its directory empties (any
// in-flight claims drain through Done) and its capacity is redistributed to
// the remaining tenants on the same synchronous reconcile.
func (p *Plane) Finish(c rt.Ctx, t *Tenant) {
	p.mu.Lock()
	if !t.active {
		p.mu.Unlock()
		return
	}
	t.active = false
	for _, addr := range t.stagers {
		t.dir.Remove(addr)
	}
	t.stagers = nil
	p.events = append(p.events, Event{At: c.Now(), Kind: "finish", Tenant: t.id, Victim: -1})
	pushes := p.reconcileLocked(c.Now())
	p.mu.Unlock()
	p.apply(c, pushes)
}

// Reconcile is the periodic pass, run every Interval on the tier's control
// thread.
func (p *Plane) Reconcile(c rt.Ctx) {
	p.mu.Lock()
	pushes := p.reconcileLocked(c.Now())
	p.mu.Unlock()
	p.apply(c, pushes)
}

// quotaPush is one deferred Host.SetTenantQuota call, applied after the
// plane mutex is released (the host call may park).
type quotaPush struct{ addr, tenant, blocks int }

func (p *Plane) apply(c rt.Ctx, pushes []quotaPush) {
	for _, q := range pushes {
		p.host.SetTenantQuota(c, q.addr, q.tenant, q.blocks)
	}
}

// activeLocked returns the active tenants in id order.
func (p *Plane) activeLocked() []*Tenant {
	var act []*Tenant
	for _, t := range p.tenants {
		if t.active {
			act = append(act, t)
		}
	}
	return act
}

// reconcileLocked is one pass of the offer/reconcile engine: observe spill
// deltas and pressure, apply at most one preemption, recompute every active
// tenant's weighted-fair slice and buffer quota, and diff the result against
// the live directories. It returns the quota pushes to apply once the mutex
// is released. All iteration is in sorted order so the engine's event
// sequence is deterministic under simulation.
func (p *Plane) reconcileLocked(now time.Duration) []quotaPush {
	act := p.activeLocked()
	if len(act) == 0 || len(p.fleet) == 0 {
		return nil
	}
	p.preemptLocked(now, act)

	// Weighted-fair slice sizes by largest remainder: tenant i's target is
	// S·w_i/Σw stagers, floored, with leftovers going to the largest
	// fractional remainders (ties: higher priority, then lower id). Every
	// tenant keeps at least one stager; slices may overlap when tenants
	// outnumber stagers.
	S := len(p.fleet)
	var W float64
	for _, t := range act {
		W += t.weight()
	}
	count := make([]int, len(act))
	rem := make([]float64, len(act))
	assigned := 0
	for i, t := range act {
		target := float64(S) * t.weight() / W
		count[i] = int(target)
		rem[i] = target - float64(count[i])
		assigned += count[i]
	}
	order := make([]int, len(act))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if rem[ia] != rem[ib] {
			return rem[ia] > rem[ib]
		}
		if act[ia].spec.Quota.Priority != act[ib].spec.Quota.Priority {
			return act[ia].spec.Quota.Priority > act[ib].spec.Quota.Priority
		}
		return act[ia].id < act[ib].id
	})
	for k := 0; assigned < S && k < len(order); k++ {
		count[order[k]]++
		assigned++
	}
	for i := range count {
		if count[i] < 1 {
			count[i] = 1
		}
	}

	// Place the slices: higher priority picks first, each tenant taking its
	// count of least-loaded stagers (by accumulated weight, then address).
	// The load is seeded with each stager's live resident backlog so a
	// picking tenant steers away from OTHER tenants' congestion — a
	// high-priority arrival must not land behind a spill-heavy tenant's
	// queue — while its own resident blocks don't repel it (a backlogged
	// tenant stays sticky to the stagers that hold its data). The factor 2
	// makes a full buffer outweigh one fresh tenant's weight.
	loadW := map[int]float64{}
	ownW := map[[2]int]float64{}
	if p.bufPerStager > 0 {
		for _, addr := range p.fleet {
			for _, t := range act {
				if lv := p.host.TenantLevel(addr, t.id); lv != nil {
					q, _ := lv.Get()
					if q > 0 {
						w := 2 * float64(q) / float64(p.bufPerStager)
						ownW[[2]int{addr, t.id}] = w
						loadW[addr] += w
					}
				}
			}
		}
	}
	pick := make([]int, len(act))
	for i := range pick {
		pick[i] = i
	}
	sort.SliceStable(pick, func(a, b int) bool {
		ia, ib := pick[a], pick[b]
		if act[ia].spec.Quota.Priority != act[ib].spec.Quota.Priority {
			return act[ia].spec.Quota.Priority > act[ib].spec.Quota.Priority
		}
		return act[ia].id < act[ib].id
	})
	slices := make([][]int, len(act))
	for _, i := range pick {
		t, n := act[i], count[i]
		addrs := append([]int(nil), p.fleet...)
		seen := func(addr int) float64 { return loadW[addr] - ownW[[2]int{addr, t.id}] }
		sort.SliceStable(addrs, func(a, b int) bool {
			if sa, sb := seen(addrs[a]), seen(addrs[b]); sa != sb {
				return sa < sb
			}
			return addrs[a] < addrs[b]
		})
		slice := append([]int(nil), addrs[:n]...)
		sort.Ints(slice)
		for _, addr := range slice {
			loadW[addr] += t.weight() / float64(n)
		}
		slices[i] = slice
	}

	// Per-stager buffer quotas: tenant i's cap on stager a is its weighted
	// share of the stager's buffer among the tenants assigned there, raised
	// to its per-stager guarantee floor ⌈g_i/n_i⌉ and clamped to the buffer.
	// Preemption penalties then halve the cap per strike: weight ratios
	// cancel for a tenant alone on its stager, so without this a penalized
	// spill-heavy tenant would keep its full buffer and its spill storm
	// would keep saturating the store. Shrinking the cap toward 1 clamps it
	// to near-synchronous transfer until the pressure clears. A guarantee is
	// a contract and is never shrunk.
	shareW := map[int]float64{}
	for i, t := range act {
		for _, addr := range slices[i] {
			shareW[addr] += t.weight() / float64(count[i])
		}
	}
	var pushes []quotaPush
	for i, t := range act {
		total := 0
		for _, addr := range slices[i] {
			q := int(float64(p.bufPerStager) * (t.weight() / float64(count[i])) / shareW[addr])
			if t.penalty > 0 {
				q >>= t.penalty
			}
			if g := (t.spec.Quota.BufferBlocks + count[i] - 1) / count[i]; q < g {
				q = g
			}
			if q < 1 {
				q = 1
			}
			if q > p.bufPerStager {
				q = p.bufPerStager
			}
			total += q
			if t.quotaAt[addr] != q {
				t.quotaAt[addr] = q
				pushes = append(pushes, quotaPush{addr: addr, tenant: t.id, blocks: q})
			}
		}
		changed := len(slices[i]) != len(t.stagers)
		for k := 0; !changed && k < len(slices[i]); k++ {
			changed = slices[i][k] != t.stagers[k]
		}
		// Directory edits: add before remove so producers never observe an
		// empty membership mid-shuffle (they would fall back to the direct
		// channel). Removed stagers need no quiesce — the endpoints stay
		// live and in-flight claims drain through Done.
		for _, addr := range slices[i] {
			if !containsAddr(t.stagers, addr) {
				t.dir.Add(addr)
			}
		}
		for _, addr := range t.stagers {
			if !containsAddr(slices[i], addr) {
				t.dir.Remove(addr)
			}
		}
		if changed || totalQuotaChanged(t, total) {
			t.lastTotal = total
			p.events = append(p.events, Event{At: now, Kind: "assign", Tenant: t.id, Victim: -1,
				Stagers: len(slices[i]), Blocks: total})
		}
		t.stagers = slices[i]
	}
	return pushes
}

func containsAddr(s []int, addr int) bool {
	for _, a := range s {
		if a == addr {
			return true
		}
	}
	return false
}

func totalQuotaChanged(t *Tenant, total int) bool { return t.lastTotal != total }

// preemptLocked observes each tenant's spill delta and quota pressure and
// applies at most one preemption per pass: the highest-priority pressured
// tenant claims capacity from the spill-heaviest strictly-lower-priority
// tenant (lowest class first), whose effective weight is halved. When no
// tenant is pressured, penalties on tenants that have stopped spilling
// decay one step — capacity flows back once the noisy phase ends.
func (p *Plane) preemptLocked(now time.Duration, act []*Tenant) {
	delta := make([]int64, len(act))
	pressure := make([]float64, len(act))
	for i, t := range act {
		var spilled int64
		for _, addr := range p.fleet {
			spilled += p.host.TenantSpilled(addr, t.id)
		}
		delta[i] = spilled - t.lastSpilled
		t.lastSpilled = spilled
		for _, addr := range t.stagers {
			if lv := p.host.TenantLevel(addr, t.id); lv != nil {
				if q, capacity := lv.Get(); capacity > 0 {
					if f := float64(q) / float64(capacity); f > pressure[i] {
						pressure[i] = f
					}
				}
			}
		}
	}
	claimant := -1
	for i, t := range act {
		if pressure[i] < preemptOccupancy {
			continue
		}
		if claimant < 0 || t.spec.Quota.Priority > act[claimant].spec.Quota.Priority {
			claimant = i
		}
	}
	if claimant < 0 {
		for _, t := range act {
			if t.penalty > 0 {
				t.penalty--
			}
		}
		return
	}
	victim := -1
	for i, t := range act {
		if t.spec.Quota.Priority >= act[claimant].spec.Quota.Priority || delta[i] <= 0 {
			continue
		}
		if victim < 0 {
			victim = i
			continue
		}
		v := act[victim]
		if t.spec.Quota.Priority != v.spec.Quota.Priority {
			if t.spec.Quota.Priority < v.spec.Quota.Priority {
				victim = i
			}
			continue
		}
		if delta[i] > delta[victim] {
			victim = i
		}
	}
	if victim < 0 || act[victim].penalty >= maxPenalty {
		return
	}
	act[victim].penalty++
	p.preemptions++
	p.preempted[act[victim].id]++
	p.events = append(p.events, Event{At: now, Kind: "preempt",
		Tenant: act[claimant].id, Victim: act[victim].id,
		Stagers: len(act[claimant].stagers)})
}

// maxPenalty bounds the preemption throttle: a victim's effective weight
// never drops below 1/2^6, so it always retains a sliver of capacity
// and its stream can finish.
const maxPenalty = 6

// Events returns the control timeline in action order.
func (p *Plane) Events() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.events...)
}

// Preemptions returns the lifetime preemption count.
func (p *Plane) Preemptions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.preemptions
}

// Snapshot returns every admitted tenant's current assignment, in id order.
func (p *Plane) Snapshot() []TenantSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]TenantSnapshot, len(p.tenants))
	for i, t := range p.tenants {
		total := 0
		for _, addr := range t.stagers {
			total += t.quotaAt[addr]
		}
		out[i] = TenantSnapshot{
			ID: t.id, Name: t.spec.Name, Priority: t.spec.Quota.Priority,
			Active:  t.active,
			Stagers: append([]int(nil), t.stagers...), QuotaBlocks: total,
			Preempted: p.preempted[t.id],
		}
	}
	return out
}
