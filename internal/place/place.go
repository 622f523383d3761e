// Package place is the Zipper runtime's placement plane: one pluggable
// directory for every endpoint assignment. The paper's zipping optimizations
// assume producers, stagers, and consumers are matched to each other's
// rates; when producer output rates diverge, a static rank-affine mod-map
// piles work onto a few relays while others idle. This package extracts the
// assignment decision — which stager a producer relays through, which
// consumer a batch is destined for — behind a Directory that resolves a rank
// against an epoch-versioned membership through a Policy:
//
//   - RankAffine reproduces the classic fixed split (member[rank mod size]),
//     byte-identical to the assignments earlier revisions hard-coded.
//   - LeastOccupancy routes each batch to the emptiest endpoint, read from
//     the flow.Level occupancy gauges every runtime module already
//     publishes — the SDN-style "least-loaded access point" rule.
//
// The Directory also owns the in-flight claim accounting that makes elastic
// retirement race-free: Claim atomically resolves an endpoint in the
// current membership AND registers the upcoming send as in flight there, so a
// drained member can be quiesced — every message bound for it deposited —
// before its Retire control message is sent.
package place

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"zipper/internal/flow"
	"zipper/internal/rt"
)

// View is the membership snapshot a Policy resolves against: the live
// endpoint addresses (ascending) plus the occupancy probe for load-aware
// policies. Load may be nil (no gauges published); ok=false from Load means
// the endpoint at addr publishes no gauge.
type View struct {
	Members []int
	Load    func(addr int) (queued, capacity int, ok bool)
}

// Policy is a pluggable assignment rule: it picks the member a rank
// resolves to in the given view. Pick must be deterministic in (rank, view)
// — the simulated platform replays decisions — and must return ok=false
// only when the membership is empty.
type Policy interface {
	// Name identifies the policy in reports and sweeps.
	Name() string
	// Pick resolves rank to one of v.Members.
	Pick(rank int, v View) (addr int, ok bool)
}

// rankAffine is the classic fixed split.
type rankAffine struct{}

// RankAffine returns the policy of earlier revisions: member[rank mod size]
// over the sorted live membership, so a fixed membership reproduces the
// hard-coded "producer p relays through stager p mod S" assignment exactly
// and every epoch bump re-shards deterministically.
func RankAffine() Policy { return rankAffine{} }

func (rankAffine) Name() string { return "rank-affine" }

func (rankAffine) Pick(rank int, v View) (int, bool) {
	if len(v.Members) == 0 {
		return 0, false
	}
	return v.Members[rank%len(v.Members)], true
}

// leastOccupancy picks the emptiest endpoint.
type leastOccupancy struct{}

// LeastOccupancy returns the load-aware policy: each resolution picks the
// member with the lowest buffer-occupancy fraction, read from the
// flow.Level gauges the directory was built over. The scan starts at the
// rank-affine position and moves only on strictly lower occupancy, so an
// idle pool (all gauges equal) reproduces the rank-affine assignment and
// ties never flap between endpoints. Members publishing no gauge count as
// empty; with no gauges at all the policy degenerates to RankAffine.
func LeastOccupancy() Policy { return leastOccupancy{} }

func (leastOccupancy) Name() string { return "least-occupancy" }

func (leastOccupancy) Pick(rank int, v View) (int, bool) {
	n := len(v.Members)
	if n == 0 {
		return 0, false
	}
	start := rank % n
	best := v.Members[start]
	if v.Load == nil {
		return best, true
	}
	bestFrac := occupancyFrac(v.Load, best)
	for i := 1; i < n; i++ {
		addr := v.Members[(start+i)%n]
		if f := occupancyFrac(v.Load, addr); f < bestFrac {
			best, bestFrac = addr, f
		}
	}
	return best, true
}

// occupancyFrac normalizes an endpoint's fill to [0,1]-ish so differently
// sized buffers compare fairly. Unknown gauges read as empty.
func occupancyFrac(load func(int) (int, int, bool), addr int) float64 {
	q, capacity, ok := load(addr)
	if !ok {
		return 0
	}
	if capacity < 1 {
		capacity = 1
	}
	return float64(q) / float64(capacity)
}

// Kind names a built-in policy on configuration surfaces (zipper.Config,
// workflow.Spec). The zero value is KindRankAffine, which preserves the
// fixed assignments of earlier revisions byte-identically.
type Kind int

const (
	// KindRankAffine is the classic fixed split (the default).
	KindRankAffine Kind = iota
	// KindLeastOccupancy routes every batch to the emptiest endpoint.
	KindLeastOccupancy
)

// Valid reports whether k names a built-in policy.
func (k Kind) Valid() bool {
	return k == KindRankAffine || k == KindLeastOccupancy
}

// String names the policy; out-of-range values render as "unknown(N)" so a
// misconfigured placement is visible instead of silently reading as the
// default.
func (k Kind) String() string {
	switch k {
	case KindRankAffine:
		return "rank-affine"
	case KindLeastOccupancy:
		return "least-occupancy"
	default:
		return fmt.Sprintf("unknown(%d)", int(k))
	}
}

// New builds the policy k names; out-of-range kinds fall back to
// RankAffine (Validate configurations before this point).
func (k Kind) New() Policy {
	if k == KindLeastOccupancy {
		return LeastOccupancy()
	}
	return RankAffine()
}

// Endpoints is the per-batch resolution surface a runtime module consults
// (core.Config.Directory). Peek is a read-only resolution for assembling
// routing signals; Claim atomically resolves the rank's endpoint in the
// current membership AND registers the send as in flight, which is what
// lets a pool quiesce an endpoint before retiring it — a claimed address
// stays receivable until the matching Done. Implementations must be safe
// for concurrent use from many sender threads; on the simulated platform
// they must not block (a quiescing drain is the only waiting side).
type Endpoints interface {
	// Peek returns the endpoint address rank currently resolves to, without
	// claiming it. ok=false means the membership is empty.
	Peek(rank int) (addr int, ok bool)
	// Claim resolves rank's endpoint in the live membership and counts the
	// upcoming send as in flight at that address. Every successful Claim
	// must be paired with Done once the send has deposited.
	Claim(rank int) (addr int, ok bool)
	// Done reports that the send claimed at addr has deposited. On TCP a
	// Send returns once its frame is written, so "deposited" holds by the
	// time it matters: the platform fences every connection before it
	// delivers a Retire.
	Done(addr int)
}

// Directory is the epoch-versioned endpoint directory: a live membership,
// a Policy that resolves ranks against it, and the in-flight claim
// accounting that makes retirement race-free. It serves both producer→
// stager resolution (where membership churns under the elastic scaler) and
// producer→consumer resolution (static membership, policy-driven
// reassignment only). It implements Endpoints.
//
// All methods are cheap, non-blocking critical sections guarded by a plain
// mutex, which is safe on both platforms: the simulator runs exactly one
// process at an instant, so the lock is never contended there and costs no
// virtual time; on the real machine it is an ordinary shared-state lock.
// Quiesce is the one waiting call and polls with rt sleeps instead of
// parking, so it composes with the simulator's scheduler.
type Directory struct {
	mu       sync.Mutex
	pol      Policy
	load     func(addr int) (queued, capacity int, ok bool)
	epoch    int64
	members  []int // live endpoint addresses, ascending
	inflight map[int]int

	// Liveness layer (lease.go): leases holds the current lease per
	// address, health the sticky post-eviction state, evictions the
	// lifetime eviction count. All nil/zero until the first Lease.
	leases    map[int]*lease
	health    map[int]Health
	evictions int64
}

// New returns an empty directory resolving through pol; the embedder Adds
// the initial membership. levelOf, when non-nil, exposes the occupancy
// gauge of the endpoint at an address (nil gauge = none published) — the
// signal LeastOccupancy steers on; policies that ignore load accept nil.
func New(pol Policy, levelOf func(addr int) *flow.Level) *Directory {
	d := &Directory{pol: pol, inflight: map[int]int{}}
	if levelOf != nil {
		d.load = func(addr int) (int, int, bool) {
			lv := levelOf(addr)
			if lv == nil {
				return 0, 0, false
			}
			q, c := lv.Get()
			return q, c, true
		}
	}
	return d
}

// Add admits the endpoint at addr to the membership and bumps the epoch.
// Adding a present member is a no-op.
func (d *Directory) Add(addr int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, m := range d.members {
		if m == addr {
			return
		}
	}
	d.members = append(d.members, addr)
	sort.Ints(d.members)
	d.epoch++
}

// Remove retires addr from the membership and bumps the epoch: no Claim
// resolves to it afterwards. In-flight claims are unaffected — Quiesce
// waits them out.
func (d *Directory) Remove(addr int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, m := range d.members {
		if m == addr {
			d.members = append(d.members[:i], d.members[i+1:]...)
			d.epoch++
			return
		}
	}
}

// resolveLocked runs the policy against the live view.
func (d *Directory) resolveLocked(rank int) (int, bool) {
	return d.pol.Pick(rank, View{Members: d.members, Load: d.load})
}

// Peek implements Endpoints: a claim-free resolution for signal assembly.
func (d *Directory) Peek(rank int) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.resolveLocked(rank)
}

// Claim implements Endpoints: it resolves rank's endpoint in the current
// membership and registers the upcoming send as in flight there,
// atomically — an endpoint observed through Claim cannot receive its
// Retire before the matching Done.
func (d *Directory) Claim(rank int) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	addr, ok := d.resolveLocked(rank)
	if !ok {
		return 0, false
	}
	d.inflight[addr]++
	return addr, true
}

// Done implements Endpoints: the claimed send has deposited.
func (d *Directory) Done(addr int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.inflight[addr] <= 0 {
		panic(fmt.Sprintf("place: Done(%d) without a claim", addr))
	}
	d.inflight[addr]--
}

// quiescePoll is Quiesce's polling period: long enough not to distort a
// simulated run, short enough that a drain is prompt on the real machine.
const quiescePoll = 200 * time.Microsecond

// Quiesce blocks until no claimed send is in flight toward addr. Call it
// after Remove(addr): new claims can no longer pick addr, so once the count
// reaches zero every message bound for the endpoint has been deposited and
// the Retire sent next is guaranteed to arrive last.
func (d *Directory) Quiesce(c rt.Ctx, addr int) {
	for {
		d.mu.Lock()
		n := d.inflight[addr]
		d.mu.Unlock()
		if n == 0 {
			return
		}
		c.Sleep(quiescePoll)
	}
}

// Epoch returns the membership version; every Add and Remove bumps it.
func (d *Directory) Epoch() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// Members returns a copy of the live membership, ascending.
func (d *Directory) Members() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int(nil), d.members...)
}
