// Package flow is the Zipper runtime's flow-control plane: the counters and
// occupancy gauges the runtime modules keep, and the routers that consult
// them to pick a channel for every batch a producer's sender thread drains.
//
// Three channels, one arbiter. A Router splits the sender thread's batches
// between the two network channels (Direct, Relay). The third channel, Disk,
// belongs to the producer's work-stealing writer thread, and who decides a
// steal depends on the router: one that is only a Router leaves it to the
// paper's Algorithm 1 (buffer above HighWater ⇒ steal), which treats the file
// system as a resource independent of the network; a DiskArbiter — Adaptive
// is the one in this package — is asked each time the buffer is above
// HighWater, and elects disk only while a steal's measured cost per byte is
// within an order of magnitude of the cheaper network channel's.
//
// The gauges count; they do not average. A Counter is one atomic integer: a
// write takes no lock and reads no clock, so producer, stager and application
// threads bump it on their hot paths, and any thread reads it at any moment —
// which is what lets an endpoint's Stats take none of the endpoint's locks. A
// Level is a queue depth with its capacity and peak. A caller that wants a
// rate differences two snapshots. The one average a decision reads, the
// adaptive router's producer-stall fraction, is the router's own (see meter
// in router.go), clocked by the timestamps its callers pass — rt.Ctx.Now()
// virtual time under simenv, wall time since the platform epoch under
// realenv — so the controller runs deterministically inside the
// discrete-event simulator and live on the real machine.
//
// Gauges are leaves in the lock order: they take no other lock, so callers
// may update them under their own module locks.
package flow

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count: events, blocks, bytes, or
// nanoseconds spent. The zero value is ready to use; it must not be copied
// after first use.
type Counter struct{ n atomic.Int64 }

// Add counts n more.
func (k *Counter) Add(n int64) { k.n.Add(n) }

// Total returns the lifetime count.
func (k *Counter) Total() int64 { return k.n.Load() }

// Level tracks an instantaneous occupancy (a queue depth) together with its
// capacity and peak. The zero value is ready to use; set the capacity with
// SetCapacity before readers consult it.
type Level struct {
	mu       sync.Mutex
	capacity int
	cur      int
	max      int64
	// debit counts the units that have left since the Sets so far absorbed
	// any (see Debit); it changes downward only under mu.
	debit atomic.Int64
}

// NewLevel returns a level gauge with the given capacity. tau is ignored —
// the gauge keeps no average — and stays for the callers that pass one. The
// returned value must not be copied after first use.
func NewLevel(capacity int, tau time.Duration) Level {
	return Level{capacity: capacity}
}

// SetCapacity declares the gauge's capacity (for zero-value embedding).
func (l *Level) SetCapacity(c int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.capacity = c
}

// Set records the occupancy v.
func (l *Level) Set(v int) { l.SetAbsorbing(v, 0) }

// Debit notes that n units have left the queue, without the gauge's lock. It
// is for an owner that lets several units go per visit to its own lock and
// accounts for them at the next one, with SetAbsorbing: Get subtracts what is
// outstanding, so the policies that poll the occupancy see the units gone at
// once, while the peak learns of them at the absorbing Set.
func (l *Level) Debit(n int) { l.debit.Add(int64(n)) }

// SetAbsorbing is Set for an occupancy v that accounts for n of the units
// debited so far.
func (l *Level) SetAbsorbing(v, n int) {
	l.mu.Lock()
	l.debit.Add(-int64(n))
	l.cur = v
	if int64(v) > l.max {
		l.max = int64(v)
	}
	l.mu.Unlock()
}

// Get returns the current occupancy and the capacity. It is the probe the
// routing policies poll on every decision.
func (l *Level) Get() (queued, capacity int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur - int(l.debit.Load()), l.capacity
}

// Max returns the peak occupancy ever recorded.
func (l *Level) Max() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.max
}
