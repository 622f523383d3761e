package realenv

import (
	"sync"
	"sync/atomic"

	"zipper/internal/rt"
)

// Intra-node fast path: a lock-free single-producer single-consumer ring of
// rt.Message. Co-located endpoint pairs (producer sender → stager receiver,
// stager forwarder → consumer receiver, and every in-process hop when the
// whole job shares an address space) exchange messages through node-local
// memory without a channel lock or a scheduler round-trip per message —
// the DIMES-style shared-memory transport the paper's co-located ranks use.
//
// Hot-path discipline:
//
//   - The producer owns tail, the consumer owns head. Each side keeps a
//     cached snapshot of the other's cursor and re-loads it only on
//     apparent-full / apparent-empty, so a steady-state push or pop touches
//     one atomic on its own cache line.
//   - The cursors are padded a cache line apart: the producer's store to
//     tail never invalidates the line the consumer's head store lives on.
//   - pop copies a message out of its slot exactly once (no staging buffer
//     on the receive side) and clears only the slot's pointer fields; the
//     scalar bytes are overwritten by the next push, so the consumer never
//     pays a full-struct zero per message the way a channel receive does.
//   - Parking is the slow path only: a full producer or an empty consumer
//     parks on a gate (see below); the wake probe on the fast path is one
//     atomic load that almost always reads "nobody sleeping".

// cacheLine is the assumed coherence granule: cursor fields are padded this
// far apart so the producer and consumer sides never false-share.
const cacheLine = 64

// ring is the SPSC queue. Push from exactly one goroutine at a time, pop
// from exactly one goroutine at a time; occupancy probes are safe anywhere.
type ring struct {
	buf   []rt.Message
	mask  uint64
	limit uint64 // send window: most messages queued at once (≤ len(buf))

	_          [cacheLine]byte
	tail       atomic.Uint64 // producer cursor: next slot to fill (published)
	tailLocal  uint64        // producer's plain mirror of tail (producer-owned)
	cachedHead uint64        // producer's last-seen head (producer-owned)
	_          [cacheLine - 24]byte
	head       atomic.Uint64 // consumer cursor: next slot to drain (published)
	headLocal  uint64        // consumer's plain mirror of head (consumer-owned)
	cachedTail uint64        // consumer's last-seen tail (consumer-owned)
	_          [cacheLine - 24]byte
}

// newRing returns a ring that holds exactly `window` (≥ 1) undelivered
// messages. The slot array is rounded up to a power of two so indexing is a
// mask, not a division; the window, not the array, is what push enforces.
func newRing(window int) *ring {
	d := 2
	for d < window {
		d <<= 1
	}
	return &ring{buf: make([]rt.Message, d), mask: uint64(d - 1), limit: uint64(window)}
}

// capacity is the send window in messages.
func (r *ring) capacity() int { return int(r.limit) }

// push appends m, reporting false when the ring is full. Producer side only.
func (r *ring) push(m rt.Message) bool {
	t := r.tailLocal
	if t-r.cachedHead >= r.limit {
		r.cachedHead = r.head.Load()
		if t-r.cachedHead >= r.limit {
			return false
		}
	}
	r.buf[t&r.mask] = m
	r.tailLocal = t + 1
	// The release store publishes the slot write above: a consumer that
	// loads the new tail is ordered after the message it guards.
	r.tail.Store(t + 1)
	return true
}

// The consume side is a claim/take/release protocol so a batch of queued
// messages costs one atomic load (the tail refresh in claim) and one
// atomic store (the cursor publish in release) total, not per message:
//
//	n := r.claim()            // messages visible, 0 = empty
//	for i := 0; i < n; i++ {
//		m := r.take(i)        // copy out + clear slot pointer fields
//	}
//	r.release(n)              // publish, returning the slots to the producer
//
// Slots stay owned by the consumer from claim to release, so the producer
// sees the window shrink until release — bounded by the caller's batch cap,
// and identical in kind to a channel receiver that is slow to drain.

// claim reports how many queued messages the consumer may take, refreshing
// the cached tail only when the ring looks empty. Consumer side only.
func (r *ring) claim() int {
	h := r.headLocal
	if r.cachedTail == h {
		r.cachedTail = r.tail.Load()
	}
	return int(r.cachedTail - h)
}

// take copies the i-th claimed message out of its slot — the receiver
// consumes straight from ring memory, no staging buffer — and clears only
// the slot's pointer fields (the scalar remainder is overwritten by the
// next push anyway), so the ring never pins released payload buffers and
// never pays a full-struct zero. Consumer side only; i < the last claim.
func (r *ring) take(i int) rt.Message {
	s := &r.buf[(r.headLocal+uint64(i))&r.mask]
	m := *s
	s.Blocks = nil
	s.Disk = nil
	return m
}

// release publishes n consumed slots back to the producer. Consumer side
// only.
func (r *ring) release(n int) {
	h := r.headLocal + uint64(n)
	r.headLocal = h
	r.head.Store(h)
}

// pop moves the oldest queued message out, reporting false when the ring
// is empty: a one-message claim/take/release. Consumer side only.
func (r *ring) pop() (rt.Message, bool) {
	if r.claim() == 0 {
		return rt.Message{}, false
	}
	m := r.take(0)
	r.release(1)
	return m, true
}

// occupancy reports the queued message count. Safe from any thread; between
// a concurrent push and pop the answer is approximate but never negative
// and never exceeds the window (head is loaded first, so a racing pop can
// only inflate the count toward what the producer already published).
func (r *ring) occupancy() int {
	h := r.head.Load()
	n := int(r.tail.Load() - h)
	if n > int(r.limit) {
		n = int(r.limit)
	}
	if n < 0 {
		n = 0
	}
	return n
}

// free reports the open slot count — the ring-derived send window that
// backs Credits on the ring transport.
func (r *ring) free() int { return int(r.limit) - r.occupancy() }

// gate is the futex-style park/wake primitive the ring's slow paths use: a
// waiter publishes a sleeper flag and blocks on a condvar; a waker probes
// the flag with one atomic load and takes the mutex only when someone is
// actually parked, so the uncontended fast path never locks.
//
// Lost-wakeup soundness (both atomics are sequentially consistent): the
// waiter stores state=1 before re-checking the ring condition; the waker
// mutates the ring before loading state. If the waiter's condition check
// missed the waker's mutation, the check preceded the mutation in the
// seq-cst order, so the waiter's state store preceded the waker's state
// load — the waker sees the sleeper and broadcasts. The broadcast itself
// cannot slip into the window before the waiter parks, because the waiter
// holds the gate mutex from before the flag store until Wait releases it.
type gate struct {
	state atomic.Int32 // 1 while a waiter is parked (or about to park)
	// The flag is probed on every wake (once per send or per released
	// batch); padding keeps the slow path's mutex traffic off its line.
	_  [cacheLine - 4]byte
	mu sync.Mutex
	cv *sync.Cond
}

func newGate() *gate {
	g := &gate{}
	g.cv = sync.NewCond(&g.mu)
	return g
}

// sleep blocks until cond() reports true. cond is re-evaluated under the
// gate mutex after every wake, and must read only atomic ring state. The
// flag is re-published on every loop iteration because a waker consumes it
// (see wake): each park episode needs its own claim.
func (g *gate) sleep(cond func() bool) {
	g.mu.Lock()
	for {
		g.state.Store(1)
		if cond() {
			break
		}
		g.cv.Wait()
	}
	g.state.Store(0)
	g.mu.Unlock()
}

// wake unblocks any parked waiter. One atomic load when nobody sleeps. A
// waker that finds the flag set consumes it with a swap before taking the
// mutex, so a burst of wakes racing a sleeper that hasn't been rescheduled
// yet pays the mutex once, not once per wake; the sleeper re-publishes the
// flag before every re-check, so a consumed flag can never strand a parked
// waiter (the condition its waker established is re-read after the swap).
func (g *gate) wake() {
	if g.state.Load() == 0 {
		return
	}
	if g.state.Swap(0) == 0 {
		return
	}
	g.mu.Lock()
	g.cv.Broadcast()
	g.mu.Unlock()
}
