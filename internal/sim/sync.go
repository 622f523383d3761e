package sim

import (
	"fmt"
	"time"
)

// Mutex is a FIFO mutual-exclusion lock for simulated processes. Ownership is
// handed directly to the longest-waiting process on Unlock, so lock
// acquisition order is deterministic.
type Mutex struct {
	eng     *Engine
	name    string
	owner   *Proc
	waiters []*Proc
}

// NewMutex returns an unlocked mutex. name appears in deadlock reports.
func NewMutex(e *Engine, name string) *Mutex {
	return &Mutex{eng: e, name: name}
}

// Lock acquires the mutex, blocking the calling process until it is available.
func (m *Mutex) Lock(p *Proc) {
	if m.owner == nil {
		m.owner = p
		return
	}
	if m.owner == p {
		panic(fmt.Sprintf("sim: recursive lock of mutex %q by %q", m.name, p.name))
	}
	m.waiters = append(m.waiters, p)
	p.block("mutex:" + m.name)
}

// Unlock releases the mutex, handing it to the longest waiter if any.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic(fmt.Sprintf("sim: unlock of mutex %q by non-owner %q", m.name, p.name))
	}
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	next := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.owner = next
	m.eng.wake(next)
}

// Holder reports the current owner, or nil when unlocked.
func (m *Mutex) Holder() *Proc { return m.owner }

// Waiters reports how many processes are queued for the mutex.
func (m *Mutex) Waiters() int { return len(m.waiters) }

// Cond is a condition variable associated with a Mutex. Wakeups are FIFO.
type Cond struct {
	M       *Mutex
	name    string
	waiters []condWaiter
}

// condWaiter is one process parked on a Cond. A timed waiter (WaitFor) also
// holds the timeout event it scheduled; a plain waiter has none and is
// blocked.
type condWaiter struct {
	p       *Proc
	timeout *event
}

// NewCond returns a condition variable using m as its lock.
func NewCond(m *Mutex, name string) *Cond {
	return &Cond{M: m, name: name}
}

// Wait atomically releases the mutex and suspends the process; on wake-up it
// re-acquires the mutex before returning. As with sync.Cond, callers must
// re-check their predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	c.mustHold(p, "Wait")
	c.waiters = append(c.waiters, condWaiter{p: p})
	c.M.Unlock(p)
	p.block("cond:" + c.name)
	c.M.Lock(p)
}

// WaitFor is Wait bounded by d: it returns after a Signal or Broadcast, or
// once d has elapsed, whichever comes first. Unsignalled it is Unlock,
// Delay(d), Lock: it schedules exactly the one event Delay(d) would, at the
// same (time, sequence) position. A signal cancels that event and wakes the
// process at the signal's time; on timeout the process leaves the wait
// queue, so a later Signal wakes the next waiter. A timed waiter always has
// its event pending, so it never appears in a DeadlockError.
func (c *Cond) WaitFor(p *Proc, d time.Duration) {
	c.mustHold(p, "WaitFor")
	if d < 0 {
		panic(fmt.Sprintf("sim: negative wait %v on cond %q in process %q", d, c.name, p.name))
	}
	c.M.Unlock(p)
	c.waiters = append(c.waiters, condWaiter{p: p, timeout: p.eng.schedule(p, p.eng.now+d)})
	p.yield()
	for i, w := range c.waiters {
		if w.p == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			break
		}
	}
	c.M.Lock(p)
}

func (c *Cond) mustHold(p *Proc, op string) {
	if c.M.owner != p {
		panic(fmt.Sprintf("sim: cond %q %s without holding mutex (process %q)", c.name, op, p.name))
	}
}

// wake resumes one dequeued waiter at the current time: a timed waiter's
// timeout event is cancelled in favour of an immediate one.
func (c *Cond) wake(w condWaiter) {
	if w.timeout == nil {
		c.M.eng.wake(w.p)
		return
	}
	w.timeout.canceled = true
	c.M.eng.schedule(w.p, c.M.eng.now)
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	c.wake(w)
}

// Broadcast wakes every waiting process in FIFO order.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		c.wake(w)
	}
}

// Semaphore is a counting semaphore with FIFO hand-off of permits.
type Semaphore struct {
	eng     *Engine
	name    string
	permits int
	waiters []*Proc
}

// NewSemaphore returns a semaphore holding n permits.
func NewSemaphore(e *Engine, name string, n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore count")
	}
	return &Semaphore{eng: e, name: name, permits: n}
}

// Acquire takes one permit, blocking until one is available.
func (s *Semaphore) Acquire(p *Proc) {
	if s.permits > 0 {
		s.permits--
		return
	}
	s.waiters = append(s.waiters, p)
	p.block("sem:" + s.name)
}

// TryAcquire takes a permit without blocking; it reports whether it did.
func (s *Semaphore) TryAcquire() bool {
	if s.permits > 0 {
		s.permits--
		return true
	}
	return false
}

// Release returns one permit, handing it to the longest waiter if any.
func (s *Semaphore) Release() {
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		s.eng.wake(w)
		return
	}
	s.permits++
}

// Available reports the number of free permits.
func (s *Semaphore) Available() int { return s.permits }

// Barrier blocks processes until n of them have arrived, then releases all of
// them. It is reusable (generation-counted).
type Barrier struct {
	eng     *Engine
	name    string
	n       int
	arrived []*Proc
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(e *Engine, name string, n int) *Barrier {
	if n <= 0 {
		panic("sim: barrier participant count must be positive")
	}
	return &Barrier{eng: e, name: name, n: n}
}

// Wait blocks until n processes (including this one) have called Wait.
func (b *Barrier) Wait(p *Proc) {
	if len(b.arrived)+1 == b.n {
		for _, w := range b.arrived {
			b.eng.wake(w)
		}
		b.arrived = nil
		return
	}
	b.arrived = append(b.arrived, p)
	p.block("barrier:" + b.name)
}

// WaitGroup mirrors sync.WaitGroup for simulated processes.
type WaitGroup struct {
	eng     *Engine
	name    string
	count   int
	waiters []*Proc
}

// NewWaitGroup returns an empty wait group.
func NewWaitGroup(e *Engine, name string) *WaitGroup {
	return &WaitGroup{eng: e, name: name}
}

// Add adds delta to the counter.
func (w *WaitGroup) Add(delta int) {
	w.count += delta
	if w.count < 0 {
		panic(fmt.Sprintf("sim: negative WaitGroup %q counter", w.name))
	}
	if w.count == 0 {
		w.release()
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks until the counter reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.count == 0 {
		return
	}
	w.waiters = append(w.waiters, p)
	p.block("waitgroup:" + w.name)
}

func (w *WaitGroup) release() {
	ws := w.waiters
	w.waiters = nil
	for _, p := range ws {
		w.eng.wake(p)
	}
}
