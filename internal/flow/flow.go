// Package flow is the Zipper runtime's flow-control plane: the gauges that
// turn raw counter increments into live delivered-throughput and stall
// signals, and the routers that consult those signals to pick a channel for
// every batch a producer's sender thread drains.
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
// Everything here is clocked by caller-supplied timestamps — rt.Ctx.Now()
// virtual time under simenv, wall time since the platform epoch under
// realenv — so the same controller runs deterministically inside the
// discrete-event simulator and live on the real machine. No gauge ever reads
// a wall clock of its own.
//
// Gauges are individually thread-safe (producer, stager, and application
// threads update them concurrently) and are leaves in the lock order: they
// take no other lock while held, so callers may update them under their own
// module locks.
//
// The fold rule. Writers run once per batch or per message; readers are few
// and slow — the adaptive router's stall fraction (once per routing
// decision) and the Stats snapshots. So the write side (Meter.Add,
// Level.Set) only accumulates: totals, occupancy and peak are exact at
// every instant, and the moving average is folded — one math.Exp — only
// when tau/foldsPerTau of gauge time has passed since the last fold. Events
// closer together than that quantum are averaged over the window they fell
// in; events at least a quantum apart are still folded one by one. A reader
// (Rate, Frac, Avg, LastRate) blends whatever has accumulated since the last
// fold into the value it returns, without mutating the gauge, so a read is
// always current and an idle gauge still decays toward zero. Because events
// inside a quantum are not told apart, a writer may report several at once
// (core's Write and Read report a batch of blocks with one Add) and, on a
// path that never blocks, may stamp with the latest clock reading its module
// already has instead of taking a fresh one (core's Read does); a stamp older
// than the gauge's latest event counts as that event's instant.
package flow

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTau is the EWMA time constant a zero-value gauge uses.
const DefaultTau = 50 * time.Millisecond

// foldsPerTau sets the fold quantum, tau/foldsPerTau. Events inside one
// quantum are averaged over it instead of weighted individually, which moves
// a rate by at most about 1/(2·foldsPerTau) of what that quantum contributed
// — under 2% even for a burst out of silence.
const foldsPerTau = 32

// tauOf resolves a gauge's time constant.
func tauOf(tau time.Duration) time.Duration {
	if tau <= 0 {
		return DefaultTau
	}
	return tau
}

// blend returns avg moved toward mean by the weight an exponential filter
// with time constant tau gives a window of length dt.
func blend(avg, mean float64, dt, tau time.Duration) float64 {
	alpha := 1 - math.Exp(-dt.Seconds()/tau.Seconds())
	return avg + alpha*(mean-avg)
}

// Meter is a monotonically increasing counter (events, blocks, bytes, or
// stalled nanoseconds) paired with an exponentially weighted moving average
// of its rate. The zero value is ready to use with DefaultTau.
type Meter struct {
	mu      sync.Mutex
	tau     time.Duration
	total   int64
	rate    float64 // units per second, folded up to `last`
	pending int64   // units observed in (last, seen], not yet folded
	last    time.Duration
	seen    time.Duration // latest event time (≥ last)
	started bool
}

// NewMeter returns a meter with the given EWMA time constant (0 selects
// DefaultTau). The returned value must not be copied after first use.
func NewMeter(tau time.Duration) Meter { return Meter{tau: tau} }

// Add records n units at time now. Timestamps may repeat (several events in
// the same instant) but must not go backwards; a stale now is treated as the
// latest event time. Add is O(1). Once a quantum has passed since the last
// fold it closes the window at the event before this one, so a burst
// followed by silence is folded where it happened, not smeared over the gap;
// and if that silence is itself a quantum or longer it folds this event over
// it, so sparse traffic is folded event by event.
func (m *Meter) Add(now time.Duration, n int64) {
	m.mu.Lock()
	tau := tauOf(m.tau)
	quantum := tau / foldsPerTau
	if m.started && now-m.last >= quantum && m.seen > m.last && now > m.seen {
		m.foldLocked(tau) // the window of earlier events
	}
	m.total += n
	m.pending += n
	if !m.started {
		m.started = true
		m.last, m.seen = now, now
	} else if now > m.seen {
		m.seen = now
		if now-m.last >= quantum {
			m.foldLocked(tau) // this event, over the silence before it
		}
	}
	m.mu.Unlock()
}

// foldLocked blends the pending window (last, seen] into the rate.
func (m *Meter) foldLocked(tau time.Duration) {
	m.rate = m.rateLocked(m.seen, tau)
	m.pending = 0
	m.last = m.seen
}

// rateLocked returns the rate as of now (≥ seen): the pending units blended
// in over the window they arrived in, (last, seen], then decayed over the
// silence since. Units that all carry the timestamp of the last fold (the
// meter's first instant, or more events in an instant a fold just closed)
// enter as that blend's limit for a vanishing window.
func (m *Meter) rateLocked(now, tau time.Duration) float64 {
	r, from := m.rate, m.last
	if m.pending != 0 {
		if dt := m.seen - m.last; dt > 0 {
			r = blend(r, float64(m.pending)/dt.Seconds(), dt, tau)
		} else {
			r += float64(m.pending) / tau.Seconds()
		}
		from = m.seen
	}
	if now > from && r != 0 {
		r = blend(r, 0, now-from, tau)
	}
	return r
}

// Total returns the lifetime count.
func (m *Meter) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Rate returns the EWMA rate in units per second as of now: it decays toward
// zero while no events arrive, without mutating the meter.
func (m *Meter) Rate(now time.Duration) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if now < m.seen {
		now = m.seen
	}
	return m.rateLocked(now, tauOf(m.tau))
}

// LastRate returns the EWMA rate as of the last recorded event, with no
// decay applied — the value FinalStats-style callers want once the platform
// has stopped and there is no live clock to decay against. (Rate reads any
// time before the last event as that event's.)
func (m *Meter) LastRate() float64 { return m.Rate(0) }

// AddDur records a duration (stall or busy time) as nanoseconds.
func (m *Meter) AddDur(now, d time.Duration) { m.Add(now, int64(d)) }

// TotalDur returns the lifetime total as a duration.
func (m *Meter) TotalDur() time.Duration { return time.Duration(m.Total()) }

// Frac interprets the meter as accumulated nanoseconds and returns the EWMA
// fraction of recent time spent accumulating (1.0 = permanently stalled).
func (m *Meter) Frac(now time.Duration) float64 {
	return m.Rate(now) / float64(time.Second)
}

// Level tracks an instantaneous occupancy (a queue depth) together with its
// capacity, peak, and a time-weighted EWMA. The zero value is ready to use;
// set the capacity with SetCapacity before readers consult it.
type Level struct {
	mu       sync.Mutex
	tau      time.Duration
	capacity int
	cur      int
	avg      float64 // folded up to `last`
	area     float64 // ∫cur dt over (last, mark], in occupancy·ns
	max      int64
	last     time.Duration
	mark     time.Duration // latest Set time (≥ last): cur has held since
	started  bool
	// debit counts the units that have left since the Sets so far absorbed
	// any (see Debit); it changes downward only under mu.
	debit atomic.Int64
}

// NewLevel returns a level gauge with the given capacity and EWMA time
// constant (0 selects DefaultTau). The returned value must not be copied
// after first use.
func NewLevel(capacity int, tau time.Duration) Level {
	return Level{capacity: capacity, tau: tau}
}

// SetCapacity declares the gauge's capacity (for zero-value embedding).
func (l *Level) SetCapacity(c int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.capacity = c
}

// Set records the occupancy v at time now. Set is O(1): between folds it
// integrates the occupancy that held since the previous Set, so the average
// stays time-weighted however rarely it is folded.
func (l *Level) Set(now time.Duration, v int) { l.SetAbsorbing(now, v, 0) }

// Debit notes that n units have left the queue, without the gauge's lock and
// without a timestamp. It is for an owner that lets several units go per
// visit to its own lock and accounts for them at the next one, with
// SetAbsorbing: Get subtracts what is outstanding, so the policies that poll
// the occupancy see the units gone at once, while the time-weighted average
// and the peak learn of them at the absorbing Set.
func (l *Level) Debit(n int) { l.debit.Add(int64(n)) }

// SetAbsorbing is Set for an occupancy v that accounts for n of the units
// debited so far.
func (l *Level) SetAbsorbing(now time.Duration, v, n int) {
	l.mu.Lock()
	l.debit.Add(-int64(n))
	if !l.started {
		l.started = true
		l.last, l.mark = now, now
		l.avg = float64(v)
	} else if now > l.mark {
		l.area += float64(l.cur) * float64(now-l.mark)
		l.mark = now
		tau := tauOf(l.tau)
		if now-l.last >= tau/foldsPerTau {
			l.avg = l.avgLocked(now, tau)
			l.area = 0
			l.last = now
		}
	}
	l.cur = v
	if int64(v) > l.max {
		l.max = int64(v)
	}
	l.mu.Unlock()
}

// avgLocked blends the window (last, now] — the integrated area plus cur
// held since mark — into the average and returns the result; now must be no
// earlier than mark and later than last.
func (l *Level) avgLocked(now, tau time.Duration) float64 {
	dt := now - l.last
	area := l.area + float64(l.cur)*float64(now-l.mark)
	return blend(l.avg, area/float64(dt), dt, tau)
}

// Get returns the current occupancy and the capacity. It is the probe the
// routing policies poll on every decision.
func (l *Level) Get() (queued, capacity int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur - int(l.debit.Load()), l.capacity
}

// Avg returns the time-weighted EWMA occupancy as of now, without mutating
// the gauge.
func (l *Level) Avg(now time.Duration) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if now < l.mark {
		now = l.mark
	}
	if !l.started || now <= l.last {
		return l.avg
	}
	return l.avgLocked(now, tauOf(l.tau))
}

// Max returns the peak occupancy ever recorded.
func (l *Level) Max() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.max
}
