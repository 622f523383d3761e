package flow

import (
	"math"
	"sync"
	"time"
)

// Route is the channel a Router elects for one drained batch.
type Route int

const (
	// Direct sends straight to the consumer endpoint over the low-latency
	// message path.
	Direct Route = iota
	// Relay sends through the assigned in-transit stager.
	Relay
	// Disk is the work-stealing writer thread's channel: the oldest buffered
	// block goes through the file system. Route never returns it — the sender
	// thread only has the two network channels — but a DiskArbiter elects it
	// for the writer thread, and ObserveSend(Disk, …) reports what a steal
	// cost.
	Disk
)

// String names the route as the trace states do.
func (r Route) String() string {
	switch r {
	case Relay:
		return "relay"
	case Disk:
		return "steal"
	}
	return "send"
}

// OccupancyUnknown marks the stager occupancy fields of Signals when the
// stager has no occupancy gauge (an empty tier slot).
const OccupancyUnknown = -1

// Signals is the live backpressure state visible at one routing decision.
// The producer's sender thread assembles it, with the producer lock held,
// immediately after draining a batch.
type Signals struct {
	// Now is the platform clock (virtual time under simenv).
	Now time.Duration
	// Credits is the consumer receive window's remaining credit.
	Credits int
	// StagerCredits is the stager endpoint's remaining receive-window
	// credit. A free slot means a relay send deposits and returns
	// immediately even while the stager's admission is working through a
	// backlog — the most direct "would a relay block?" signal the platform
	// offers.
	StagerCredits int
	// StagerQueued / StagerCapacity are the assigned stager's live buffer
	// occupancy, or OccupancyUnknown without an occupancy gauge.
	StagerQueued   int
	StagerCapacity int
	// Backlog, Capacity, HighWater and Batch are read by no router and
	// filled by no producer; they stay declared for bench/'s probe only.
	Backlog, Capacity, HighWater, Batch int
}

// directBlocked reports whether a direct send would block: the consumer's
// window is out of credit.
func (s Signals) directBlocked() bool { return s.Credits == 0 }

// stagerFull reports whether the stager's in-memory buffer is at capacity:
// the reactive policy's second signal.
func (s Signals) stagerFull() bool {
	return s.StagerQueued != OccupancyUnknown && s.StagerQueued >= s.StagerCapacity
}

// relayBlocked reports whether a relay send would block: the stager's
// window is out of credit, so the send waits for a slot.
func (s Signals) relayBlocked() bool { return s.StagerCredits == 0 }

// Router elects a channel for each drained batch and absorbs the feedback
// the producer reports afterwards. Implementations must be safe for
// concurrent use: Route and ObserveSend run on the sender thread while
// ObserveStall runs on the application thread.
type Router interface {
	// Route picks the channel for the batch the sender just drained.
	Route(sig Signals) Route
	// ObserveSend reports a completed send: the channel it took, when it
	// finished, how long the Send call blocked plus transferred, and the
	// batch shape.
	ObserveSend(route Route, now, busy time.Duration, blocks int, bytes int64)
	// ObserveStall reports that the application's Write sat blocked on a
	// full producer buffer for `stall`, ending at now.
	ObserveStall(now, stall time.Duration)
}

// DiskArbiter is a Router that also decides the third channel. The paper's
// Algorithm 1 steals whenever the producer buffer is above HighWater, which
// assumes the file system is a resource independent of the network; a
// DiskArbiter is asked instead, each time the writer thread finds the buffer
// above HighWater, whether a steal is worth what it costs right now. The
// producer reports every completed steal with ObserveSend(Disk, …). Routers
// that do not implement it — the fixed and reactive policies, any plug-in
// written against Router alone — keep Algorithm 1's answer and never see a
// Disk observation.
type DiskArbiter interface {
	Router
	// ElectDisk reports whether the writer thread should steal the oldest
	// buffered block now. Called with the producer lock held.
	ElectDisk() bool
}

// Static returns the fixed-choice router behind RouteDirect and
// RouteStaging: every batch takes the same channel regardless of load.
func Static(r Route) Router { return staticRouter(r) }

// StaticRoute reports whether r is a fixed-choice router and, if so, its
// constant election. Producers use it to skip backpressure-signal assembly
// (credit probes, occupancy gauge reads) on the hot path of the fixed
// policies.
func StaticRoute(r Router) (Route, bool) {
	if s, ok := r.(staticRouter); ok {
		return Route(s), true
	}
	return Direct, false
}

type staticRouter Route

func (s staticRouter) Route(Signals) Route                                       { return Route(s) }
func (staticRouter) ObserveSend(Route, time.Duration, time.Duration, int, int64) {}
func (staticRouter) ObserveStall(time.Duration, time.Duration)                   {}

// Reactive returns the hybrid policy: a stateless per-batch cascade over the
// instantaneous backpressure signals — direct while the consumer's receive
// window has credit, staging relay while the stager has buffer room, and
// otherwise the blocking direct path (during which the work-stealing writer
// drains the overflow through the file system).
func Reactive() Router { return reactiveRouter{} }

type reactiveRouter struct{}

func (reactiveRouter) Route(s Signals) Route {
	// Credit means a direct send will not block. Without it, a saturated
	// stager would block the relay too: block here, and the writer steals.
	if s.Credits > 0 || s.stagerFull() {
		return Direct
	}
	return Relay
}

func (reactiveRouter) ObserveSend(Route, time.Duration, time.Duration, int, int64) {}
func (reactiveRouter) ObserveStall(time.Duration, time.Duration)                   {}

// Tuning parameterizes the adaptive controller. The zero value selects the
// defaults noted on each field.
type Tuning struct {
	// Tau is the EWMA time constant of the controller's stall gauge
	// (default 20ms — virtual time under simenv).
	Tau time.Duration
	// Decay is the relaxation time constant of the staging share: while the
	// producer runs stall-free the share falls toward zero with this
	// half-life-ish constant, handing traffic back to the lower-latency
	// direct path (default 10×Tau).
	Decay time.Duration
	// ProbeInterval is how often, in decisions, the controller probes the
	// minority channel while both channels are saturated, so a recovery on
	// the idle channel is noticed (default every 16th decision).
	ProbeInterval int
}

func (t Tuning) withDefaults() Tuning {
	if t.Tau <= 0 {
		t.Tau = 20 * time.Millisecond
	}
	if t.Decay <= 0 {
		t.Decay = 10 * t.Tau
	}
	if t.ProbeInterval <= 0 {
		t.ProbeInterval = 16
	}
	return t
}

// stallEps is the stall fraction below which the producer counts as healthy
// and the staging share is allowed to relax.
const stallEps = 0.01

// costAlpha is the per-sample weight of the channel cost EWMAs, and
// shareBeta the per-decision tracking speed of the staging share under
// pressure. Both are per-event (not per-second) constants, so the controller
// behaves identically at any timescale.
const (
	costAlpha = 0.2
	shareBeta = 0.2
)

// costEWMA is a sample-weighted average of a channel's delivery cost in
// ns/byte, fed by every completed send on that channel.
type costEWMA struct {
	v    float64
	seen bool
}

func (e *costEWMA) add(x float64) {
	if !e.seen {
		e.v, e.seen = x, true
		return
	}
	e.v += costAlpha * (x - e.v)
}

// Adaptive is the closed-loop controller behind RouteAdaptive. It watches
// three families of gauges — a producer-stall EWMA, per-channel congestion
// fractions (how often each channel's window was exhausted at decision
// time), and per-channel blocked-delivery costs — and continuously
// rebalances the direct/staging split with an AIMD law:
//
//   - climb: while the producer is stalling and the relay shows no more
//     congestion than the direct path, the staging share climbs (additive,
//     scaled by the stall fraction) — this is what a reactive policy cannot
//     do: window credit alone looks healthy at poll instants even while the
//     pipeline as a whole is backlogged, so the reactive policy never sheds
//     load and the producer eats the whole backlog as stall;
//   - back off: when the relay congests more than the direct path the share
//     falls multiplicatively harder than it climbs, so the split hovers at
//     the staging tier's actual service capacity instead of funneling;
//   - relax: while healthy the share decays toward zero with time
//     constant Decay, handing traffic back to the low-latency direct path;
//   - work conservation: a batch never blocks on its elected channel while
//     the other channel has a free window slot, and when both are exhausted
//     it waits on the one with the lower measured blocked-delivery cost,
//     probing the other every ProbeInterval-th saturated decision;
//   - disk: the writer thread's steals are the controller's third outcome
//     (see ElectDisk), priced by the same kind of gauge as the two network
//     channels, so the file system is not filled behind the router's back
//     while a cheaper channel has room.
//
// All state is clocked by Signals.Now / the observation timestamps, so the
// controller is deterministic under simenv and shared unchanged by realenv.
type Adaptive struct {
	mu        sync.Mutex
	tun       Tuning
	share     float64 // current staging share in [0, 1]
	acc       float64 // deterministic weighted-interleave accumulator
	lastRelax time.Duration
	pressured int // pressured decisions, for the probing cadence

	stall    meter    // ns the producer's Write sat blocked
	dBlk     costEWMA // fraction of decisions that found the direct window exhausted
	rBlk     costEWMA // fraction of decisions that found the stager window exhausted
	dCost    costEWMA // direct-channel blocked-delivery cost, ns/byte
	rCost    costEWMA // relay-channel blocked-delivery cost, ns/byte
	diskCost costEWMA // disk-channel cost, ns/byte of the writer thread's steals

	diskDeclined int // steals declined since the last one, for the disk probe
}

// NewAdaptive returns an adaptive router with the given tuning.
func NewAdaptive(t Tuning) *Adaptive {
	t = t.withDefaults()
	return &Adaptive{tun: t, stall: meter{tau: t.Tau}}
}

// costLocked reports a channel's measured blocked-delivery cost; an
// unmeasured channel reads as free so exploration is never blocked by
// ignorance.
func (a *Adaptive) costLocked(r Route) float64 {
	if r == Relay {
		if !a.rCost.seen {
			return 0
		}
		return a.rCost.v
	}
	if !a.dCost.seen {
		return 0
	}
	return a.dCost.v
}

// minActiveShare is the share below which healthy traffic runs purely
// direct (and the interleave accumulator resets). congestionMargin is how
// much more often the relay may block than the direct path before the
// controller counts it as the more congested channel.
const (
	minActiveShare   = 0.02
	congestionMargin = 0.05
)

func other(r Route) Route {
	if r == Relay {
		return Direct
	}
	return Relay
}

// Route implements Router.
func (a *Adaptive) Route(s Signals) Route {
	a.mu.Lock()
	defer a.mu.Unlock()
	blocked, relayBlk := s.directBlocked(), s.relayBlocked()
	a.dBlk.add(b2f(blocked))
	a.rBlk.add(b2f(relayBlk))
	stallFrac := a.stall.frac(s.Now)
	pressure := blocked || stallFrac > stallEps
	if !pressure {
		// Healthy: the share relaxes toward zero and traffic follows
		// it home to the low-latency direct path.
		a.relaxLocked(s.Now)
		if a.share < minActiveShare {
			a.acc = 0
			return Direct
		}
		return a.interleaveLocked()
	}
	// The AIMD share update — the closed loop. Climb speed scales with how
	// badly the producer is stalling; back-off is a hard multiplicative cut
	// so an oversubscribed relay sheds load quickly.
	a.lastRelax = s.Now
	if a.rBlk.v > a.dBlk.v+congestionMargin {
		a.share *= 0.7
	} else {
		climb := 0.01 + 0.1*math.Min(1, stallFrac)
		a.share = math.Min(1, a.share+climb)
	}
	a.pressured++
	probe := a.pressured%a.tun.ProbeInterval == 0
	switch {
	case blocked && !relayBlk:
		// Work conservation: never block on the direct window while the
		// stager can take the batch immediately.
		return Relay
	case relayBlk && !blocked:
		return Direct
	case blocked && relayBlk:
		// Both windows exhausted: wait on the channel with the lower
		// measured blocked-delivery cost, probing the other periodically
		// so a recovery there is noticed.
		relay := a.costLocked(Relay) <= a.costLocked(Direct)
		if probe {
			relay = !relay
		}
		if relay {
			return Relay
		}
		return Direct
	}
	// Both channels have a free slot: deal batches in the ratio of the
	// staging share; probes keep the minority channel's gauges fresh.
	if probe {
		if a.share >= 0.5 {
			return Direct
		}
		return Relay
	}
	return a.interleaveLocked()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// interleaveLocked deals batches Direct/Relay in the ratio of the staging
// share, deterministically (an error accumulator, not a coin flip).
func (a *Adaptive) interleaveLocked() Route {
	a.acc += a.share
	if a.acc >= 1 {
		a.acc--
		return Relay
	}
	return Direct
}

// relaxLocked decays the staging share toward zero while the producer is
// healthy (no recent stall).
func (a *Adaptive) relaxLocked(now time.Duration) {
	if !(now > a.lastRelax) {
		return
	}
	dt := now - a.lastRelax
	a.lastRelax = now
	a.share *= math.Exp(-dt.Seconds() / a.tun.Decay.Seconds())
}

// diskMargin is how many times the network's cost per byte a steal may cost
// and still be elected: the writer thread runs beside the sender, so a disk
// channel as slow as the network, or a few times slower, still adds
// bandwidth the producer would otherwise wait for, while one that is orders
// of magnitude slower only takes processor time and file-system work from a
// network path that was about to drain the buffer anyway.
const diskMargin = 10

// diskProbeFactor spaces the disk probe: every diskProbeFactor×ProbeInterval
// declined steals one is elected regardless, so a file system that has
// recovered is noticed. Far sparser than the network probe because a probe
// that was not worth it costs a whole file-system round trip on both ends.
const diskProbeFactor = 16

// ElectDisk implements DiskArbiter: steal while the disk channel's measured
// cost is within diskMargin of what the network currently costs — the cheaper
// of the measured network channels, which is where the sender thread would
// otherwise put the block. An unmeasured disk reads as free, so the first
// steal explores; with no network channel measured yet there is nothing to
// weigh disk against and Algorithm 1's answer stands.
func (a *Adaptive) ElectDisk() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.diskWorthItLocked() {
		a.diskDeclined = 0
		return true
	}
	a.diskDeclined++
	if a.diskDeclined >= diskProbeFactor*a.tun.ProbeInterval {
		a.diskDeclined = 0
		return true
	}
	return false
}

func (a *Adaptive) diskWorthItLocked() bool {
	if !a.diskCost.seen {
		return true
	}
	net := math.Inf(1) // no network channel measured: anything is worth it
	if a.dCost.seen {
		net = a.dCost.v
	}
	if a.rCost.seen {
		net = math.Min(net, a.rCost.v)
	}
	return a.diskCost.v <= diskMargin*net
}

// ObserveSend implements Router: it feeds the per-channel cost gauges with
// the busy time (blocking included) per payload byte of every data send, and
// of every steal the writer thread reports as a Disk send.
func (a *Adaptive) ObserveSend(route Route, now, busy time.Duration, blocks int, bytes int64) {
	if bytes <= 0 {
		return // Fins and ID-only sends carry no payload cost signal
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	c := float64(busy) / float64(bytes)
	switch route {
	case Relay:
		a.rCost.add(c)
	case Disk:
		a.diskCost.add(c)
	default:
		a.dCost.add(c)
	}
}

// ObserveStall implements Router: it feeds the stall gauge whose EWMA keeps
// the controller in pressure-tracking mode.
func (a *Adaptive) ObserveStall(now, stall time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stall.add(now, int64(stall))
}

// Share returns the controller's current staging share target.
func (a *Adaptive) Share() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.share
}

// meter is the producer-stall gauge an Adaptive router steers on: a running
// count (stalled nanoseconds) with an exponentially weighted moving average of
// its rate, time constant tau. It has no lock of its own; Adaptive.mu guards
// it.
//
// The fold rule. Stalls are reported per Write that blocked and the average
// is read once per routing decision, so add only accumulates, and the
// average is folded — one math.Exp — only when tau/foldsPerTau of gauge time
// has passed since the last fold. Events closer together than that quantum
// are averaged over the window they fell in; events at least a quantum apart
// are still folded one by one. A read blends whatever has accumulated since
// the last fold into the value it returns, without mutating the gauge, so a
// read is always current and an idle gauge still decays toward zero. A stamp
// older than the gauge's latest event counts as that event's instant.
type meter struct {
	tau     time.Duration
	rate    float64 // units per second, folded up to `last`
	pending int64   // units observed in (last, seen], not yet folded
	last    time.Duration
	seen    time.Duration // latest event time (≥ last)
	started bool
}

// foldsPerTau sets the fold quantum, tau/foldsPerTau. Events inside one
// quantum are averaged over it instead of weighted individually, which moves
// a rate by at most about 1/(2·foldsPerTau) of what that quantum contributed
// — under 2% even for a burst out of silence.
const foldsPerTau = 32

// blend returns avg moved toward mean by the weight an exponential filter
// with time constant tau gives a window of length dt.
func blend(avg, mean float64, dt, tau time.Duration) float64 {
	alpha := 1 - math.Exp(-dt.Seconds()/tau.Seconds())
	return avg + alpha*(mean-avg)
}

// add records n units at time now. Timestamps may repeat (several events in
// the same instant) but must not go backwards; a stale now is treated as the
// latest event time. Once a quantum has passed since the last fold it closes
// the window at the event before this one, so a burst followed by silence is
// folded where it happened, not smeared over the gap; and if that silence is
// itself a quantum or longer it folds this event over it, so sparse traffic
// is folded event by event.
func (m *meter) add(now time.Duration, n int64) {
	quantum := m.tau / foldsPerTau
	if m.started && now-m.last >= quantum && m.seen > m.last && now > m.seen {
		m.fold() // the window of earlier events
	}
	m.pending += n
	if !m.started {
		m.started = true
		m.last, m.seen = now, now
	} else if now > m.seen {
		m.seen = now
		if now-m.last >= quantum {
			m.fold() // this event, over the silence before it
		}
	}
}

// fold blends the pending window (last, seen] into the rate.
func (m *meter) fold() {
	m.rate = m.at(m.seen)
	m.pending = 0
	m.last = m.seen
}

// at returns the rate as of now (≥ seen): the pending units blended in over
// the window they arrived in, (last, seen], then decayed over the silence
// since. Units that all carry the timestamp of the last fold (the meter's
// first instant, or more events in an instant a fold just closed) enter as
// that blend's limit for a vanishing window.
func (m *meter) at(now time.Duration) float64 {
	r, from := m.rate, m.last
	if m.pending != 0 {
		if dt := m.seen - m.last; dt > 0 {
			r = blend(r, float64(m.pending)/dt.Seconds(), dt, m.tau)
		} else {
			r += float64(m.pending) / m.tau.Seconds()
		}
		from = m.seen
	}
	if now > from && r != 0 {
		r = blend(r, 0, now-from, m.tau)
	}
	return r
}

// rateAt returns the EWMA rate in units per second as of now: it decays
// toward zero while no events arrive, without mutating the meter.
func (m *meter) rateAt(now time.Duration) float64 {
	return m.at(max(now, m.seen))
}

// frac interprets the meter as accumulated nanoseconds and returns the EWMA
// fraction of recent time spent accumulating (1.0 = permanently stalled).
func (m *meter) frac(now time.Duration) float64 {
	return m.rateAt(now) / float64(time.Second)
}
