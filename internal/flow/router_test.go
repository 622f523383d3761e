package flow

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestStaticRouters pins the fixed policies.
func TestStaticRouters(t *testing.T) {
	sig := Signals{Credits: 0, Backlog: 99, HighWater: 6}
	if Static(Direct).Route(sig) != Direct {
		t.Fatal("Static(Direct) relayed")
	}
	if Static(Relay).Route(sig) != Relay {
		t.Fatal("Static(Relay) went direct")
	}
}

// TestReactiveRouterMatchesLegacyCascade pins the hybrid policy to the exact
// decision table the producer's routeLocked used to hard-code, so the
// refactor is behavior-preserving for RouteHybrid.
func TestReactiveRouterMatchesLegacyCascade(t *testing.T) {
	r := Reactive()
	cases := []struct {
		name string
		sig  Signals
		want Route
	}{
		{"credit available", Signals{Credits: 2, StagerQueued: 0, StagerCapacity: 64}, Direct},
		{"no credit, stager room", Signals{Credits: 0, StagerQueued: 10, StagerCapacity: 64}, Relay},
		{"no credit, stager full", Signals{Credits: 0, StagerQueued: 64, StagerCapacity: 64}, Direct},
		{"no credit, occupancy unknown", Signals{Credits: 0, StagerQueued: OccupancyUnknown, StagerCapacity: OccupancyUnknown}, Relay},
		{"no visibility, shallow buffer", Signals{Credits: CreditsUnknown, Backlog: 2, HighWater: 6}, Direct},
		{"no visibility, deep buffer", Signals{Credits: CreditsUnknown, Backlog: 6, HighWater: 6}, Relay},
	}
	for _, tc := range cases {
		if got := r.Route(tc.sig); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// adaptiveHarness drives an Adaptive controller through scripted decision
// rounds: each round advances the clock by `step`, reports any stall, asks
// for a route under the given signals, and reports the send back with a
// route-dependent cost (directBusy / relayBusy model the two channels'
// service rates).
type adaptiveHarness struct {
	a                     *Adaptive
	now                   time.Duration
	directBusy, relayBusy time.Duration
}

func (h *adaptiveHarness) round(step, stall time.Duration, sig Signals) Route {
	h.now += step
	if stall > 0 {
		h.a.ObserveStall(h.now, stall)
	}
	sig.Now = h.now
	r := h.a.Route(sig)
	busy := h.directBusy
	if r == Relay {
		busy = h.relayBusy
	}
	h.a.ObserveSend(r, h.now, busy, 1, 1<<15)
	return r
}

// TestAdaptiveConvergence is the controller's step-response test: a healthy
// phase must keep traffic direct, a consumer slowdown (stalls + exhausted
// credit) must shift the split toward staging within a bounded number of
// batches, and a recovery must hand the traffic back to the direct path —
// all deterministic, clocked by scripted timestamps.
func TestAdaptiveConvergence(t *testing.T) {
	// The direct channel costs 10× the relay per byte once the consumer
	// lags — the regime where the staging tier earns its keep.
	h := &adaptiveHarness{
		a:          NewAdaptive(Tuning{Tau: 2 * time.Millisecond, Decay: 10 * time.Millisecond}),
		directBusy: 2 * time.Millisecond,
		relayBusy:  200 * time.Microsecond,
	}
	healthy := Signals{Credits: 3, StagerCredits: 2, StagerQueued: 0, StagerCapacity: 64}
	step := time.Millisecond

	// Phase A — healthy: no stalls, credit available. All direct.
	for i := 0; i < 50; i++ {
		if r := h.round(step, 0, healthy); r != Direct {
			t.Fatalf("healthy decision %d routed %v", i, r)
		}
	}
	if s := h.a.Share(); s != 0 {
		t.Fatalf("healthy share %.3f, want 0", s)
	}

	// Phase B — slowdown: the consumer lags, Write stalls and the window is
	// out of credit. The split must shift to staging within 10 batches.
	congested := Signals{Credits: 0, StagerCredits: 2, StagerQueued: 8, StagerCapacity: 64}
	relays := 0
	for i := 0; i < 10; i++ {
		if h.round(step, 3*time.Millisecond, congested) == Relay {
			relays++
		}
	}
	if relays < 8 {
		t.Fatalf("slowdown: only %d/10 batches relayed", relays)
	}
	if s := h.a.Share(); s < 0.5 {
		t.Fatalf("share %.3f after sustained stalls, want > 0.5", s)
	}
	// Even when credit reappears briefly, a raised share keeps most batches
	// on the relay — the proactive behavior the reactive policy lacks.
	borrowed := Signals{Credits: 1, StagerCredits: 2, StagerQueued: 8, StagerCapacity: 64}
	relays = 0
	for i := 0; i < 10; i++ {
		if h.round(step, 2*time.Millisecond, borrowed) == Relay {
			relays++
		}
	}
	if relays < 5 {
		t.Fatalf("raised share relayed only %d/10 batches with credit available", relays)
	}

	// Phase C — recovery: stalls stop, credit returns. Within a bounded
	// number of batches (a few Decay constants) the split must come back.
	for i := 0; i < 100; i++ {
		h.round(step, 0, healthy)
	}
	if s := h.a.Share(); s > 0.05 {
		t.Fatalf("share %.3f after recovery, want < 0.05", s)
	}
	for i := 0; i < 10; i++ {
		if r := h.round(step, 0, healthy); r != Direct {
			t.Fatalf("post-recovery decision %d routed %v", i, r)
		}
	}
}

// TestAdaptiveShedsACongestedRelay is the other half of the closed loop:
// when the staging tier is the congested channel (its receive window keeps
// exhausting), stalls must NOT funnel traffic into it — the AIMD back-off
// keeps the split on the direct path, where the work-stealing writer can
// help.
func TestAdaptiveShedsACongestedRelay(t *testing.T) {
	h := &adaptiveHarness{
		a:          NewAdaptive(Tuning{Tau: 2 * time.Millisecond, Decay: 10 * time.Millisecond}),
		directBusy: 100 * time.Microsecond,
		relayBusy:  4 * time.Millisecond,
	}
	// The stager's window is exhausted on most decisions (an oversubscribed
	// or serialized staging tier) while the direct path keeps a free slot.
	// The producer stalls throughout, which would naively argue for MORE
	// relaying — the congestion differential must override that.
	relaysWhenOpen, open := 0, 0
	for i := 0; i < 200; i++ {
		sig := Signals{Credits: 1, StagerCredits: 0, StagerQueued: 64, StagerCapacity: 64}
		if i%4 == 3 { // the stager frees a slot every 4th decision
			sig.StagerCredits = 1
		}
		r := h.round(time.Millisecond, time.Millisecond, sig)
		if sig.StagerCredits > 0 {
			open++
			if r == Relay {
				relaysWhenOpen++
			}
		} else if r == Relay {
			t.Fatalf("decision %d relayed into an exhausted stager window with direct free", i)
		}
	}
	if relaysWhenOpen*3 > open {
		t.Fatalf("%d/%d open-slot batches still funneled into the congested relay", relaysWhenOpen, open)
	}
	if s := h.a.Share(); s > 0.3 {
		t.Fatalf("share %.3f despite a congested relay, want ≈0", s)
	}
}

// TestAdaptiveSaturationPrefersCheaperChannel checks the both-saturated
// arbitration: where the reactive policy hard-codes the blocking direct
// path, the adaptive controller drains through whichever channel has been
// delivering more cheaply, and probes the minority channel periodically.
func TestAdaptiveSaturationPrefersCheaperChannel(t *testing.T) {
	a := NewAdaptive(Tuning{Tau: 2 * time.Millisecond, ProbeInterval: 8})
	now := time.Duration(0)
	// Teach the controller that the relay delivers ~10× cheaper per byte.
	for i := 0; i < 50; i++ {
		now += time.Millisecond
		a.ObserveSend(Relay, now, 200*time.Microsecond, 1, 1<<15)
		a.ObserveSend(Direct, now, 2*time.Millisecond, 1, 1<<15)
	}
	sat := Signals{Credits: 0, StagerCredits: 0, StagerQueued: 64, StagerCapacity: 64}
	relays, probes := 0, 0
	for i := 0; i < 32; i++ {
		now += time.Millisecond
		sat.Now = now
		if a.Route(sat) == Relay {
			relays++
		} else {
			probes++
		}
	}
	if relays < 20 {
		t.Fatalf("saturated: only %d/32 took the cheaper relay channel", relays)
	}
	if probes == 0 {
		t.Fatal("saturated: the more expensive channel was never probed")
	}
}

// TestAdaptiveDeterministic: two controllers fed the same script must make
// identical decisions, on all three channels — the property that keeps simenv
// runs reproducible. The script's steal costs swing between a disk that is
// worth electing and one that is not, so the disk outcome is exercised both
// ways.
func TestAdaptiveDeterministic(t *testing.T) {
	script := func() (out []Route, steals []bool) {
		h := &adaptiveHarness{a: NewAdaptive(Tuning{}), directBusy: 40 * time.Microsecond, relayBusy: 20 * time.Microsecond}
		for i := 0; i < 600; i++ {
			stall := time.Duration(0)
			if i%7 == 3 {
				stall = time.Duration(i%5) * time.Millisecond
			}
			sig := Signals{Credits: i % 3, StagerCredits: (i + 1) % 3, StagerQueued: i % 70, StagerCapacity: 64}
			out = append(out, h.round(time.Millisecond, stall, sig))
			steal := h.a.ElectDisk()
			steals = append(steals, steal)
			if steal {
				busy := 100 * time.Microsecond
				if i/100%2 == 1 {
					busy = 10 * time.Millisecond
				}
				h.a.ObserveSend(Disk, h.now, busy, 1, 1<<15)
			}
		}
		return out, steals
	}
	a, sa := script()
	b, sb := script()
	for i := range a {
		if a[i] != b[i] || sa[i] != sb[i] {
			t.Fatalf("decision %d diverged: %v/%v vs %v/%v", i, a[i], sa[i], b[i], sb[i])
		}
	}
	yes := 0
	for _, s := range sa {
		if s {
			yes++
		}
	}
	if yes == 0 || yes == len(sa) {
		t.Fatalf("the script elected disk %d of %d times, want both outcomes", yes, len(sa))
	}
}

// TestOnlyAdaptiveArbitratesDisk pins who decides a steal: the fixed and
// reactive policies are not DiskArbiters, so a producer running them — or any
// plug-in written against Router alone — keeps Algorithm 1's answer (above
// HighWater, steal).
func TestOnlyAdaptiveArbitratesDisk(t *testing.T) {
	for name, r := range map[string]Router{
		"static direct": Static(Direct), "static relay": Static(Relay), "reactive": Reactive(),
	} {
		if _, ok := r.(DiskArbiter); ok {
			t.Errorf("%s router arbitrates disk, want Algorithm 1's answer", name)
		}
	}
	var _ DiskArbiter = NewAdaptive(Tuning{})
	if Disk.String() != "steal" {
		t.Errorf("Disk renders as %q, want the writer thread's trace state", Disk.String())
	}
}

// TestAdaptiveDiskElection is the cost rule's decision table: each case
// teaches the controller what the channels cost per byte (a negative cost
// leaves the channel unmeasured) and asks once.
func TestAdaptiveDiskElection(t *testing.T) {
	const blk = 1 << 15
	perByte := func(ns float64) time.Duration { return time.Duration(ns * blk) }
	cases := []struct {
		name                string
		direct, relay, disk float64 // ns/byte
		want                bool
	}{
		{"nothing measured: Algorithm 1's answer", -1, -1, -1, true},
		{"disk unmeasured reads as free: explore", 0.01, 0.01, -1, true},
		{"no network channel measured: nothing to weigh disk against", -1, -1, 3, true},
		{"disk three orders slower than a ring relay", 2, 0.005, 3, false},
		{"disk three orders slower than the only measured channel", 0.005, -1, 3, false},
		{"disk as fast as the relay: steal in parallel", 40, 3, 3, true},
		{"disk a few times slower than the cheaper channel", 1, 5, 4, true},
		{"disk just past an order of magnitude", 0.2, 5, 2.5, false},
		{"disk cheaper than either network channel", 8, 6, 1, true},
	}
	for _, tc := range cases {
		a := NewAdaptive(Tuning{})
		for i := 0; i < 20; i++ {
			if tc.direct >= 0 {
				a.ObserveSend(Direct, 0, perByte(tc.direct), 1, blk)
			}
			if tc.relay >= 0 {
				a.ObserveSend(Relay, 0, perByte(tc.relay), 1, blk)
			}
			if tc.disk >= 0 {
				a.ObserveSend(Disk, 0, perByte(tc.disk), 1, blk)
			}
		}
		if got := a.ElectDisk(); got != tc.want {
			t.Errorf("%s: ElectDisk() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestAdaptiveDiskExploresOnce: an unmeasured disk is elected, and the one
// steal that follows is the measurement — a disk it shows to be far slower
// than the network is not elected again.
func TestAdaptiveDiskExploresOnce(t *testing.T) {
	a := NewAdaptive(Tuning{})
	a.ObserveSend(Relay, 0, 300*time.Nanosecond, 1, 1<<15) // ≈ 0.01 ns/byte
	if !a.ElectDisk() {
		t.Fatal("unmeasured disk not explored")
	}
	a.ObserveSend(Disk, 0, 100*time.Microsecond, 1, 1<<15) // ≈ 3 ns/byte
	for i := 0; i < 10; i++ {
		if a.ElectDisk() {
			t.Fatalf("ask %d after the exploring steal elected disk again", i)
		}
	}
}

// TestAdaptiveDiskProbeCadence: while disk is out of the running, exactly one
// ask in diskProbeFactor×ProbeInterval is elected anyway, so its gauge does
// not go stale — and when the probes show the file system has recovered,
// stealing resumes.
func TestAdaptiveDiskProbeCadence(t *testing.T) {
	a := NewAdaptive(Tuning{ProbeInterval: 4})
	every := diskProbeFactor * 4
	a.ObserveSend(Relay, 0, 30*time.Microsecond, 1, 1<<15) // ≈ 1 ns/byte
	a.ObserveSend(Disk, 0, 10*time.Millisecond, 1, 1<<15)  // ≈ 300 ns/byte
	for ask := 1; ask <= 3*every; ask++ {
		got := a.ElectDisk()
		if want := ask%every == 0; got != want {
			t.Fatalf("ask %d: ElectDisk() = %v, want %v (one probe per %d)", ask, got, want, every)
		}
		if got {
			a.ObserveSend(Disk, 0, 10*time.Millisecond, 1, 1<<15) // still slow
		}
	}
	// The file system recovers: each probe now reads ≈ 1 ns/byte, and the
	// EWMA has to come down from 300 to within 10× of the relay's 1.
	// A probe is a lone yes; two in a row mean the rule itself elects disk.
	probes, last := 0, false
	for ask := 0; ask < 40*every; ask++ {
		got := a.ElectDisk()
		if got && last {
			return
		}
		if last = got; got {
			probes++
			a.ObserveSend(Disk, 0, 30*time.Microsecond, 1, 1<<15)
		}
	}
	t.Fatalf("stealing did not resume after %d probes of a recovered file system", probes)
}

// The stall gauge (meter) against its eager reference.

func TestMeterTotalAndRate(t *testing.T) {
	m := meter{tau: 100 * time.Millisecond}
	// 10 events per 10ms = 1000 events/s, sustained for 40 taus.
	for i := 1; i <= 400; i++ {
		m.add(time.Duration(i)*10*time.Millisecond, 10)
	}
	now := 400 * 10 * time.Millisecond
	if r := m.rateAt(now); r < 900 || r > 1100 {
		t.Fatalf("steady-state rate %.1f, want ≈1000", r)
	}
	// After 5 time constants of silence the rate must have decayed hard.
	later := now + 500*time.Millisecond
	if r := m.rateAt(later); r > 50 {
		t.Fatalf("rate %.1f after 5τ of silence, want ≈0", r)
	}
	if m.rateAt(later) != m.rateAt(later) || m.rateAt(now) < 900 {
		t.Fatal("a read must not mutate the meter")
	}
}

func TestMeterSameInstantEvents(t *testing.T) {
	m := meter{tau: 50 * time.Millisecond}
	for i := 0; i < 5; i++ {
		m.add(time.Millisecond, 2) // several events in the same instant
	}
	m.add(2*time.Millisecond, 2)
	if m.rateAt(2*time.Millisecond) <= 0 {
		t.Fatal("rate should be positive once time advances")
	}
}

func TestMeterDurationHelpers(t *testing.T) {
	m := meter{tau: 50 * time.Millisecond}
	// Stalled 5ms out of every 10ms: a 50% stall fraction.
	for i := 1; i <= 100; i++ {
		m.add(time.Duration(i)*10*time.Millisecond, int64(5*time.Millisecond))
	}
	if f := m.frac(time.Second); f < 0.4 || f > 0.6 {
		t.Fatalf("stall fraction %.2f, want ≈0.5", f)
	}
}

// eagerMeter is the straightforward reference the lazy meter is checked
// against: an EWMA fold on every event whose timestamp advanced, exactly what
// the meter did before the fold quantum.
type eagerMeter struct {
	tau     time.Duration
	rate    float64
	pending int64
	last    time.Duration
	started bool
}

func (m *eagerMeter) add(now time.Duration, n int64) {
	if !m.started {
		m.started, m.last = true, now
	}
	m.pending += n
	if now > m.last {
		m.rate = m.rateAt(now)
		m.pending, m.last = 0, now
	}
}

func (m *eagerMeter) rateAt(now time.Duration) float64 {
	if !m.started || now <= m.last {
		return m.rate
	}
	dt := now - m.last
	return blend(m.rate, float64(m.pending)/dt.Seconds(), dt, m.tau)
}

// gaugeStream is a random event stream shaped like the runtime's: dense
// bursts a few hundred nanoseconds apart, timestamps that repeat (several
// events inside one critical section, or one simenv instant), and idle gaps
// far longer than tau.
func gaugeStream(seed int64, tau time.Duration, events int) []time.Duration {
	r := rand.New(rand.NewSource(seed))
	at := make([]time.Duration, events)
	now := time.Duration(r.Intn(1000)) * time.Microsecond
	for i := range at {
		switch p := r.Intn(1000); {
		case p < 2:
			now += tau * time.Duration(3+r.Intn(40)) // idle ≫ tau
		case p < 300:
			// same instant
		case p < 990:
			now += time.Duration(50 + r.Intn(2000)) // burst
		default:
			now += tau / time.Duration(1+r.Intn(64)) // a lull around the quantum
		}
		at[i] = now
	}
	return at
}

// within reports whether got is within 2% of want, relative to the largest
// value the reference has shown so far (a rate decaying through zero has no
// meaningful relative error of its own).
func within(got, want, scale float64) bool {
	return math.Abs(got-want) <= 0.02*math.Max(scale, math.Abs(want))
}

// TestGaugesMatchEagerReference drives the lazy stall meter and its eager
// reference with the same random streams and checks, at every point a reader
// could look, the rate and the stall fraction within 2% of the reference, and
// decay toward zero while idle.
func TestGaugesMatchEagerReference(t *testing.T) {
	for _, tau := range []time.Duration{50 * time.Millisecond, 20 * time.Millisecond, time.Millisecond} {
		for seed := int64(1); seed <= 8; seed++ {
			r := rand.New(rand.NewSource(seed * 7919))
			m, em := meter{tau: tau}, eagerMeter{tau: tau}
			var peakRate float64
			for i, now := range gaugeStream(seed, tau, 20000) {
				n := int64(1 + r.Intn(16))
				m.add(now, n)
				em.add(now, n)
				// The reference folds units that share a fold's timestamp only
				// once time moves on, and would smear them over whatever
				// silence follows: let a nanosecond pass on a copy of it first.
				// Then read right after the event, a quantum later and well
				// into an idle stretch.
				ref := em
				ref.add(now+1, 0)
				for _, at := range []time.Duration{now + 1, now + tau/foldsPerTau, now + 3*tau} {
					want := ref.rateAt(at)
					peakRate = math.Max(peakRate, want)
					if got := m.rateAt(at); !within(got, want, peakRate) {
						t.Fatalf("tau %v seed %d event %d: rate(+%v) %.4g, reference %.4g", tau, seed, i, at-now, got, want)
					}
					if got, want := m.frac(at), want/float64(time.Second); !within(got, want, peakRate/float64(time.Second)) {
						t.Fatalf("tau %v seed %d event %d: frac(+%v) %.4g, reference %.4g", tau, seed, i, at-now, got, want)
					}
				}
				if idle := m.rateAt(now + 20*tau); idle > 1e-6*peakRate {
					t.Fatalf("tau %v seed %d event %d: rate %.4g after 20 tau of silence (peak %.4g)", tau, seed, i, idle, peakRate)
				}
			}
		}
	}
}
