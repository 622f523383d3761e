package flow

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestMeterTotalAndRate(t *testing.T) {
	m := NewMeter(100 * time.Millisecond)
	// 10 events per 10ms = 1000 events/s, sustained for 40 taus.
	for i := 1; i <= 400; i++ {
		m.Add(time.Duration(i)*10*time.Millisecond, 10)
	}
	if m.Total() != 4000 {
		t.Fatalf("total %d, want 4000", m.Total())
	}
	now := 400 * 10 * time.Millisecond
	if r := m.Rate(now); r < 900 || r > 1100 {
		t.Fatalf("steady-state rate %.1f, want ≈1000", r)
	}
	// After 5 time constants of silence the rate must have decayed hard.
	later := now + 500*time.Millisecond
	if r := m.Rate(later); r > 50 {
		t.Fatalf("rate %.1f after 5τ of silence, want ≈0", r)
	}
	if m.Rate(later) != m.Rate(later) || m.Total() != 4000 {
		t.Fatal("Rate must not mutate the meter")
	}
}

func TestMeterSameInstantEvents(t *testing.T) {
	var m Meter // zero value: DefaultTau
	for i := 0; i < 5; i++ {
		m.Add(time.Millisecond, 2) // several events in the same instant
	}
	m.Add(2*time.Millisecond, 2)
	if m.Total() != 12 {
		t.Fatalf("total %d, want 12", m.Total())
	}
	if m.Rate(2*time.Millisecond) <= 0 {
		t.Fatal("rate should be positive once time advances")
	}
}

func TestMeterDurationHelpers(t *testing.T) {
	m := NewMeter(50 * time.Millisecond)
	// Stalled 5ms out of every 10ms: a 50% stall fraction.
	for i := 1; i <= 100; i++ {
		m.AddDur(time.Duration(i)*10*time.Millisecond, 5*time.Millisecond)
	}
	if m.TotalDur() != 500*time.Millisecond {
		t.Fatalf("total %v, want 500ms", m.TotalDur())
	}
	if f := m.Frac(time.Second); f < 0.4 || f > 0.6 {
		t.Fatalf("stall fraction %.2f, want ≈0.5", f)
	}
}

func TestLevelTracksOccupancy(t *testing.T) {
	l := NewLevel(64, 100*time.Millisecond)
	l.Set(0, 10)
	l.Set(10*time.Millisecond, 40)
	l.Set(20*time.Millisecond, 20)
	if cur, cap := l.Get(); cur != 20 || cap != 64 {
		t.Fatalf("Get = (%d,%d), want (20,64)", cur, cap)
	}
	if l.Max() != 40 {
		t.Fatalf("Max %d, want 40", l.Max())
	}
	// Hold at 20 for a long time: the average must converge to 20.
	if avg := l.Avg(5 * time.Second); avg < 19 || avg > 21 {
		t.Fatalf("Avg %.1f, want ≈20", avg)
	}
}

func TestLevelZeroValue(t *testing.T) {
	var l Level
	l.SetCapacity(8)
	l.Set(time.Millisecond, 3)
	if cur, cap := l.Get(); cur != 3 || cap != 8 {
		t.Fatalf("Get = (%d,%d), want (3,8)", cur, cap)
	}
}

// TestGaugesConcurrent is the race test for the flow-control plane: meters
// and levels are updated by producer, stager, and application threads
// concurrently while routers read them, so every method must be safe without
// any outer lock. Run under -race (the CI fast lane does).
func TestGaugesConcurrent(t *testing.T) {
	var fl StagerFlows
	fl.Queue.SetCapacity(64)
	ad := NewAdaptive(Tuning{Tau: time.Millisecond})
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 2000; i++ {
				now := time.Duration(g*2000+i) * time.Microsecond
				fl.In.Add(now, 1)
				fl.Queue.Set(now, i%64)
				fl.SpillBusy.AddDur(now, time.Microsecond)
				ad.ObserveStall(now, 10*time.Microsecond)
				ad.ObserveSend(Relay, now, time.Microsecond, 1, 1024)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 2000; i++ {
				now := time.Duration(g*2000+i) * time.Microsecond
				_ = fl.In.Rate(now)
				_ = fl.In.Total()
				q, c := fl.Queue.Get()
				_ = fl.Queue.Avg(now)
				_ = fl.Queue.Max()
				_ = ad.Route(Signals{Now: now, Credits: i % 3, StagerQueued: q, StagerCapacity: c})
				_ = ad.Share()
				_ = ad.StallFrac(now)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if fl.In.Total() != 8000 {
		t.Fatalf("lost updates: total %d, want 8000", fl.In.Total())
	}
}

// eagerMeter and eagerLevel are the straightforward references the lazy
// gauges are checked against: an EWMA fold on every event whose timestamp
// advanced, exactly what Meter and Level did before the fold quantum.
type eagerMeter struct {
	tau     time.Duration
	total   int64
	rate    float64
	pending int64
	last    time.Duration
	started bool
}

func (m *eagerMeter) add(now time.Duration, n int64) {
	m.total += n
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

type eagerLevel struct {
	tau     time.Duration
	cur     int
	avg     float64
	max     int64
	last    time.Duration
	started bool
}

func (l *eagerLevel) set(now time.Duration, v int) {
	if !l.started {
		l.started, l.last, l.avg = true, now, float64(v)
	} else if now > l.last {
		l.avg = l.avgAt(now)
		l.last = now
	}
	l.cur = v
	if int64(v) > l.max {
		l.max = int64(v)
	}
}

func (l *eagerLevel) avgAt(now time.Duration) float64 {
	if !l.started || now <= l.last {
		return l.avg
	}
	return blend(l.avg, float64(l.cur), now-l.last, l.tau)
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

// TestGaugesMatchEagerReference drives the lazy Meter and Level and their
// eager references with the same random streams and checks, at every point
// a reader could look: totals, occupancy and peak exact; Rate, Frac, Avg and
// LastRate within 2% of the reference; and decay toward zero while idle.
func TestGaugesMatchEagerReference(t *testing.T) {
	for _, tau := range []time.Duration{0, 20 * time.Millisecond, time.Millisecond} {
		for seed := int64(1); seed <= 8; seed++ {
			r := rand.New(rand.NewSource(seed * 7919))
			m, l := NewMeter(tau), NewLevel(64, tau)
			em, el := eagerMeter{tau: tauOf(tau)}, eagerLevel{tau: tauOf(tau)}
			var peakRate, peakAvg float64
			occ := 0
			for i, now := range gaugeStream(seed, tauOf(tau), 20000) {
				n := int64(1 + r.Intn(16))
				m.Add(now, n)
				em.add(now, n)
				occ = max(0, min(64, occ+r.Intn(9)-4))
				l.Set(now, occ)
				el.set(now, occ)

				if m.Total() != em.total {
					t.Fatalf("tau %v seed %d event %d: total %d, want %d", tau, seed, i, m.Total(), em.total)
				}
				if cur, _ := l.Get(); cur != occ || l.Max() != el.max {
					t.Fatalf("tau %v seed %d event %d: level (%d, max %d), want (%d, max %d)",
						tau, seed, i, cur, l.Max(), occ, el.max)
				}
				// The reference folds units that share a fold's timestamp only
				// once time moves on, and would smear them over whatever
				// silence follows: let a nanosecond pass on a copy of it first.
				// Then read right after the event, a quantum later and well
				// into an idle stretch.
				ref := em
				ref.add(now+1, 0)
				for _, at := range []time.Duration{now + 1, now + tauOf(tau)/foldsPerTau, now + 3*tauOf(tau)} {
					want := ref.rateAt(at)
					peakRate = math.Max(peakRate, want)
					if got := m.Rate(at); !within(got, want, peakRate) {
						t.Fatalf("tau %v seed %d event %d: Rate(+%v) %.4g, reference %.4g", tau, seed, i, at-now, got, want)
					}
					if got, want := m.Frac(at), want/float64(time.Second); !within(got, want, peakRate/float64(time.Second)) {
						t.Fatalf("tau %v seed %d event %d: Frac(+%v) %.4g, reference %.4g", tau, seed, i, at-now, got, want)
					}
					wantAvg := el.avgAt(at)
					peakAvg = math.Max(peakAvg, wantAvg)
					if got := l.Avg(at); !within(got, wantAvg, peakAvg) {
						t.Fatalf("tau %v seed %d event %d: Avg(+%v) %.4g, reference %.4g", tau, seed, i, at-now, got, wantAvg)
					}
				}
				if got, want := m.LastRate(), ref.rate; !within(got, want, peakRate) {
					t.Fatalf("tau %v seed %d event %d: LastRate %.4g, reference rate at the last event %.4g", tau, seed, i, got, want)
				}
				if idle := m.Rate(now + 20*tauOf(tau)); idle > 1e-6*peakRate {
					t.Fatalf("tau %v seed %d event %d: rate %.4g after 20 tau of silence (peak %.4g)", tau, seed, i, idle, peakRate)
				}
			}
		}
	}
}

// The write side is what runs per block: it must not allocate.
func BenchmarkMeterAdd(b *testing.B) {
	var m Meter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Add(time.Duration(i)*200, 1)
	}
}

func BenchmarkLevelSet(b *testing.B) {
	l := NewLevel(64, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Set(time.Duration(i)*200, i&63)
	}
}

func TestGaugeWritesDoNotAllocate(t *testing.T) {
	var m Meter
	l := NewLevel(64, 0)
	now := time.Duration(0)
	if n := testing.AllocsPerRun(1000, func() {
		now += 200
		m.Add(now, 1)
		m.Add(now, 8) // a batch's worth, as Write and Read report
		l.Set(now, int(now)&63)
		l.Debit(3)
		l.SetAbsorbing(now, int(now)&31, 3)
	}); n != 0 {
		t.Fatalf("the gauges' write side allocates %.1f times per round, want 0", n)
	}
	if m.Total() != 9*1001 {
		t.Fatalf("Meter total %d after 1001 rounds of 1+8", m.Total())
	}
}

// TestLevelDebit: units debited without the lock are gone for Get at once
// and stay gone, no more and no less, once a Set has absorbed them.
func TestLevelDebit(t *testing.T) {
	l := NewLevel(16, 0)
	l.Set(0, 10)
	l.Debit(1)
	l.Debit(2)
	if q, c := l.Get(); q != 7 || c != 16 {
		t.Fatalf("Get = %d/%d after debiting 3 of 10, want 7/16", q, c)
	}
	l.SetAbsorbing(time.Millisecond, 8, 2) // two of the three accounted for
	if q, _ := l.Get(); q != 7 {
		t.Fatalf("Get = %d after absorbing 2 debits into 8, want 7", q)
	}
	l.Set(2*time.Millisecond, 9) // an insert: the last debit is still owed
	if q, _ := l.Get(); q != 8 {
		t.Fatalf("Get = %d, want 8", q)
	}
	l.SetAbsorbing(3*time.Millisecond, 8, 1)
	if q, _ := l.Get(); q != 8 || l.Max() != 10 {
		t.Fatalf("Get = %d, Max = %d, want 8 and 10", q, l.Max())
	}
}
