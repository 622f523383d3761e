package flow

import (
	"sync"
	"testing"
	"time"
)

func TestLevelTracksOccupancy(t *testing.T) {
	l := NewLevel(64, 0)
	l.Set(10)
	l.Set(40)
	l.Set(20)
	if cur, cap := l.Get(); cur != 20 || cap != 64 {
		t.Fatalf("Get = (%d,%d), want (20,64)", cur, cap)
	}
	if l.Max() != 40 {
		t.Fatalf("Max %d, want 40", l.Max())
	}
}

func TestLevelZeroValue(t *testing.T) {
	var l Level
	l.SetCapacity(8)
	l.Set(3)
	if cur, cap := l.Get(); cur != 3 || cap != 8 {
		t.Fatalf("Get = (%d,%d), want (3,8)", cur, cap)
	}
}

// TestGaugesConcurrent is the race test for the flow-control plane: counters
// and levels are updated by producer, stager, and application threads
// concurrently while routers and Stats read them, so every method must be
// safe without any outer lock. Run under -race (the CI fast lane does).
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
				fl.In.Add(1)
				fl.Queue.Set(i % 64)
				fl.SpillBusy.Add(int64(time.Microsecond))
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
				_ = fl.In.Total()
				q, c := fl.Queue.Get()
				_ = fl.Queue.Max()
				_ = ad.Route(Signals{Now: now, Credits: i % 3, StagerQueued: q, StagerCapacity: c})
				_ = ad.Share()
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if fl.In.Total() != 8000 || fl.SpillBusy.Total() != int64(8000*time.Microsecond) {
		t.Fatalf("lost updates: totals %d and %d, want 8000 and %d", fl.In.Total(), fl.SpillBusy.Total(), 8000*time.Microsecond)
	}
}

// The write side is what runs per block: it must not allocate.
func BenchmarkCounterAdd(b *testing.B) {
	var k Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Add(1)
	}
}

func BenchmarkLevelSet(b *testing.B) {
	l := NewLevel(64, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Set(i & 63)
	}
}

func TestGaugeWritesDoNotAllocate(t *testing.T) {
	var k Counter
	l := NewLevel(64, 0)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		i++
		k.Add(1)
		k.Add(8) // a batch's worth, as Write reports
		l.Set(i & 63)
		l.Debit(3)
		l.SetAbsorbing(i&31, 3)
	}); n != 0 {
		t.Fatalf("the gauges' write side allocates %.1f times per round, want 0", n)
	}
	if k.Total() != 9*1001 {
		t.Fatalf("Counter total %d after 1001 rounds of 1+8", k.Total())
	}
}

// TestLevelDebit: units debited without the lock are gone for Get at once
// and stay gone, no more and no less, once a Set has absorbed them.
func TestLevelDebit(t *testing.T) {
	l := NewLevel(16, 0)
	l.Set(10)
	l.Debit(1)
	l.Debit(2)
	if q, c := l.Get(); q != 7 || c != 16 {
		t.Fatalf("Get = %d/%d after debiting 3 of 10, want 7/16", q, c)
	}
	l.SetAbsorbing(8, 2) // two of the three accounted for
	if q, _ := l.Get(); q != 7 {
		t.Fatalf("Get = %d after absorbing 2 debits into 8, want 7", q)
	}
	l.Set(9) // an insert: the last debit is still owed
	if q, _ := l.Get(); q != 8 {
		t.Fatalf("Get = %d, want 8", q)
	}
	l.SetAbsorbing(8, 1)
	if q, _ := l.Get(); q != 8 || l.Max() != 10 {
		t.Fatalf("Get = %d, Max = %d, want 8 and 10", q, l.Max())
	}
}
