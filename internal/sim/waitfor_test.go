package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestCondWaitForSignal: a signal before the deadline wakes the waiter at
// the signal's time, and the cancelled timeout never resumes it — had it
// fired at 10 ms, the waiter's next Delay would have ended early.
func TestCondWaitForSignal(t *testing.T) {
	e := New()
	m := NewMutex(e, "m")
	c := NewCond(m, "c")
	var woke, end time.Duration
	e.Spawn("waiter", func(p *Proc) {
		m.Lock(p)
		c.WaitFor(p, 10*time.Millisecond)
		woke = p.Now()
		m.Unlock(p)
		p.Delay(100 * time.Millisecond)
		end = p.Now()
	})
	e.Spawn("signaller", func(p *Proc) {
		p.Delay(3 * time.Millisecond)
		m.Lock(p)
		c.Signal()
		m.Unlock(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 3*time.Millisecond {
		t.Fatalf("woke at %v, want 3ms by the signal, not 10ms by the timeout", woke)
	}
	if end != 103*time.Millisecond || e.Now() != end {
		t.Fatalf("waiter ended at %v, run at %v: the cancelled timeout resumed it (want both 103ms)", end, e.Now())
	}
}

// TestCondWaitForTimeoutLeavesQueue: a waiter that times out leaves the
// queue, so the next Signal wakes the waiter behind it rather than being
// spent on a process that is no longer waiting.
func TestCondWaitForTimeoutLeavesQueue(t *testing.T) {
	e := New()
	m := NewMutex(e, "m")
	c := NewCond(m, "c")
	var timedAt, plainAt time.Duration
	e.Spawn("timed", func(p *Proc) {
		m.Lock(p)
		c.WaitFor(p, 5*time.Millisecond)
		timedAt = p.Now()
		m.Unlock(p)
	})
	e.Spawn("plain", func(p *Proc) {
		m.Lock(p)
		c.Wait(p)
		plainAt = p.Now()
		m.Unlock(p)
	})
	e.Spawn("signaller", func(p *Proc) {
		p.Delay(8 * time.Millisecond)
		m.Lock(p)
		c.Signal()
		m.Unlock(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if timedAt != 5*time.Millisecond {
		t.Fatalf("timed waiter returned at %v, want a timeout at 5ms", timedAt)
	}
	if plainAt != 8*time.Millisecond {
		t.Fatalf("plain waiter woke at %v, want 8ms by the signal", plainAt)
	}
}

// TestCondWaitForNeverDeadlocks: a timed waiter always has its timeout
// pending, so only the plain waiter left blocked is reported.
func TestCondWaitForNeverDeadlocks(t *testing.T) {
	e := New()
	m := NewMutex(e, "m")
	c := NewCond(m, "c")
	e.Spawn("plain", func(p *Proc) {
		m.Lock(p)
		c.Wait(p)
	})
	e.Spawn("timed", func(p *Proc) {
		p.Delay(time.Millisecond)
		m.Lock(p)
		c.WaitFor(p, time.Hour)
		m.Unlock(p)
	})
	var dl *DeadlockError
	if err := e.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want a deadlock of the plain waiter", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0].Name != "plain" || dl.At != time.Hour+time.Millisecond {
		t.Fatalf("deadlock %v, want only the plain waiter, found once the timed one left at 1h0m0.001s", dl)
	}
}

// waitForRun is a mix of timed waits that time out, timed waits that are
// signalled, broadcasts and plain delays that land on the same instants; it
// logs who ran when. With delay set, every WaitFor is replaced by the
// Unlock/Delay/Lock it is equivalent to when nobody signals.
func waitForRun(t *testing.T, delay bool) []string {
	t.Helper()
	e := New()
	m := NewMutex(e, "m")
	c := NewCond(m, "c")
	var log []string
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for k := 0; k < 5; k++ {
				m.Lock(p)
				d := time.Duration(i+1) * time.Millisecond
				if delay {
					m.Unlock(p)
					p.Delay(d)
					m.Lock(p)
				} else {
					c.WaitFor(p, d)
				}
				log = append(log, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
				m.Unlock(p)
			}
		})
		e.Spawn(fmt.Sprintf("d%d", i), func(p *Proc) {
			for k := 0; k < 5; k++ {
				p.Delay(time.Duration(i+1) * time.Millisecond)
				log = append(log, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return log
}

// TestCondWaitForIsDelayUnsignalled: unsignalled, WaitFor schedules exactly
// the event Delay would, at the same (time, sequence) position — the
// interleaving with plain delays on the same instants is Delay's.
func TestCondWaitForIsDelayUnsignalled(t *testing.T) {
	if a, b := waitForRun(t, false), waitForRun(t, true); !reflect.DeepEqual(a, b) {
		t.Fatalf("WaitFor interleaved differently from Delay:\n%v\n%v", a, b)
	}
}

// TestCondWaitForDeterministic: two runs of timed waiters that are woken
// by broadcasts at instants their timeouts share interleave identically.
func TestCondWaitForDeterministic(t *testing.T) {
	var signalled, waits int // of the last run: waits woken before their deadline, and all
	run := func() []string {
		signalled, waits = 0, 0
		e := New()
		m := NewMutex(e, "m")
		c := NewCond(m, "c")
		var log []string
		for i := 0; i < 5; i++ {
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				m.Lock(p)
				for k := 0; k < 6; k++ {
					d, from := time.Duration(2+i%3)*time.Millisecond, p.Now()
					c.WaitFor(p, d)
					log = append(log, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
					if p.Now() < from+d {
						signalled++
					}
					waits++
				}
				m.Unlock(p)
			})
		}
		e.Spawn("broadcaster", func(p *Proc) {
			for k := 0; k < 6; k++ {
				p.Delay(3 * time.Millisecond)
				m.Lock(p)
				c.Broadcast()
				m.Unlock(p)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a := run()
	early, total := signalled, waits
	if b := run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("runs diverged:\n%v\n%v", a, b)
	}
	if early == 0 || early == total {
		t.Fatalf("%d of %d waits woke before their deadline: the run must mix signals and timeouts", early, total)
	}
}
