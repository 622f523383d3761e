package realenv

import (
	"runtime"
	"testing"
	"time"
)

// TestCondWaitForLeavesNoTimer: a signalled WaitFor stops its timer — a
// plain waiter that queues on the cond afterwards is not woken when the
// deadline passes — and a timed-out one returns after its deadline having
// let the timer's callback finish, so no goroutine outlives either wait.
func TestCondWaitForLeavesNoTimer(t *testing.T) {
	env := New()
	c := env.Ctx()
	lk := env.NewLock("lk")
	cd := lk.NewCond("cd")
	before := runtime.NumGoroutine()

	// Signalled at 2 ms, well before the 50 ms deadline.
	go func() {
		time.Sleep(2 * time.Millisecond)
		lk.Lock(c)
		cd.Signal()
		lk.Unlock(c)
	}()
	lk.Lock(c)
	start := time.Now()
	cd.WaitFor(c, 50*time.Millisecond)
	if d := time.Since(start); d >= 50*time.Millisecond {
		t.Fatalf("signalled WaitFor returned after %v, not at the signal", d)
	}
	lk.Unlock(c)

	woken := make(chan struct{})
	queued := make(chan struct{})
	go func() {
		lk.Lock(c)
		close(queued)
		cd.Wait(c)
		lk.Unlock(c)
		close(woken)
	}()
	<-queued
	select {
	case <-woken:
		t.Fatal("the signalled wait's timer fired after it returned and woke a later waiter")
	case <-time.After(100 * time.Millisecond):
	}
	lk.Lock(c)
	cd.Broadcast()
	lk.Unlock(c)
	<-woken

	// Nobody signals: the wait times out.
	lk.Lock(c)
	start = time.Now()
	cd.WaitFor(c, 5*time.Millisecond)
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("unsignalled WaitFor returned after %v, before its 5ms deadline", d)
	}
	lk.Unlock(c)

	deadline := time.Now().Add(10 * time.Millisecond)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running 10ms after the waits, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
