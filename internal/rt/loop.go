package rt

import "time"

// Loop is a control loop that stops on an event, not on its next tick: a
// runtime thread that runs a tick every period until it is halted, then a
// final pass. The wait between ticks is a Cond.WaitFor, so a Halt wakes the
// thread at once; unhalted, each wait costs and schedules exactly what a
// Sleep(period) would, so the cadence — and on the simulator every virtual
// timestamp a tick produces — is a sleep-poll's.
type Loop struct {
	lk     Lock
	wake   Cond // Halt → the loop thread
	exited Cond // the loop thread → Join
	halted bool
	done   bool
}

// StartLoop starts a loop thread named name on env. tick runs every period,
// the first one period after the start; final, when non-nil, runs once on
// the loop's thread after Halt and before Join returns.
func StartLoop(env Env, name string, period time.Duration, tick, final func(Ctx)) *Loop {
	return StartPacedLoop(env, name, func(Ctx) time.Duration { return period }, tick, final)
}

// StartPacedLoop is StartLoop for a loop that sets its own pace: before
// every wait, the first one included, the loop thread asks pace how long to
// wait for the next tick.
func StartPacedLoop(env Env, name string, pace func(Ctx) time.Duration, tick, final func(Ctx)) *Loop {
	l := &Loop{lk: env.NewLock(name)}
	l.wake = l.lk.NewCond(name + ".wake")
	l.exited = l.lk.NewCond(name + ".exited")
	env.Go(name, func(c Ctx) {
		for l.sleep(c, pace(c)) {
			tick(c)
		}
		if final != nil {
			final(c)
		}
		l.lk.Lock(c)
		l.done = true
		l.exited.Broadcast()
		l.lk.Unlock(c)
	})
	return l
}

// sleep waits out one period unless the loop is halted first, and reports
// whether the period ran out.
func (l *Loop) sleep(c Ctx, period time.Duration) bool {
	l.lk.Lock(c)
	defer l.lk.Unlock(c)
	until := c.Now() + period
	for !l.halted {
		left := until - c.Now()
		if left <= 0 {
			return true
		}
		l.wake.WaitFor(c, left)
	}
	return false
}

// Halt asks the loop to stop and wakes it without waiting for it: a tick in
// progress completes, then the final pass runs. Safe from any thread, more
// than once, and under a lock the loop's tick never takes.
func (l *Loop) Halt(c Ctx) {
	l.lk.Lock(c)
	l.halted = true
	l.wake.Broadcast()
	l.lk.Unlock(c)
}

// Join blocks until the loop has run its final pass and its thread is done.
func (l *Loop) Join(c Ctx) {
	l.lk.Lock(c)
	for !l.done {
		l.exited.Wait(c)
	}
	l.lk.Unlock(c)
}

// Stop is Halt then Join: the loop wakes at once, runs its final pass, and
// Stop returns when that pass is done.
func (l *Loop) Stop(c Ctx) {
	l.Halt(c)
	l.Join(c)
}
