package rt_test

import (
	"reflect"
	"testing"
	"time"

	"zipper/internal/rt"
	"zipper/internal/rt/simenv"
	"zipper/internal/sim"
)

// TestLoopStopsOnTheEvent: on the simulator, a loop ticks at every multiple
// of its period — a sleep-poll's cadence — and Stop wakes it at the instant
// it is called: the final pass runs then, Stop returns then, and the run
// ends then instead of at the next tick.
func TestLoopStopsOnTheEvent(t *testing.T) {
	eng := sim.New()
	env := simenv.NewEnv(eng, 0, 0)
	var ticks []time.Duration
	var final, stopped time.Duration
	loop := rt.StartLoop(env, "loop", 10*time.Millisecond,
		func(c rt.Ctx) { ticks = append(ticks, c.Now()) },
		func(c rt.Ctx) { final = c.Now() })
	env.Go("stopper", func(c rt.Ctx) {
		c.Sleep(35 * time.Millisecond)
		loop.Stop(c)
		stopped = c.Now()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}; !reflect.DeepEqual(ticks, want) {
		t.Fatalf("ticks at %v, want %v", ticks, want)
	}
	if final != 35*time.Millisecond || stopped != final || eng.Now() != final {
		t.Fatalf("final pass at %v, Stop returned at %v, run ended at %v: want all at 35ms", final, stopped, eng.Now())
	}
}
