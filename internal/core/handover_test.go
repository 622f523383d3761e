package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zipper/internal/block"
	"zipper/internal/rt"
	"zipper/internal/rt/realenv"
	"zipper/internal/rt/simenv"
	"zipper/internal/sim"
)

// The tests of the handover: what Write, the sender, the receiver and Read
// owe each other now that none of them visits a shared lock per block. Each
// runs on the real platform and in the simulator.

// within fails the test if fn has not returned in time: a stranded block
// shows as a hang.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still waiting after %v", what, d)
	}
}

// runSim runs the engine to quiescence. A test that leaves a stream open on
// purpose ends with its runtime threads parked, which the engine reports as a
// deadlock; that is the expected end, anything else fails the test.
func runSim(t *testing.T, eng *sim.Engine) {
	t.Helper()
	var dl *sim.DeadlockError
	if err := eng.Run(); err != nil && !errors.As(err, &dl) {
		t.Fatal(err)
	}
}

// TestTrickleWriteIsDelivered: one Write, no second Write, no Close — the
// block must reach Read, because nothing else will ever push it. With
// stealing off and on (the writer thread parked beside the sender).
func TestTrickleWriteIsDelivered(t *testing.T) {
	for _, steal := range []bool{false, true} {
		cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: 16, MaxBatchBlocks: 8, DisableSteal: !steal}
		t.Run(fmt.Sprintf("real/steal=%v", steal), func(t *testing.T) {
			r := newRealRig(t, cfg, 1, 1, 2)
			c := r.env.Ctx()
			r.prod[0].Write(c, 7, 0, []byte{42}, 1)
			within(t, 10*time.Second, "the only block written", func() {
				b, ok := r.cons[0].Read(c)
				if !ok || b.ID.Step != 7 || len(b.Data) != 1 || b.Data[0] != 42 {
					t.Errorf("Read = %+v, %v; want the block of step 7", b, ok)
				}
			})
			r.prod[0].Close(c)
			r.prod[0].Wait(c)
			r.cons[0].Wait(c)
		})
		t.Run(fmt.Sprintf("sim/steal=%v", steal), func(t *testing.T) {
			r := newSimRig(cfg, 1, 1, 2)
			var got *block.Block
			var at time.Duration
			r.eng.Spawn("app.prod", func(sp *sim.Proc) {
				c := simenv.NewEnv(r.eng, 0, 0).WrapProc(sp)
				sp.Delay(time.Millisecond)
				r.prod[0].Write(c, 7, 0, nil, 1<<20)
			})
			r.eng.Spawn("app.cons", func(sp *sim.Proc) {
				c := simenv.NewEnv(r.eng, 1, 0).WrapProc(sp)
				got, _ = r.cons[0].Read(c)
				at = sp.Now()
			})
			runSim(t, r.eng)
			if got == nil || got.ID.Step != 7 {
				t.Fatalf("Read = %+v, want the block of step 7", got)
			}
			// 1 MiB over a 1 GB/s link and a 10 GB/s staging copy: about
			// 1.2 ms after the Write. Anything much later waited for a push
			// that was never coming.
			if at > 5*time.Millisecond {
				t.Errorf("the block reached Read at %v, long after it was written at 1ms", at)
			}
		})
	}
}

// gate is a transport whose Send parks until the test lets it through, and
// reports what the sender hands it.
type gate struct {
	inner  rt.Transport
	onSend func(blocks int) // called on the sender thread, before the wait
	wait   func(c rt.Ctx)   // returns when this Send may proceed
	sends  atomic.Int64     // Sends entered
}

func (g *gate) Send(c rt.Ctx, to int, m rt.Message) {
	if g.onSend != nil {
		g.onSend(len(m.Blocks))
	}
	g.sends.Add(1)
	g.wait(c)
	g.inner.Send(c, to, m)
}

func (g *gate) Credits(to int) int { return g.inner.Credits(to) }

// tokenGate lets one Send through per token put in the returned channel.
func tokenGate(inner rt.Transport) (*gate, chan<- struct{}) {
	open := make(chan struct{}, 1024)
	return &gate{inner: inner, wait: func(rt.Ctx) { <-open }}, open
}

// TestOpenBatchCountsAgainstBuffer: the blocks Write has taken but the
// sender has not count against BufferBlocks wherever they sit. With the
// sender held inside Send, the application gets exactly BufferBlocks further
// Writes through and parks in the next, whether the bound is below, at or
// above MaxBatchBlocks; and at every Send the blocks written and not yet
// drained are within it.
func TestOpenBatchCountsAgainstBuffer(t *testing.T) {
	for _, buffer := range []int{4, 8, 12} {
		cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: buffer, MaxBatchBlocks: 8, DisableSteal: true}
		t.Run(fmt.Sprintf("real/%d", buffer), func(t *testing.T) {
			env := realenv.New()
			net := realenv.NewNetwork(1, 64)
			var written, drained atomic.Int64
			g, open := tokenGate(net)
			g.onSend = func(n int) {
				if over := written.Load() - drained.Add(int64(n)); over > int64(buffer) {
					t.Errorf("%d blocks written and not drained at a Send, buffer %d", over, buffer)
				}
			}
			cons := NewConsumer(env, cfg, 0, 1, net.Inbox(0), nil)
			prod := NewProducer(env, cfg, 0, 0, g, nil)
			c := env.Ctx()
			const total = 100
			appDone := make(chan struct{})
			go func() {
				defer close(appDone)
				for i := 0; i < total; i++ {
					prod.Write(c, i, 0, []byte{byte(i)}, 1)
					written.Add(1)
				}
				prod.Close(c)
			}()
			// settle waits until the application has stopped making
			// progress (it is parked) and returns how far it got.
			settle := func() int64 {
				last, same := int64(-1), 0
				for same < 20 {
					time.Sleep(time.Millisecond)
					if w := written.Load(); w == last {
						same++
					} else {
						last, same = w, 0
					}
				}
				return last
			}
			for released := int64(0); ; released++ {
				w := settle()
				if w == total {
					break
				}
				if g.sends.Load() != released+1 {
					t.Fatalf("with %d Sends released the sender has entered %d", released, g.sends.Load())
				}
				if got := w - drained.Load(); got != int64(buffer) {
					t.Fatalf("the application parked with %d blocks written and not drained, want exactly %d (written %d)",
						got, buffer, w)
				}
				open <- struct{}{}
			}
			for i := 0; i < total; i++ {
				open <- struct{}{} // the rest, and the Fin
			}
			n := 0
			for {
				if _, ok := cons.Read(c); !ok {
					break
				}
				n++
			}
			<-appDone
			prod.Wait(c)
			cons.Wait(c)
			if n != total {
				t.Fatalf("analyzed %d blocks, want %d", n, total)
			}
		})
		t.Run(fmt.Sprintf("sim/%d", buffer), func(t *testing.T) {
			r := newSimRig(cfg, 1, 1, 64)
			var written, drained int64
			// The first Send never returns: a semaphore nobody releases.
			never := sim.NewSemaphore(r.eng, "never", 0)
			g := &gate{inner: r.net, wait: func(c rt.Ctx) { never.Acquire(c.(*simenv.Ctx).P) }}
			g.onSend = func(n int) {
				drained += int64(n)
				if over := written - drained; over > int64(buffer) {
					t.Errorf("%d blocks written and not drained at a Send, buffer %d", over, buffer)
				}
			}
			env := simenv.NewEnv(r.eng, 0, 0)
			prod := NewProducer(env, cfg, 0, 0, g, r.st)
			r.eng.Spawn("app.prod", func(sp *sim.Proc) {
				c := env.WrapProc(sp)
				for i := 0; i < 100; i++ {
					prod.Write(c, i, 0, nil, 1024)
					written++
				}
			})
			runSim(t, r.eng)
			if got := written - drained; got != int64(buffer) {
				t.Fatalf("the application parked with %d blocks written and not drained, want exactly %d (written %d)",
					got, buffer, written)
			}
		})
	}
}

// probeInbox calls probe on the receiver thread each time it comes back for
// a message, which is right after the previous message's last insert.
type probeInbox struct {
	in    rt.Inbox
	probe func(c rt.Ctx)
}

func (p probeInbox) Recv(c rt.Ctx) (rt.Message, bool) {
	p.probe(c)
	return p.in.Recv(c)
}

// residentLocked counts the blocks the consumer holds that the application
// has not been handed, or that still wait to be stored: what
// ConsumerBufferBlocks bounds. It reads the queue, not the occupancy counter
// it is there to check.
func residentLocked(c *Consumer) int {
	n := 0
	for pos := c.q.head; pos != c.q.tail; pos++ {
		e := c.q.at(pos)
		handed := pos < c.handed.Load()
		if !(handed && e.stored) {
			n++
		}
	}
	return n
}

// TestClaimKeepsOccupancyBound: a block Read has claimed but not returned is
// still in the buffer. After every message the receiver inserts, the blocks
// resident — buffered, claimed, or waiting for the output thread — number at
// most ConsumerBufferBlocks, for buffers smaller than a claim, smaller than a
// message, and the default.
func TestClaimKeepsOccupancyBound(t *testing.T) {
	check := func(t *testing.T, cons *Consumer, capacity int, peak *int) func(rt.Ctx) {
		return func(c rt.Ctx) {
			cons.lk.Lock(c)
			n := residentLocked(cons)
			cons.lk.Unlock(c)
			if n > *peak {
				*peak = n
			}
			if n > capacity {
				t.Errorf("%d blocks resident after an insert, ConsumerBufferBlocks %d", n, capacity)
			}
		}
	}
	for _, mode := range []Mode{NoPreserve, Preserve} {
		for _, capacity := range []int{1, 2, 16} {
			for _, batch := range []int{1, 8} {
				cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: 16, MaxBatchBlocks: batch, ConsumerBufferBlocks: capacity,
					Mode: mode, DisableSteal: true}
				name := fmt.Sprintf("%v/cap=%d/batch=%d", mode, capacity, batch)
				const total = 200
				t.Run("real/"+name, func(t *testing.T) {
					env := realenv.New()
					net := realenv.NewNetwork(1, 2)
					fs, err := realenv.NewFileStore(t.TempDir())
					if err != nil {
						t.Fatal(err)
					}
					peak := 0
					var cons *Consumer
					ready := make(chan struct{})
					in := probeInbox{in: net.Inbox(0), probe: func(c rt.Ctx) {
						<-ready
						check(t, cons, capacity, &peak)(c)
					}}
					cons = NewConsumer(env, cfg, 0, 1, in, fs)
					close(ready)
					prod := NewProducer(env, cfg, 0, 0, net, fs)
					c := env.Ctx()
					go func() {
						for i := 0; i < total; i++ {
							prod.Write(c, i, 0, []byte{byte(i)}, 1)
						}
						prod.Close(c)
					}()
					n := 0
					for {
						if _, ok := cons.Read(c); !ok {
							break
						}
						n++
					}
					prod.Wait(c)
					cons.Wait(c)
					if n != total || cons.Err(c) != nil {
						t.Fatalf("analyzed %d of %d blocks, err %v", n, total, cons.Err(c))
					}
				})
				t.Run("sim/"+name, func(t *testing.T) {
					eng := sim.New()
					r := newSimRigNodes(eng, 1, 1, 2)
					r.prod = []*Producer{NewProducer(simenv.NewEnv(eng, 0, 0), cfg, 0, 0, r.net, r.st)}
					peak := 0
					var cons *Consumer
					in := probeInbox{in: r.net.Inbox(0), probe: func(c rt.Ctx) { check(t, cons, capacity, &peak)(c) }}
					cons = NewConsumer(simenv.NewEnv(eng, 1, 0), cfg, 0, 1, in, r.st)
					r.cons = []*Consumer{cons}
					// A consumer slower than the producer, so the buffer is
					// full and the receiver waits for room most of the time.
					runSimWorkflow(t, r, total/8, 8, 64<<10, 100*time.Microsecond, 200*time.Microsecond)
					if got := cons.Stats().BlocksAnalyzed; got != total {
						t.Fatalf("analyzed %d blocks, want %d", got, total)
					}
					if peak != capacity {
						t.Errorf("the buffer peaked at %d blocks, want it filled to %d: the run does not test the bound", peak, capacity)
					}
				})
			}
		}
	}
}

// stealLog records, in the order the runtime threads act, which blocks left
// the producer by which channel.
type stealLog struct {
	rt.BlockStore
	inner rt.Transport
	mu    sync.Mutex
	left  []int // steps, in departure order; stolen ones negated (-step-1)
}

func (l *stealLog) WriteBlock(c rt.Ctx, b *block.Block) error {
	l.mu.Lock()
	l.left = append(l.left, -b.ID.Step-1)
	l.mu.Unlock()
	return l.BlockStore.WriteBlock(c, b)
}

func (l *stealLog) Send(c rt.Ctx, to int, m rt.Message) {
	l.mu.Lock()
	for _, b := range m.Blocks {
		l.left = append(l.left, b.ID.Step)
	}
	l.mu.Unlock()
	l.inner.Send(c, to, m)
}

func (l *stealLog) Credits(to int) int { return l.inner.Credits(to) }

// TestStealSeesOpenBatch: the writer thread's buffer is the one Write fills.
// Under a slow consumer it is woken by the Write that takes the buffer above
// HighWater, steals the oldest block written — never one behind a block that
// is still queued — and takes the share of the stream it took when every
// Write went through the producer lock: in the configuration of
// TestRealStealingUnderSlowConsumer, 16–34 of 40 blocks over ten runs there
// and 24–33 here.
func TestStealSeesOpenBatch(t *testing.T) {
	cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: 4, HighWater: 2}
	const n = 40
	t.Run("real", func(t *testing.T) {
		env := realenv.New()
		net := realenv.NewNetwork(1, 1)
		fs, err := realenv.NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		log := &stealLog{BlockStore: fs, inner: net}
		cons := NewConsumer(env, cfg, 0, 1, net.Inbox(0), fs)
		prod := NewProducer(env, cfg, 0, 0, log, log)
		c := env.Ctx()
		go func() {
			for s := 0; s < n; s++ {
				prod.Write(c, s, 0, make([]byte, 1024), 1024)
			}
			prod.Close(c)
		}()
		seen := 0
		for {
			if _, ok := cons.Read(c); !ok {
				break
			}
			seen++
			time.Sleep(2 * time.Millisecond) // slow analysis
		}
		prod.Wait(c)
		cons.Wait(c)
		ps := prod.Stats()
		if seen != n || ps.BlocksSent+ps.BlocksStolen != n {
			t.Fatalf("analyzed %d, sent %d + stolen %d, want %d", seen, ps.BlocksSent, ps.BlocksStolen, n)
		}
		if ps.BlocksStolen < n/4 {
			t.Errorf("the writer thread stole %d of %d blocks, want a quarter at the very least", ps.BlocksStolen, n)
		}
	})
	t.Run("sim", func(t *testing.T) {
		eng := sim.New()
		r := newSimRigNodes(eng, 1, 1, 1)
		log := &stealLog{BlockStore: r.st, inner: r.net}
		r.cons = []*Consumer{NewConsumer(simenv.NewEnv(eng, 1, 0), cfg, 0, 1, r.net.Inbox(0), r.st)}
		r.prod = []*Producer{NewProducer(simenv.NewEnv(eng, 0, 0), cfg, 0, 0, log, log)}
		runSimWorkflow(t, r, n, 1, 1<<20, 100*time.Microsecond, 20*time.Millisecond)
		ps := r.prod[0].Stats()
		if ps.BlocksStolen == 0 || ps.BlocksSent+ps.BlocksStolen != n {
			t.Fatalf("sent %d + stolen %d, want %d with some stolen", ps.BlocksSent, ps.BlocksStolen, n)
		}
		// In the simulator the log's order is the order the blocks left the
		// buffer: a drained batch reaches Send, and a stolen block the store,
		// before anything else can run. Every stolen block must be older
		// than everything that left after it.
		for i, v := range log.left {
			if v >= 0 {
				continue
			}
			step := -v - 1
			for _, later := range log.left[i+1:] {
				if later < 0 {
					later = -later - 1
				}
				if later < step {
					t.Fatalf("the writer stole step %d while step %d was still queued", step, later)
				}
			}
		}
	})
}

// TestStatsLagBounded: Write tells the Written counter once per batch, so a
// live BlocksWritten trails what the application has written by less than
// MaxBatchBlocks — and not at all once Close has returned; a live
// BlocksAnalyzed does not trail at all: after every Read it counts exactly
// the blocks Read has returned, though Read hands most of them out of a
// claim without the consumer lock and Stats takes none.
func TestStatsLagBounded(t *testing.T) {
	cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: 64, MaxBatchBlocks: 8, DisableSteal: true}
	lag := func(t *testing.T, written int, got int64) {
		t.Helper()
		if d := int64(written) - got; d < 0 || d >= int64(cfg.MaxBatchBlocks) {
			t.Errorf("BlocksWritten = %d after %d Writes: it must trail by less than %d", got, written, cfg.MaxBatchBlocks)
		}
	}
	// readAll reads the stream to its end, checking BlocksAnalyzed after
	// every Read.
	readAll := func(t *testing.T, c rt.Ctx, cons *Consumer) {
		t.Helper()
		reads := int64(0)
		for {
			_, ok := cons.Read(c)
			if ok {
				reads++
			}
			if got := cons.Stats().BlocksAnalyzed; got != reads {
				t.Errorf("BlocksAnalyzed = %d after %d Reads", got, reads)
			}
			if !ok {
				return
			}
		}
	}
	t.Run("real", func(t *testing.T) {
		env := realenv.New()
		net := realenv.NewNetwork(1, 64)
		// The sender is held in its first Send, so what the gauge knows is
		// what Write told it, not what a wake-up flushed.
		g, open := tokenGate(net)
		cons := NewConsumer(env, cfg, 0, 1, net.Inbox(0), nil)
		prod := NewProducer(env, cfg, 0, 0, g, nil)
		c := env.Ctx()
		for i := 1; i <= 50; i++ {
			prod.Write(c, i, 0, []byte{1}, 1)
			lag(t, i, prod.Stats().BlocksWritten)
		}
		prod.Close(c)
		if got := prod.Stats().BlocksWritten; got != 50 {
			t.Errorf("BlocksWritten = %d after Close, want 50", got)
		}
		for i := 0; i < 64; i++ {
			open <- struct{}{}
		}
		readAll(t, c, cons)
		prod.Wait(c)
		cons.Wait(c)
	})
	t.Run("sim", func(t *testing.T) {
		r := newSimRig(cfg, 1, 1, 4)
		env := simenv.NewEnv(r.eng, 0, 0)
		r.eng.Spawn("app.prod", func(sp *sim.Proc) {
			c := env.WrapProc(sp)
			for i := 1; i <= 50; i++ {
				r.prod[0].Write(c, i, 0, nil, 1<<20)
				lag(t, i, r.prod[0].Stats().BlocksWritten)
			}
			r.prod[0].Close(c)
			if got := r.prod[0].Stats().BlocksWritten; got != 50 {
				t.Errorf("BlocksWritten = %d after Close, want 50", got)
			}
		})
		r.eng.Spawn("app.cons", func(sp *sim.Proc) {
			readAll(t, simenv.NewEnv(r.eng, 1, 0).WrapProc(sp), r.cons[0])
		})
		runSim(t, r.eng)
		if got := r.cons[0].Stats().BlocksAnalyzed; got != 50 {
			t.Errorf("analyzed %d blocks, want 50", got)
		}
	})
}

// TestStatsTakesNoEndpointLock: Stats reads counters and gauges only, so a
// caller polling it never waits on — and never holds up — the module's own
// threads: with the producer's lock held, and then the consumer's, both
// Stats still return at once.
func TestStatsTakesNoEndpointLock(t *testing.T) {
	r := newRealRig(t, Config{Recycler: block.NewRecycler(0), BufferBlocks: 8, MaxBatchBlocks: 4, DisableSteal: true}, 1, 1, 4)
	prod, cons, c := r.prod[0], r.cons[0], r.env.Ctx()
	for i := 0; i < 6; i++ {
		prod.Write(c, i, 0, []byte{byte(i)}, 1)
	}
	for _, held := range []struct {
		name string
		lk   rt.Lock
	}{{"producer", prod.lk}, {"consumer", cons.lk}} {
		held.lk.Lock(c)
		done := make(chan struct{})
		go func() {
			prod.Stats()
			cons.Stats()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Errorf("Stats did not return within 1s while the %s lock was held", held.name)
		}
		held.lk.Unlock(c)
		<-done
	}
	prod.Close(c)
	n := 0
	for {
		if _, ok := cons.Read(c); !ok {
			break
		}
		n++
	}
	prod.Wait(c)
	cons.Wait(c)
	if n != 6 {
		t.Fatalf("read %d blocks, want 6", n)
	}
}

// TestHandOffParks pins how often each thread of the message path parks, on
// the simulated platform, where the counts repeat exactly: one producer
// writes 32 blocks every 20 µs for one consumer whose analysis (1 µs a block)
// is the slow stage, in batches of 8 over a 4-message window — 32 blocks in
// flight — into a consumer buffer of 16 blocks, half that window, and of 32,
// the window zipper.Config derives. The analysis binds, so nearly every one
// of the 256 messages finds the window shut before its Send (the lane
// count). The simulator wakes a parked thread at the instant it is
// signalled, so a receiver waiting on a full buffer goes on after every
// block Read returns, whatever the buffer's size: the counts barely move
// here. On the real platform a wake-up takes microseconds, Read hands out
// what it has claimed in the meantime, and the receiver and Read park once
// per buffer's worth, so there the window halves both counts.
func TestHandOffParks(t *testing.T) {
	type parks struct{ write, sender, lane, read, receiver int64 }
	for _, tc := range []struct {
		buffer int
		want   parks
	}{
		{16, parks{write: 111, sender: 4, lane: 242, read: 2, receiver: 2009}},
		{32, parks{write: 108, sender: 5, lane: 236, read: 2, receiver: 1965}},
	} {
		cfg := Config{Recycler: block.NewRecycler(8), BufferBlocks: 64, MaxBatchBlocks: 8,
			ConsumerBufferBlocks: tc.buffer, DisableSteal: true}
		r := newSimRig(cfg, 1, 1, 4)
		runSimWorkflow(t, r, 64, 32, 256, 20*time.Microsecond, time.Microsecond)
		ps, cs := r.prod[0].Stats(), r.cons[0].Stats()
		if cs.BlocksAnalyzed != 64*32 {
			t.Fatalf("buffer %d: analyzed %d of %d blocks", tc.buffer, cs.BlocksAnalyzed, 64*32)
		}
		if got := (parks{ps.WriteParks, ps.SenderParks, ps.LaneParks, cs.ReadParks, cs.ReceiverParks}); got != tc.want {
			t.Errorf("buffer %d: parks %+v, want %+v", tc.buffer, got, tc.want)
		}
	}
}
