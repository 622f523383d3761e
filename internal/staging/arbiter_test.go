package staging

import (
	"errors"
	"slices"
	"testing"
	"time"

	"zipper/internal/block"
	"zipper/internal/fabric"
	"zipper/internal/pfs"
	"zipper/internal/rt"
	"zipper/internal/rt/simenv"
	"zipper/internal/sim"
)

// The arbiter's regimes on the simulated platform, where every run repeats
// to the nanosecond: a burst into a slow consumer (absorb), a flood whose
// consumer hiccups once (pass-through, one overflow, back to pass-through),
// a consumer only just slower than the flood (the turn refused), the same
// consumer stopping (the refusal expiring on the clock), the early first
// overflow that times the store, and a forwarder parked forever (absorb
// without ever seeing a Send return). Each runs on a plain stager and on a
// journaling one: the rule is one rule.

// countingStore counts what reaches the spill medium: file-per-block writes
// and reads, and the log's appends, reads and releases.
type countingStore struct {
	*simenv.Store
	writes, reads     int
	appends, appended int
	logReads          int
	released          int
	failAppends       bool         // every log append fails
	onAppend          func(rt.Ctx) // called inside every log append, before it writes
	onSpill           func()       // called as each spill write or log append starts
}

func (s *countingStore) WriteBlock(c rt.Ctx, b *block.Block) error {
	s.writes++
	if s.onSpill != nil {
		s.onSpill()
	}
	return s.Store.WriteBlock(c, b)
}

func (s *countingStore) ReadBlock(c rt.Ctx, id block.ID, bytes int64) (*block.Block, error) {
	s.reads++
	return s.Store.ReadBlock(c, id, bytes)
}

func (s *countingStore) OpenLog() rt.BlockLog { return &countingLog{s.Store.OpenLog(), s} }

type countingLog struct {
	rt.BlockLog
	s *countingStore
}

func (l *countingLog) Append(c rt.Ctx, blocks []*block.Block, refs []rt.LogRef) error {
	l.s.appends++
	if l.s.onSpill != nil {
		l.s.onSpill()
	}
	if l.s.onAppend != nil {
		l.s.onAppend(c)
	}
	if l.s.failAppends {
		return errors.New("injected log-append failure")
	}
	l.s.appended += len(blocks)
	return l.BlockLog.Append(c, blocks, refs)
}

func (l *countingLog) Read(c rt.Ctx, id block.ID, ref rt.LogRef) (*block.Block, error) {
	l.s.logReads++
	return l.BlockLog.Read(c, id, ref)
}

func (l *countingLog) Release(c rt.Ctx, ref rt.LogRef) {
	l.s.released++
	l.BlockLog.Release(c, ref)
}

// spillOps is how many blocks went to the medium and came back, whichever
// path the stager uses.
func (s *countingStore) spillOps() (out, back int) {
	return s.writes + s.appended, s.reads + s.logReads
}

const (
	simBatch      = 8
	simBlockBytes = 64 << 10
	simWindow     = 2
)

// simRig is two producers (nodes 0, 1) sending straight to one pool-managed
// stager (node 3, endpoint 1) in front of one consumer endpoint (node 2,
// endpoint 0) that the test drains with a process of its own, over a
// simulated PFS (OSTs on nodes 4 and 5, the MDS on 6). Endpoint 2 is a second
// consumer for the one test that needs two destinations.
type simRig struct {
	t       *testing.T
	eng     *sim.Engine
	net     *simenv.Network
	store   *countingStore
	journal *Journal // nil on a plain stager
	st      *Stager

	afterForward func(c rt.Ctx, to int) // called each time a forwarder Send of blocks to `to` has returned

	stall    time.Duration // summed producer time in Send
	sent     int
	got      map[block.ID]int // deliveries per block
	order    []block.ID       // in arrival order
	fins     []finSeen        // Fins in arrival order
	lost     int64
	maxAfter int // peak resident blocks after `settled` was set
	settled  bool
}

func newSimRig(t *testing.T, fault bool, cfg Config) *simRig {
	eng := sim.New()
	fab := fabric.New(eng, fabric.Config{
		Nodes: 7, NodesPerLeaf: 16, LinkBandwidth: 4e9, LinkLatency: time.Microsecond, MTU: 256 << 10,
	})
	fs := pfs.New(eng, fab, pfs.Config{OSTNodes: []fabric.NodeID{4, 5}, MDSNode: 6, OSTBandwidth: 1e9})
	r := &simRig{t: t, eng: eng, got: map[block.ID]int{},
		net:   simenv.NewNetwork(eng, fab, []fabric.NodeID{2, 3, 2}, simWindow),
		store: &countingStore{Store: simenv.NewStore(fs, "stage0")}}
	cfg.Managed, cfg.MaxBatchBlocks = true, simBatch
	if fault {
		r.journal = NewJournal()
		cfg.Journal = r.journal
	}
	r.st = NewStager(simenv.NewEnv(eng, 3, 0), cfg, 0, r.net.Inbox(1), forwardHook{r.net, r}, r.store)
	return r
}

// forwardHook is the stager's transport: the simulated network, credit
// visibility included, plus the rig's afterForward callback.
type forwardHook struct {
	*simenv.Network
	r *simRig
}

func (h forwardHook) Send(c rt.Ctx, to int, m rt.Message) {
	h.Network.Send(c, to, m)
	if h.r.afterForward != nil && len(m.Blocks) > 0 {
		h.r.afterForward(c, to)
	}
}

// finSeen is a Fin as the consumer saw it: the producer's declared block
// total, and how many of its blocks had arrived by then.
type finSeen struct {
	rank            int
	declared, after int64
}

// produce starts producer rank: msgs messages of simBatch blocks for
// consumer endpoint 0, one every gap, each timed from when it was due.
func (r *simRig) produce(rank, msgs int, gap time.Duration, done *int) {
	r.produceFor(0, rank, msgs, gap, done)
}

func (r *simRig) produceFor(dest, rank, msgs int, gap time.Duration, done *int) {
	r.produceStream(dest, rank, msgs*simBatch, gap, false, done)
}

// produceStream starts producer rank: `blocks` blocks for endpoint dest in
// messages of up to simBatch, one every gap, the last one carrying the
// producer's Fin when fin is set (alone, when there are no blocks).
func (r *simRig) produceStream(dest, rank, blocks int, gap time.Duration, fin bool, done *int) {
	env := simenv.NewEnv(r.eng, fabric.NodeID(rank), 0)
	r.eng.Spawn("prod", func(sp *sim.Proc) {
		c := env.WrapProc(sp)
		for seq, finSent := 0, !fin; seq < blocks || !finSent; {
			sp.Delay(gap)
			m := rt.Message{From: rank, Dest: dest}
			for k := 0; k < simBatch && seq < blocks; k, seq = k+1, seq+1 {
				m.Blocks = append(m.Blocks, block.NewSized(block.ID{Rank: rank, Seq: seq}, 0, simBlockBytes))
			}
			if seq == blocks && !finSent {
				m.Fin, m.FinBlocks, finSent = true, int64(blocks), true
			}
			start := sp.Now()
			r.net.Send(c, 1, m)
			r.stall += sp.Now() - start
			r.sent += len(m.Blocks)
		}
		*done++
	})
}

// consume drains endpoint 0 until a Retire marker, spending perBlock(n) on
// the n-th block.
func (r *simRig) consume(perBlock func(n int) time.Duration) { r.consumeAt(0, perBlock) }

func (r *simRig) consumeAt(ep int, perBlock func(n int) time.Duration) {
	env := simenv.NewEnv(r.eng, 2, 0)
	r.eng.Spawn("cons", func(sp *sim.Proc) {
		c := env.WrapProc(sp)
		n := 0
		for {
			m, ok := r.net.Inbox(ep).Recv(c)
			if !ok || m.Retire {
				return
			}
			r.lost += m.Lost
			for _, b := range m.Blocks {
				r.got[b.ID]++
				r.order = append(r.order, b.ID)
				sp.Delay(perBlock(n))
				n++
			}
			if m.Fin {
				f := finSeen{rank: m.From, declared: m.FinBlocks}
				for _, id := range r.order {
					if id.Rank == m.From {
						f.after++
					}
				}
				r.fins = append(r.fins, f)
			}
		}
	})
}

// retireWhen retires the stager once every producer is done, waits for its
// flush, and ends the consumer; meanwhile it samples the buffer.
func (r *simRig) retireWhen(done *int, producers int) {
	env := simenv.NewEnv(r.eng, 3, 0)
	r.eng.Spawn("janitor", func(sp *sim.Proc) {
		c := env.WrapProc(sp)
		for *done < producers {
			sp.Delay(20 * time.Microsecond)
			r.sample(c)
		}
		r.net.Send(c, 1, rt.Message{Retire: true})
		for !r.st.Drained(c) {
			sp.Delay(20 * time.Microsecond)
			r.sample(c)
		}
		r.net.Send(c, 0, rt.Message{Retire: true})
	})
}

// sample tracks the resident peak once the on-log backlog has returned to
// zero after an overflow: from then on a flood must sit at the pass-through
// depth.
func (r *simRig) sample(c rt.Ctx) {
	st := r.st.Stats(c)
	// Blocks admitted and neither forwarded nor resident are on the spill
	// medium, or the one batch in the forwarder's hands.
	backlog := st.BlocksIn - st.BlocksForwarded - int64(st.Queued)
	if st.BlocksSpilled > 0 && backlog <= simBatch {
		r.settled = true
	}
	if r.settled {
		r.maxAfter = max(r.maxAfter, st.Queued)
	}
}

// await polls cond every 10 µs of virtual time, for at most 100 ms: a
// condition that never comes true ends the wait (the test then reports what
// it finds) instead of spinning the engine forever.
func await(sp *sim.Proc, cond func() bool) {
	for tries := 0; !cond() && tries < 10_000; tries++ {
		sp.Delay(10 * time.Microsecond)
	}
}

// evict does to a killed stager what the failure detector's host does, then
// ends the consumer: drain endpoint 0 (only now — a test decides how much the
// stager still owes by not draining before), let the producers parked on the
// dead endpoint finish (its receiver keeps draining, their messages become
// orphans), fence, join, replay.
func (r *simRig) evict(c rt.Ctx, sp *sim.Proc, done *int, producers int) (replayed, lost int64) {
	r.consume(func(int) time.Duration { return 0 })
	await(sp, func() bool { return *done >= producers })
	if r.st.NeedsRetire(c) {
		r.net.Send(c, 1, rt.Message{Retire: true})
	}
	r.st.Wait(c)
	replayed, _, lost = Replay(c, r.journal, r.store, r.net)
	r.net.Send(c, 0, rt.Message{Retire: true})
	return replayed, lost
}

func (r *simRig) run() {
	r.t.Helper()
	if err := r.eng.Run(); err != nil {
		r.t.Fatal(err)
	}
}

// checkDelivered requires every sent block exactly once, in per-producer
// order, and none declared lost.
func (r *simRig) checkDelivered() {
	r.t.Helper()
	if r.lost != 0 {
		r.t.Fatalf("%d blocks declared lost", r.lost)
	}
	if len(r.order) != r.sent {
		r.t.Fatalf("%d deliveries of %d blocks sent", len(r.order), r.sent)
	}
	next := map[int]int{}
	for _, id := range r.order {
		if r.got[id] != 1 {
			r.t.Fatalf("block %v delivered %d times", id, r.got[id])
		}
		if id.Seq != next[id.Rank] {
			r.t.Fatalf("rank %d: block %d arrived where %d was due", id.Rank, id.Seq, next[id.Rank])
		}
		next[id.Rank]++
	}
}

func eachMode(t *testing.T, fn func(t *testing.T, fault bool)) {
	t.Run("plain", func(t *testing.T) { fn(t, false) })
	t.Run("journaling", func(t *testing.T) { fn(t, true) })
}

// TestArbiterAbsorbsBurstIntoSlowConsumer: 400 blocks arrive ten times
// faster than the consumer analyzes them. The window is full from the third
// batch on and the consumer is far slower than the PFS, so the stager
// absorbs: it fills its 64-block buffer and overflows what it can of the
// rest, and the producers stall no longer than behind a stager that admits
// and spills unconditionally (same rig, no arbiter: 77.539688 ms plain, and
// 58.830862 ms journaling with a PFS append per admitted message; stall here
// is all of a producer's time in Send, wire time included).
func TestArbiterAbsorbsBurstIntoSlowConsumer(t *testing.T) {
	eachMode(t, func(t *testing.T, fault bool) {
		r := newSimRig(t, fault, Config{BufferBlocks: 64})
		var done int
		for rank := 0; rank < 2; rank++ {
			r.produce(rank, 25, 160*time.Microsecond, &done) // 20 µs a block
		}
		r.consume(func(int) time.Duration { return 200 * time.Microsecond })
		r.retireWhen(&done, 2)
		r.run()
		r.checkDelivered()
		out, back := r.store.spillOps()
		t.Logf("overflowed %d of %d blocks in %d writes + %d appends; producers stalled %v", out, r.sent, r.store.writes, r.store.appends, r.stall)
		if out < r.sent/4 || back != out {
			t.Fatalf("%d blocks overflowed, %d re-read, of %d sent: want a good part of the burst absorbed on the PFS and all of it back", out, back, r.sent)
		}
		if fault && (r.store.writes != 0 || r.store.appends*simBatch < r.store.appended) {
			t.Fatalf("journaling stager: %d spill files, %d blocks in %d appends: want the log only, whole batches", r.store.writes, r.store.appended, r.store.appends)
		}
		unconditional := 77539688 * time.Nanosecond
		if fault {
			unconditional = 58830862 * time.Nanosecond
		}
		if r.stall > unconditional {
			t.Fatalf("producers stalled %v; with unconditional admission %v", r.stall, unconditional)
		}
	})
}

// TestArbiterFloodWithOneHiccup: the consumer analyzes faster than the
// producers write, so the window has credit and the stager is pass-through
// — until the consumer stalls once for 4 ms. That one park fills the
// buffer and overflows what does not fit; when the consumer resumes, the
// forwarder's re-reads are the slow stage, the window has credit again, and
// nothing more is spilled behind them. The on-log backlog returns to zero,
// under a fifth of the stream went to the PFS, and from then on the buffer
// never holds more than the pass-through depth plus one message.
func TestArbiterFloodWithOneHiccup(t *testing.T) {
	eachMode(t, func(t *testing.T, fault bool) {
		r := newSimRig(t, fault, Config{BufferBlocks: 64})
		var done int
		for rank := 0; rank < 2; rank++ {
			r.produce(rank, 100, 320*time.Microsecond, &done) // 40 µs a block, 20 µs for the pair
		}
		r.consume(func(n int) time.Duration {
			if n == 400 {
				return 4 * time.Millisecond
			}
			return 10 * time.Microsecond
		})
		r.retireWhen(&done, 2)
		r.run()
		r.checkDelivered()
		out, back := r.store.spillOps()
		t.Logf("overflowed %d of %d blocks; peak %d resident, %d after the backlog cleared; producers stalled %v",
			out, r.sent, r.st.Stats(nil).MaxQueued, r.maxAfter, r.stall)
		if out == 0 || back != out {
			t.Fatalf("%d blocks overflowed, %d re-read: the hiccup should have spilled, and all of it must come back", out, back)
		}
		if out > r.sent/5 {
			t.Fatalf("%d of %d blocks went to the PFS for one 4 ms hiccup, want under a fifth", out, r.sent)
		}
		if !r.settled {
			t.Fatal("the on-log backlog never returned to zero while the flood was still running")
		}
		if limit := r.st.passDepth + simBatch; r.maxAfter > limit {
			t.Fatalf("after the backlog cleared the buffer held %d blocks, want ≤ pass-through depth + one message = %d", r.maxAfter, limit)
		}
		if st := r.st.Stats(nil); st.MaxQueued <= int64(r.st.passDepth+simBatch) {
			t.Fatalf("peak occupancy %d: the hiccup never pushed the buffer past the pass-through depth, so the test shows nothing", st.MaxQueued)
		}
	})
}

// TestArbiterQuietFloodWritesNothing: the same flood without the hiccup.
// The consumer always has credit, so not one block may reach the spill
// medium — no file, no log append — and the buffer stays at the
// pass-through depth although it could hold four times as much.
func TestArbiterQuietFloodWritesNothing(t *testing.T) {
	eachMode(t, func(t *testing.T, fault bool) {
		r := newSimRig(t, fault, Config{BufferBlocks: 64})
		var done int
		for rank := 0; rank < 2; rank++ {
			r.produce(rank, 100, 320*time.Microsecond, &done)
		}
		r.consume(func(int) time.Duration { return 10 * time.Microsecond })
		r.retireWhen(&done, 2)
		r.run()
		r.checkDelivered()
		if out, _ := r.store.spillOps(); out != 0 || r.store.appends != 0 {
			t.Fatalf("a quiet flood put %d blocks on the PFS (%d log appends), want none", out, r.store.appends)
		}
		if st := r.st.Stats(nil); st.MaxQueued > int64(r.st.passDepth+simBatch) {
			t.Fatalf("peak occupancy %d on a quiet flood, want ≤ pass-through depth + one message = %d", st.MaxQueued, r.st.passDepth+simBatch)
		}
	})
}

// TestArbiterFirstOverflowTimesTheStore: until something has been spilled
// the arbiter cannot tell a consumer slower than the store from one faster,
// and absorbs behind either. A stager whose consumer has already come back
// from a full window therefore takes its first overflow at half the spill
// threshold — that write is the measurement — and every later one at the
// threshold itself. (A forwarder that never came back keeps the whole
// threshold: TestArbiterParkedForwarderStillAdmits.)
func TestArbiterFirstOverflowTimesTheStore(t *testing.T) {
	eachMode(t, func(t *testing.T, fault bool) {
		r := newSimRig(t, fault, Config{BufferBlocks: 128}) // spill threshold 96
		var at []int                                        // resident blocks as each overflow starts
		r.store.onSpill = func() {
			q, _ := r.st.Level().Get()
			at = append(at, q)
		}
		var done int
		for rank := 0; rank < 2; rank++ {
			r.produce(rank, 100, 320*time.Microsecond, &done)
		}
		r.consume(func(n int) time.Duration {
			switch {
			case n == 100:
				return time.Millisecond // fills the window: the consumer is seen alive
			case n == 400:
				return 20 * time.Millisecond
			}
			return 10 * time.Microsecond
		})
		r.retireWhen(&done, 2)
		r.run()
		r.checkDelivered()
		if len(at) < 2 {
			t.Fatalf("%d overflows during a 20 ms stall, want the early one and more", len(at))
		}
		t.Logf("first overflow at %d resident blocks, the next %d at %d–%d", at[0], len(at)-1, slices.Min(at[1:]), slices.Max(at[1:]))
		if at[0] <= 48 || at[0] > 48+simBatch {
			t.Fatalf("first overflow taken at %d resident blocks, want just past half the threshold (48)", at[0])
		}
		if low := slices.Min(at[1:]); low <= 96 {
			t.Fatalf("a later overflow was taken at %d resident blocks, want only above the threshold (96)", low)
		}
	})
}

// floodConsumer is the consumer of the two tests below. It keeps ahead of the
// producers (10 µs a block; they manage one every 28 µs, wire time included),
// stalls once for 4 ms at block 400 — the overflow of that stall is what
// times the store — and keeps ahead again while the backlog drains. From
// block 800 on it is only just the slowest stage of the flood, at 32 µs a
// block, except where special(n) says otherwise.
func floodConsumer(special func(n int) time.Duration) func(n int) time.Duration {
	return func(n int) time.Duration {
		switch {
		case n == 400:
			return 4 * time.Millisecond
		case n < 800:
			return 10 * time.Microsecond
		}
		if d := special(n); d > 0 {
			return d
		}
		return 32 * time.Microsecond
	}
}

// TestArbiterRefusesMarginallySlowConsumer: once the store has been timed, a
// consumer that is only just the slowest stage keeps its window full at
// every election, but each wait on it ends several times sooner than the PFS
// would have served the batch. The turn to absorbing must be refused every
// time: not one more block goes to the PFS, the buffer fills to the
// pass-through depth and no further, and the producers are back-pressured
// instead — for less time than behind a stager that admits and spills
// unconditionally (same rig, no arbiter: 107.56084 ms plain, 481.881376 ms
// journaling with a PFS append per admitted message).
func TestArbiterRefusesMarginallySlowConsumer(t *testing.T) {
	eachMode(t, func(t *testing.T, fault bool) {
		r := newSimRig(t, fault, Config{BufferBlocks: 64})
		var done int
		for rank := 0; rank < 2; rank++ {
			r.produce(rank, 200, 320*time.Microsecond, &done)
		}
		before := -1
		r.consume(floodConsumer(func(n int) time.Duration {
			if n == 800 {
				before, _ = r.store.spillOps()
				r.maxAfter = 0
			}
			return 0
		}))
		r.retireWhen(&done, 2)
		r.run()
		r.checkDelivered()
		out, back := r.store.spillOps()
		t.Logf("overflowed %d blocks by block 800, %d in all; %d resident at most afterwards; producers stalled %v",
			before, out, r.maxAfter, r.stall)
		if before <= 0 || back != out {
			t.Fatalf("%d blocks overflowed before the consumer slowed, %d in all, %d re-read: the stall at block 400 should have timed the store", before, out, back)
		}
		if out != before {
			t.Fatalf("%d more blocks went to the PFS behind a consumer that is faster than the PFS", out-before)
		}
		if limit := r.st.passDepth + simBatch; r.maxAfter > limit {
			t.Fatalf("the buffer held %d blocks in front of the marginally slow consumer, want ≤ pass-through depth + one message = %d", r.maxAfter, limit)
		}
		if r.maxAfter < r.st.passDepth {
			t.Fatalf("the buffer never held more than %d blocks: the consumer was not the slowest stage, so no turn was there to refuse", r.maxAfter)
		}
		unconditional := 107560840 * time.Nanosecond
		if fault {
			unconditional = 481881376 * time.Nanosecond
		}
		if r.stall > unconditional {
			t.Fatalf("producers stalled %v; with unconditional admission %v", r.stall, unconditional)
		}
	})
}

// TestArbiterConsumerStopsMidFlood: the same flood, but at block 1200 the
// marginally slow consumer stops for 100 ms. Its waits so far were short, so
// the turn is refused at first — the stager sits at the pass-through depth
// with its forwarder inside a Send and its receiver held, and no event will
// come. The refusal must expire on the clock: once the wait has lasted as
// long as the PFS would need for the whole buffer the stager absorbs, fills
// its buffer and overflows, and the producers stall no longer than behind a
// stager that admits and spills unconditionally (same rig, no arbiter:
// 361.298844 ms plain, 456.43713 ms journaling).
func TestArbiterConsumerStopsMidFlood(t *testing.T) {
	eachMode(t, func(t *testing.T, fault bool) {
		const stop = 100 * time.Millisecond
		r := newSimRig(t, fault, Config{BufferBlocks: 64})
		var done int
		for rank := 0; rank < 2; rank++ {
			r.produce(rank, 200, 320*time.Microsecond, &done)
		}
		env := simenv.NewEnv(r.eng, 3, 0)
		var expiry time.Duration
		var early, late Stats
		before := -1
		r.consume(floodConsumer(func(n int) time.Duration {
			if n != 1200 {
				return 0
			}
			before, _ = r.store.spillOps()
			r.eng.Spawn("probe", func(sp *sim.Proc) {
				c := env.WrapProc(sp)
				r.st.lk.Lock(c)
				expiry = r.st.storeLocked(r.st.cfg.BufferBlocks)
				r.st.lk.Unlock(c)
				sp.Delay(expiry / 2)
				early = r.st.Stats(c)
				sp.Delay(expiry)
				late = r.st.Stats(c)
			})
			return stop
		}))
		r.retireWhen(&done, 2)
		r.run()
		r.checkDelivered()
		out, back := r.store.spillOps()
		t.Logf("refusal expires after %v: %d resident half-way, %d (%d overflowed) half an expiry past it; %d → %d blocks overflowed; producers stalled %v",
			expiry, early.Queued, late.Queued, late.BlocksSpilled, before, out, r.stall)
		if before <= 0 || back != out {
			t.Fatalf("%d blocks overflowed before the stop, %d in all, %d re-read", before, out, back)
		}
		if expiry <= 0 || expiry > stop/2 {
			t.Fatalf("the refusal would expire after %v: the %v stop cannot show it", expiry, stop)
		}
		if limit := r.st.passDepth + simBatch; early.Queued > limit || early.BlocksSpilled != int64(before) {
			t.Fatalf("half an expiry into the stop %d blocks are resident (want ≤ %d) and %d overflowed (want %d): the turn was not refused",
				early.Queued, limit, early.BlocksSpilled, before)
		}
		if late.Queued <= r.st.passDepth+simBatch && late.BlocksSpilled == int64(before) {
			t.Fatalf("%d blocks resident and nothing more overflowed half an expiry after the refusal ran out: the stager never absorbed the stop", late.Queued)
		}
		if out <= before {
			t.Fatalf("nothing overflowed during a %v stop (%d blocks before, %d after)", stop, before, out)
		}
		unconditional := 361298844 * time.Nanosecond
		if fault {
			unconditional = 456437130 * time.Nanosecond
		}
		if r.stall > unconditional {
			t.Fatalf("producers stalled %v; with unconditional admission %v", r.stall, unconditional)
		}
	})
}

// TestArbiterSkippedBatchIsNotAWait: on a multi-tenant stager the forwarder
// skips past a head whose destination has no credit and serves the tenants
// queued behind it. Those Sends find credit and come straight back; they must
// not be booked as waits on the full window — the head's wait goes on, with
// its original start, until a Send to that destination returns.
func TestArbiterSkippedBatchIsNotAWait(t *testing.T) {
	r := newSimRig(t, false, Config{BufferBlocks: 64, Tenants: 2, Tenant: func(from int) int { return from }})
	// The hook runs when a forwarder Send has returned, before the stager
	// books it. After a Send that skipped the waiting head, the next call
	// must find the arbiter's view of that wait as the skip left it.
	var skip struct {
		armed       bool
		since, last time.Duration
	}
	skipped := 0
	r.afterForward = func(_ rt.Ctx, to int) {
		st := r.st
		if skip.armed {
			skipped++
			if st.lastPark != skip.last {
				t.Errorf("a batch that went past the waiting head was booked as a wait of %v", st.lastPark)
			}
			if st.parkedOn == 0 && st.parkedSince != skip.since {
				t.Errorf("a batch that went past the waiting head restarted its wait: since %v, was %v", st.parkedSince, skip.since)
			}
		}
		skip.armed, skip.since, skip.last = to == 2 && st.parkedOn == 0, st.parkedSince, st.lastPark
	}
	var done int
	r.produceFor(0, 0, 6, 10*time.Microsecond, &done)
	r.produceFor(2, 1, 40, 10*time.Microsecond, &done)
	r.consumeAt(0, func(int) time.Duration { return time.Millisecond }) // holds its window for 8 ms a message
	r.consumeAt(2, func(int) time.Duration { return 10 * time.Microsecond })
	env := simenv.NewEnv(r.eng, 3, 0)
	r.eng.Spawn("janitor", func(sp *sim.Proc) {
		c := env.WrapProc(sp)
		await(sp, func() bool { return done == 2 })
		r.net.Send(c, 1, rt.Message{Retire: true})
		r.st.Wait(c)
		r.net.Send(c, 0, rt.Message{Retire: true})
		r.net.Send(c, 2, rt.Message{Retire: true})
	})
	r.run()
	r.checkDelivered()
	if skipped == 0 {
		t.Fatal("no batch for endpoint 2 was sent while the head waited on endpoint 0: the test shows nothing")
	}
}

// TestArbiterParkedForwarderStillAdmits mirrors the benchmark's replay probe
// (bench/probe.go, probeReplay) where a hang would otherwise only show in a
// benchmark run: nobody drains the consumer endpoint, so the forwarder parks
// in its third Send and never returns from it. The stager must still admit
// everything its buffer holds — the arbiter's verdict cannot wait for a Send
// to complete — and Kill + Replay must hand all of it to the consumer from
// memory: the buffer never passed its high-water mark, so nothing may be
// read from the log.
func TestArbiterParkedForwarderStillAdmits(t *testing.T) {
	const msgs = 16 // per producer: 256 blocks in all, HighWater = 384
	r := newSimRig(t, true, Config{BufferBlocks: 512})
	var done int
	for rank := 0; rank < 2; rank++ {
		r.produce(rank, msgs, 10*time.Microsecond, &done)
	}
	env := simenv.NewEnv(r.eng, 3, 0)
	var admitted int64
	var replayed, lost int64
	r.eng.Spawn("probe", func(sp *sim.Proc) {
		c := env.WrapProc(sp)
		await(sp, func() bool {
			admitted = r.st.Stats(c).BlocksIn
			return admitted >= 2*msgs*simBatch
		})
		if admitted < 2*msgs*simBatch {
			return // the check below reports it; the engine then deadlocks on the parked producers
		}
		r.st.Kill(c)
		replayed, lost = r.evict(c, sp, &done, 2)
	})
	err := r.eng.Run()
	if admitted < 2*msgs*simBatch {
		t.Fatalf("a stager whose forwarder is parked admitted %d of %d blocks into a %d-block buffer (engine: %v)",
			admitted, 2*msgs*simBatch, 512, err)
	}
	if err != nil {
		t.Fatal(err)
	}
	r.checkDelivered()
	if lost != 0 || replayed == 0 {
		t.Fatalf("replay re-sent %d blocks and lost %d", replayed, lost)
	}
	if r.store.appends != 0 || r.store.logReads != 0 {
		t.Fatalf("%d log appends, %d log reads: every block was resident and must come back from memory", r.store.appends, r.store.logReads)
	}
}

// TestOverflowAppendFailure: the log refuses the spiller's first append.
// Nothing was copied at admission, so nothing is lost by that: the victims
// stay resident and journaled, the spiller stops (the buffer simply stops
// absorbing past its capacity), Stager.Err reports the failure, and a later
// Kill + Replay still hands every block to the consumer — those the stager
// had admitted from its journal, those it could no longer admit as orphans.
func TestOverflowAppendFailure(t *testing.T) {
	const msgs = 8 // per producer: 128 blocks into a 32-block buffer
	r := newSimRig(t, true, Config{BufferBlocks: 32})
	r.store.failAppends = true
	var done int
	for rank := 0; rank < 2; rank++ {
		r.produce(rank, msgs, 10*time.Microsecond, &done)
	}
	env := simenv.NewEnv(r.eng, 3, 0)
	var stagerErr error
	var resident int
	var replayed, lost int64
	r.eng.Spawn("probe", func(sp *sim.Proc) {
		c := env.WrapProc(sp)
		await(sp, func() bool {
			stagerErr = r.st.Err(c)
			return stagerErr != nil
		})
		sp.Delay(time.Millisecond) // let the receiver fill what room is left
		st := r.st.Stats(c)
		resident = st.Queued
		if st.BlocksSpilled != 0 {
			t.Errorf("%d blocks counted as spilled although every append failed", st.BlocksSpilled)
		}
		r.st.Kill(c)
		replayed, lost = r.evict(c, sp, &done, 2)
	})
	r.run()
	if done != 2 {
		t.Fatalf("%d of 2 producers finished: the dead stager's receiver stopped draining", done)
	}
	if stagerErr == nil {
		t.Fatal("Stager.Err reports nothing although the overflow append failed")
	}
	if r.store.appends != 1 {
		t.Fatalf("%d appends attempted, want the spiller to stop after the first failure", r.store.appends)
	}
	if resident != 32 {
		t.Fatalf("%d blocks resident after the failed overflow, want the full 32-block buffer: the victims must stay in memory", resident)
	}
	if lost != 0 || r.store.logReads != 0 {
		t.Fatalf("replay lost %d blocks and read %d from a log that holds nothing", lost, r.store.logReads)
	}
	if owed := int64(r.sent - (simWindow+1)*simBatch); replayed < owed {
		t.Fatalf("replay re-sent %d blocks, want ≥ %d: nobody drained the consumer, so all but a window and the batch in flight were still owed", replayed, owed)
	}
	r.checkDelivered()
}

// The kill sweep over the states a fault-mode stager's queue can strand: a
// queued block can be resident, on its way to the log, or in the log, and a
// sent batch can still hold log space. In each, a kill followed by the
// eviction sequence must deliver every block exactly once, each producer's
// in the order it was admitted (checkDelivered), with nothing declared lost.
// FuzzKillReplay sweeps the kill point itself.

// TestKillDuringOverflowAppend lands the kill inside the spiller's first log
// append. The append completes, its victims' records point at the log, and
// the recovery reader reads them back; everything else comes from memory.
func TestKillDuringOverflowAppend(t *testing.T) {
	r := newSimRig(t, true, Config{BufferBlocks: 32})
	env := simenv.NewEnv(r.eng, 3, 0)
	killed := false
	r.store.onAppend = func(c rt.Ctx) {
		if !killed {
			killed = true
			r.st.Kill(c)
		}
	}
	var done int
	for rank := 0; rank < 2; rank++ {
		r.produce(rank, 8, 10*time.Microsecond, &done)
	}
	var replayed, lost int64
	r.eng.Spawn("probe", func(sp *sim.Proc) {
		c := env.WrapProc(sp)
		await(sp, func() bool { return killed })
		replayed, lost = r.evict(c, sp, &done, 2)
	})
	r.run()
	if !killed {
		t.Fatal("the buffer never overflowed, so no append was there to be killed in")
	}
	r.checkDelivered()
	if lost != 0 || replayed == 0 {
		t.Fatalf("replay re-sent %d blocks and lost %d", replayed, lost)
	}
	if r.store.appends != 1 || r.store.logReads != r.store.appended || r.store.appended == 0 {
		t.Fatalf("%d appends of %d blocks, %d log reads: want the one append the kill landed in, all of it read back",
			r.store.appends, r.store.appended, r.store.logReads)
	}
}

// TestKillWithResidentAndLoggedRecords kills a stager whose queue holds one
// producer's stream partly in memory and partly in the log — the state every
// overflow leaves — and checks the replay stitches the two back together in
// admission order.
func TestKillWithResidentAndLoggedRecords(t *testing.T) {
	r := newSimRig(t, true, Config{BufferBlocks: 32})
	env := simenv.NewEnv(r.eng, 3, 0)
	var done int
	r.produce(0, 12, 10*time.Microsecond, &done)
	var st Stats
	var replayed, lost int64
	r.eng.Spawn("probe", func(sp *sim.Proc) {
		c := env.WrapProc(sp)
		await(sp, func() bool { return done == 1 })
		// Let the spiller bring the buffer back under its high-water mark.
		await(sp, func() bool {
			st = r.st.Stats(c)
			return st.BlocksSpilled > 0 && st.Queued <= 24
		})
		r.st.Kill(c)
		replayed, lost = r.evict(c, sp, &done, 1)
	})
	r.run()
	if st.BlocksSpilled == 0 || st.Queued == 0 {
		t.Fatalf("at the kill %d blocks were logged and %d resident: the scenario needs both", st.BlocksSpilled, st.Queued)
	}
	r.checkDelivered()
	if lost != 0 {
		t.Fatalf("replay lost %d blocks", lost)
	}
	if int64(r.store.logReads) != st.BlocksSpilled || replayed < st.BlocksSpilled+int64(st.Queued) {
		t.Fatalf("replay re-sent %d blocks, %d of them from the log; the stager owed %d logged and %d resident",
			replayed, r.store.logReads, st.BlocksSpilled, st.Queued)
	}
}

// TestKillBetweenSendAndDeliver lands the kill the instant a forwarder Send
// has returned, before the sent batch's records are retired. The forwarder
// still retires them — a crash never tears a message, and what was sent is
// the consumer's — so the replay must not send that batch again.
func TestKillBetweenSendAndDeliver(t *testing.T) {
	r := newSimRig(t, true, Config{BufferBlocks: 64})
	env := simenv.NewEnv(r.eng, 3, 0)
	forwards, killed := 0, false
	r.afterForward = func(c rt.Ctx, _ int) {
		if forwards++; forwards == 3 {
			killed = true
			r.st.Kill(c)
		}
	}
	var done int
	for rank := 0; rank < 2; rank++ {
		r.produce(rank, 8, 10*time.Microsecond, &done)
	}
	r.consume(func(int) time.Duration { return 20 * time.Microsecond })
	var replayed, lost int64
	r.eng.Spawn("probe", func(sp *sim.Proc) {
		c := env.WrapProc(sp)
		await(sp, func() bool { return killed })
		await(sp, func() bool { return done == 2 })
		if r.st.NeedsRetire(c) {
			r.net.Send(c, 1, rt.Message{Retire: true})
		}
		r.st.Wait(c)
		replayed, _, lost = Replay(c, r.journal, r.store, r.net)
		r.net.Send(c, 0, rt.Message{Retire: true})
	})
	r.run()
	if !killed {
		t.Fatal("the forwarder never made its third Send")
	}
	r.checkDelivered()
	if lost != 0 {
		t.Fatalf("replay lost %d blocks", lost)
	}
	if want := int64(r.sent - 3*simBatch); replayed > want {
		t.Fatalf("replay re-sent %d blocks, but only %d were not yet delivered when the kill landed", replayed, want)
	}
}

// FuzzKillReplay lands a kill wherever the input says — never, right after
// the nth admitted message, inside the nth log append, or after the nth
// forwarder Send of blocks — on a journaling stager in front of a consumer
// that spends the input's delay on every block, with each of two producers
// relaying the input's number of blocks and closing its stream with a Fin,
// through a buffer of the input's size. Whatever the stager forwarded before
// the kill and whatever the replay re-sends must reach the consumer exactly
// once, each producer's blocks in admission order and its Fin after the last
// of them, with nothing lost and no log record left live.
func FuzzKillReplay(f *testing.F) {
	for trigger := range uint8(4) {
		f.Add(trigger, uint8(3), uint8(40), uint8(37), uint8(24), uint8(20))
		f.Add(trigger, uint8(1), uint8(64), uint8(0), uint8(8), uint8(50))
	}
	f.Fuzz(func(t *testing.T, trigger, nth, blocks0, blocks1, buffer, delayUs uint8) {
		n := int(nth%32) + 1
		blocks := []int{int(blocks0 % 97), int(blocks1 % 97)}
		r := newSimRig(t, true, Config{BufferBlocks: 8 + int(buffer%57)})
		killed := false
		kill := func(c rt.Ctx) {
			if !killed {
				killed = true
				r.st.Kill(c)
			}
		}
		appends, sends := 0, 0
		switch trigger % 4 {
		case 2:
			r.store.onAppend = func(c rt.Ctx) {
				if appends++; appends == n {
					kill(c)
				}
			}
		case 3:
			r.afterForward = func(c rt.Ctx, _ int) {
				if sends++; sends == n {
					kill(c)
				}
			}
		}
		var done int
		for rank, k := range blocks {
			r.produceStream(0, rank, k, 10*time.Microsecond, true, &done)
		}
		delay := time.Duration(delayUs%64) * time.Microsecond
		r.consume(func(int) time.Duration { return delay })
		env := simenv.NewEnv(r.eng, 3, 0)
		var replayed, lost int64
		r.eng.Spawn("probe", func(sp *sim.Proc) {
			c := env.WrapProc(sp)
			// Producers parked on a dead endpoint still finish: its receiver
			// keeps draining their messages as orphans.
			for done < len(blocks) {
				if trigger%4 == 1 && r.st.Stats(c).MessagesIn >= int64(n) {
					kill(c)
				}
				sp.Delay(time.Microsecond)
			}
			// A Retire either starts the clean drain or releases the dead
			// receiver; a kill can still land in the drain's flush.
			if r.st.NeedsRetire(c) {
				r.net.Send(c, 1, rt.Message{Retire: true})
			}
			r.st.Wait(c)
			replayed, _, lost = Replay(c, r.journal, r.store, r.net)
			r.net.Send(c, 0, rt.Message{Retire: true})
		})
		r.run()
		r.checkDelivered()
		if lost != 0 {
			t.Fatalf("replay declared %d blocks lost", lost)
		}
		if !killed && replayed != 0 {
			t.Fatalf("a stager that drained cleanly left %d blocks to replay", replayed)
		}
		if live := r.store.appended - r.store.released; live != 0 {
			t.Fatalf("%d log records still live after the replay (%d appended, %d released)", live, r.store.appended, r.store.released)
		}
		if len(r.fins) != len(blocks) {
			t.Fatalf("%d Fins arrived, want one per producer: %+v", len(r.fins), r.fins)
		}
		for _, f := range r.fins {
			if want := int64(blocks[f.rank]); f.declared != want || f.after != want {
				t.Fatalf("rank %d's Fin declared %d blocks and arrived after %d of them, want %d", f.rank, f.declared, f.after, want)
			}
		}
	})
}
