package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"zipper/internal/block"
	"zipper/internal/flow"
	"zipper/internal/reduce"
	"zipper/internal/rt"
)

// Producer is one simulation process's runtime module. The application
// thread calls Write for each fine-grain block and Close when done; the
// module's sender and writer threads move the data asynchronously.
type Producer struct {
	env    rt.Env
	cfg    Config
	rank   int
	to     int // fixed consumer endpoint (unused with a ConsumerDirectory)
	stager int // transport address of the assigned in-transit stager (-1 = none)
	tr     rt.Transport
	fs     rt.BlockStore
	router flow.Router
	// enc reduces relayed payloads at the sender (nil when reduction is off
	// or deferred to the stager's pressure gate). Owned by the sender thread.
	enc BlockEncoder

	// Per-destination delivery totals, maintained by the sender thread when
	// a ConsumerDirectory resolves the consumer per batch: each consumer's
	// Fin declares exactly the blocks and disk refs that were addressed to
	// it, so counted termination stays correct when the placement policy
	// moves the producer between consumers mid-run.
	destBlocks map[int]int64
	destDisk   map[int]int64

	// rec is where headers and message slices come from and go back to:
	// the job's (Config.Recycler), or one of the producer's own.
	rec *block.Recycler

	lk       rt.Lock
	notEmpty rt.Cond // the sender's: buffer or disk-ID list gained content, or state change
	notFull  rt.Cond // the application's: the buffer lost a block
	aboveHW  rt.Cond // the writer's: the buffer rose above the high-water mark
	done     rt.Cond // a runtime thread exited

	// The producer buffer is a ring the application fills without taking lk:
	// it writes the slot at tail and then publishes tail, so the buffer every
	// decision reads — whether Write blocks, what the sender drains, whether
	// the writer steals — is [head, tail) at the instant of the decision.
	// Only the application stores tail; head moves under lk (the sender and
	// the writer thread both take from it). len(ring) is a power of two
	// above BufferBlocks: the one block a failed steal puts back fits.
	ring []*block.Block
	tail atomic.Uint64
	_    [56]byte // the application stores tail per block: keep it off head's line
	head atomic.Uint64
	// senderIdle and writerIdle say the thread is parked on its condition
	// (set and cleared under lk). The application reads them after publishing
	// tail and takes lk only to wake a parked thread; a thread parks only
	// after re-reading tail with its flag up, so one of the two always sees
	// the other.
	senderIdle atomic.Bool
	writerIdle atomic.Bool
	_          [48]byte

	// app is the application's side of Write: touched by the goroutine that
	// calls Write and Close and by nothing else.
	app struct {
		head    uint64         // head as last read: at most the one block a failed steal put back ahead of it
		pending int64          // blocks written since Written last heard
		stock   []*block.Block // headers to build the next blocks in
		closed  bool
	}

	diskIDs    []rt.DiskRef // spilled but not yet announced to the consumer
	seq        int          // next block sequence number (the application's)
	closed     bool
	senderDone bool
	writerDone bool
	err        error        // the first relayed batch the operator could not encode
	finished   atomic.Int64 // when the last runtime thread exited, as a time.Duration
	fl         flow.ProducerFlows

	// arbiter is router when it also elects the disk channel and the producer
	// has a staging tier to weigh disk against; nil leaves the writer thread
	// on Algorithm 1 (above HighWater, steal). poolEmpty, kept under lk, says
	// the sender's last pool resolution found no stager to weigh it against.
	arbiter   flow.DiskArbiter
	poolEmpty bool
}

// BlockEncoder is what the sender thread needs of a reduce.Encoder (a test
// substitutes one that fails), the same method a stager's forwarder asks
// for. A block EncodeBlock returns an error for must be left as it was, so it
// can still be sent unreduced.
type BlockEncoder interface {
	EncodeBlock(b *block.Block) error
}

// SetEncoder replaces the operator the sender thread reduces relayed batches
// with. Call it before the first Write: the sender reads the operator only
// once it holds a batch, which takes the producer lock after this.
func (p *Producer) SetEncoder(c rt.Ctx, enc BlockEncoder) {
	p.lk.Lock(c)
	p.enc = enc
	p.lk.Unlock(c)
}

// NewProducer builds the runtime module for one producer rank feeding
// consumer endpoint `to`, and starts its sender and writer threads.
// Producers without a staging tier pass NoStager; see NewStagedProducer.
func NewProducer(env rt.Env, cfg Config, rank, to int, tr rt.Transport, fs rt.BlockStore) *Producer {
	return NewStagedProducer(env, cfg, rank, to, NoStager, tr, fs)
}

// NoStager is the stager address of a producer with no staging tier.
const NoStager = -1

// NewStagedProducer is NewProducer with an assigned in-transit stager:
// stager is the transport address (consumer count + stager index) the
// routing policy may relay batches through, or NoStager.
func NewStagedProducer(env rt.Env, cfg Config, rank, to, stager int, tr rt.Transport, fs rt.BlockStore) *Producer {
	cfg = cfg.withDefaults()
	if stager < 0 {
		stager = NoStager
	}
	p := &Producer{env: env, cfg: cfg, rank: rank, to: to, stager: stager, tr: tr, fs: fs, rec: cfg.Recycler}
	if p.rec == nil {
		p.rec = block.NewRecycler(cfg.MaxBatchBlocks)
	}
	p.ring = make([]*block.Block, 1<<bits.Len(uint(cfg.BufferBlocks)))
	p.router = cfg.router()
	if stager != NoStager || cfg.Directory != nil {
		p.arbiter, _ = p.router.(flow.DiskArbiter)
	}
	if cfg.Reduce.Enabled() && !cfg.Reduce.OnPressure {
		p.enc = reduce.NewEncoder(cfg.Reduce)
	}
	if cfg.ConsumerDirectory != nil {
		p.destBlocks = map[int]int64{}
		p.destDisk = map[int]int64{}
	}
	p.lk = env.NewLock(fmt.Sprintf("zprod.%d", rank))
	p.notEmpty = p.lk.NewCond(fmt.Sprintf("zprod.%d.notEmpty", rank))
	p.notFull = p.lk.NewCond(fmt.Sprintf("zprod.%d.notFull", rank))
	p.aboveHW = p.lk.NewCond(fmt.Sprintf("zprod.%d.aboveHW", rank))
	p.done = p.lk.NewCond(fmt.Sprintf("zprod.%d.done", rank))
	env.Go(fmt.Sprintf("zprod.%d.sender", rank), p.senderThread)
	if cfg.DisableSteal {
		p.writerDone = true
	} else {
		env.Go(fmt.Sprintf("zprod.%d.writer", rank), p.writerThread)
	}
	return p
}

// Rank returns the producer's rank.
func (p *Producer) Rank() int { return p.rank }

func (p *Producer) traceName(thread string) string {
	return fmt.Sprintf("zprod.%d.%s", p.rank, thread)
}

// Write hands one block of simulation output to the runtime. data may be nil
// in simulation mode, with bytes carrying the logical size; in real mode
// pass the payload and bytes == int64(len(data)); the payload is the
// runtime's from then on, and goes back to the block pool once the block is
// delivered or stolen. Write blocks only while the producer buffer is full —
// with stealing enabled the writer thread relieves that condition through the
// file-system path, whenever the buffer is above HighWater and, if the router
// arbitrates disk, for as long as it elects it.
//
// Write and Close belong to one goroutine, and that is what makes the common
// case cheap: the block goes into the ring with one atomic store and no lock.
// The application takes lk only to wait for room, and to wake the sender or
// the writer thread when it finds one parked — so a block written into an idle
// runtime leaves at once, and one written behind a busy sender leaves with
// that sender's next batch.
func (p *Producer) Write(c rt.Ctx, step int, offset int64, data []byte, bytes int64) {
	if data != nil && int64(len(data)) != bytes {
		panic(fmt.Sprintf("core: Write bytes %d != len(data) %d", bytes, len(data)))
	}
	p.env.CopyDelay(c, bytes)
	a := &p.app
	if a.closed {
		panic("core: Write after Close")
	}
	tail := p.tail.Load() // the application's own last store
	if tail-a.head >= uint64(p.cfg.BufferBlocks) {
		// Out of known room: see how far the runtime has come since.
		if a.head = p.head.Load(); tail-a.head >= uint64(p.cfg.BufferBlocks) {
			p.waitRoom(c, tail)
		}
	}
	if len(a.stock) == 0 {
		a.stock = p.rec.Headers(a.stock)
	}
	b := a.stock[len(a.stock)-1]
	a.stock[len(a.stock)-1] = nil
	a.stock = a.stock[:len(a.stock)-1]
	// Field by field: the header's generation survives its reuse.
	b.ID = block.ID{Rank: p.rank, Step: step, Seq: p.seq}
	b.Offset, b.Bytes, b.Data = offset, bytes, data
	b.OnDisk, b.Enc, b.EncBytes = false, 0, 0
	p.seq++
	p.ring[tail&uint64(len(p.ring)-1)] = b
	tail++
	p.tail.Store(tail)
	a.pending++

	wakeSender := p.senderIdle.Load()
	wakeWriter := p.writerIdle.Load() && tail-p.head.Load() > uint64(p.cfg.HighWater)
	if wakeSender || wakeWriter {
		p.lk.Lock(c)
		p.flushWritten()
		p.wakeSenderLocked()
		if wakeWriter {
			p.wakeWriterLocked()
		}
		p.lk.Unlock(c)
	} else if a.pending >= int64(p.cfg.MaxBatchBlocks) {
		p.flushWritten()
	}
}

// wakeSenderLocked signals the sender if it is parked. The flag comes down
// with the signal, not when the thread gets to run again, so the Writes in
// between do not queue on lk behind a thread that is already on its way.
func (p *Producer) wakeSenderLocked() {
	if p.senderIdle.Load() {
		p.senderIdle.Store(false)
		p.notEmpty.Signal()
	}
}

// wakeWriterLocked is wakeSenderLocked for the writer thread.
func (p *Producer) wakeWriterLocked() {
	if p.writerIdle.Load() {
		p.writerIdle.Store(false)
		p.aboveHW.Signal()
	}
}

// flushWritten tells the Written counter about the blocks written since it last
// heard: once per batch rather than once per block, so a live BlocksWritten
// trails the application by less than MaxBatchBlocks. The application's.
func (p *Producer) flushWritten() {
	if a := &p.app; a.pending > 0 {
		p.fl.Written.Add(a.pending)
		a.pending = 0
	}
}

// waitRoom parks the application until the buffer has room for one more
// block, and accounts the stall.
func (p *Producer) waitRoom(c rt.Ctx, tail uint64) {
	a := &p.app
	full := func() bool {
		a.head = p.head.Load()
		return tail-a.head >= uint64(p.cfg.BufferBlocks)
	}
	p.lk.Lock(c)
	if full() {
		stallStart := c.Now()
		p.flushWritten()
		for full() {
			p.notFull.Wait(c)
		}
		now := c.Now()
		if stall := now - stallStart; stall > 0 {
			p.fl.WriteStall.Add(int64(stall))
			p.router.ObserveStall(now, stall)
			if p.cfg.Recorder != nil {
				p.cfg.Recorder.Add(p.traceName("app"), "stall", stallStart, now)
			}
		}
	}
	p.lk.Unlock(c)
}

// Close tells the runtime no more blocks are coming. The sender thread
// drains the buffer and announces end-of-stream to the consumer; Close does
// not wait for that — use Wait.
func (p *Producer) Close(c rt.Ctx) {
	p.app.closed = true
	p.flushWritten()
	p.lk.Lock(c)
	p.closed = true
	p.wakeSenderLocked()
	p.wakeWriterLocked()
	p.lk.Unlock(c)
}

// Wait blocks until the sender and writer threads have exited (all data
// handed to the network or the file system and the Fin message sent).
func (p *Producer) Wait(c rt.Ctx) {
	p.lk.Lock(c)
	for !(p.senderDone && p.writerDone) {
		p.done.Wait(c)
	}
	p.lk.Unlock(c)
}

// Err reports a runtime failure: a relayed block the reduction operator could
// not encode. The block went out unreduced and nothing is lost; the run was
// only less reduced than its Config asked for.
func (p *Producer) Err(c rt.Ctx) error {
	p.lk.Lock(c)
	defer p.lk.Unlock(c)
	return p.err
}

// Stats returns a snapshot of the module's counters, taking none of the
// module's locks: each total is one the run has reached, and the snapshot is
// final once Wait has returned. BlocksWritten trails the blocks Write
// accepted by less than MaxBatchBlocks until Close, which makes it exact.
func (p *Producer) Stats() ProducerStats {
	return ProducerStats{
		BlocksWritten: p.fl.Written.Total(),
		BlocksSent:    p.fl.Sent.Total(),
		BlocksRelayed: p.fl.Relayed.Total(),
		BlocksStolen:  p.fl.Stolen.Total(),
		Messages:      p.fl.Messages.Total(),
		BytesOnWire:   p.fl.WireBytes.Total(),
		BytesReduced:  p.fl.SavedBytes.Total(),
		WriteStall:    time.Duration(p.fl.WriteStall.Total()),
		SendBusy:      time.Duration(p.fl.SendBusy.Total()),
		StealBusy:     time.Duration(p.fl.StealBusy.Total()),
		Finished:      time.Duration(p.finished.Load()),
	}
}

// queuedLocked is the producer buffer's length as of the tail the caller read.
func (p *Producer) queuedLocked(tail uint64) int { return int(tail - p.head.Load()) }

// senderThread drains the producer buffer to the network in batches of up to
// MaxBatchBlocks, piggybacking the IDs of spilled blocks, and
// finally emits the Fin message. It visits lk once per message: what a send
// leaves to record under the lock is recorded when the next drain takes it.
func (p *Producer) senderThread(c rt.Ctx) {
	p.lk.Lock(c)
	for {
		for {
			tail := p.tail.Load()
			if p.queuedLocked(tail) > 0 || len(p.diskIDs) > 0 || (p.closed && p.writerDone) {
				break
			}
			// Flag first, then look again: a Write that published after the
			// look above and before the flag went up saw no one to wake.
			p.senderIdle.Store(true)
			if p.tail.Load() == tail {
				p.notEmpty.Wait(c)
			}
			p.senderIdle.Store(false)
		}
		blocks := p.drainBatchLocked()
		ids := p.diskIDs
		if blocks == nil && len(ids) == 0 {
			break // closed, the writer gone, nothing left
		}
		p.diskIDs = nil
		dest, to, route := p.routeLocked(c, len(blocks))
		p.lk.Unlock(c)

		var encodeErr error
		if route == flow.Relay && p.enc != nil {
			// Reduce the batch before it hits the wire. The encoder touches
			// every raw byte, so the simulated platform charges the pass at
			// memory bandwidth; decode happens once, at the consumer edge. A
			// block the operator fails on is left as it was and goes out
			// unreduced; Err keeps the first failure.
			if pp := p.cfg.ReducePipeline; pp != nil {
				// Parallel encode across the job's shared worker pool:
				// in-place and joined before the send, so batch order and
				// wire bytes match the inline path exactly.
				for _, b := range blocks {
					p.env.CopyDelay(c, b.Bytes)
				}
				encodeErr = pp.EncodeBatch(blocks)
			} else {
				for _, b := range blocks {
					p.env.CopyDelay(c, b.Bytes)
					if err := p.enc.EncodeBlock(b); err != nil && encodeErr == nil {
						encodeErr = err
					}
				}
			}
			if encodeErr != nil {
				encodeErr = fmt.Errorf("core: reducing relayed batch: %w", encodeErr)
			}
		}
		// The message's blocks, and the slice that lists them, are the
		// receiver's once Send returns: count first.
		n := int64(len(blocks))
		var payload, wire int64
		for _, b := range blocks {
			payload += b.Bytes
			wire += b.WireBytes()
		}
		start := c.Now()
		p.tr.Send(c, dest, rt.Message{From: p.rank, Dest: to, Blocks: blocks, Disk: ids})
		if route == flow.Relay && p.cfg.Directory != nil {
			// The send has deposited: release the pool claim so a drain of
			// this stager can quiesce.
			p.cfg.Directory.Done(dest)
		}
		now := c.Now()
		busy := now - start
		p.router.ObserveSend(route, now, busy, int(n), payload)
		if p.cfg.Recorder != nil {
			p.cfg.Recorder.Add(p.traceName("sender"), route.String(), start, start+busy)
		}

		// The send's bookkeeping opens the critical section the next drain
		// (or the wait for one) runs in.
		p.lk.Lock(c)
		if p.err == nil {
			p.err = encodeErr
		}
		p.fl.SendBusy.Add(int64(busy))
		p.fl.Messages.Add(1)
		p.fl.WireBytes.Add(wire)
		if saved := payload - wire; saved > 0 {
			p.fl.SavedBytes.Add(saved)
		}
		if route == flow.Relay {
			p.fl.Relayed.Add(n)
		} else {
			p.fl.Sent.Add(n)
		}
		if p.destBlocks != nil {
			p.destBlocks[to] += n
			p.destDisk[to] += int64(len(ids))
		}
	}
	p.lk.Unlock(c)
	// Fin carries any last spilled IDs implicitly not needed: loop ensures
	// diskIDs is empty before exit.
	//
	// Note the loop drains the buffer completely before this point, so a
	// Close racing a partially filled batch cannot strand blocks: the exit
	// predicate requires both the buffer and the disk-ID list to be empty.
	//
	// With a staging tier in play the Fin travels through the stager: the
	// stager forwards per-producer arrivals in order, so the relayed Fin
	// trails every relayed block, and — because each Send deposits its
	// message before returning — every earlier direct-path message already
	// sits in the consumer's inbox. Either way the Fin is the last message
	// the consumer sees from this rank.
	//
	// The relayed-anything clause makes that ordering a mechanism rather
	// than a convention: even a custom NewRouter paired with a RouteDirect
	// policy cannot strand relayed blocks behind a direct Fin.
	//
	// With a pool Directory the producer may have relayed through several
	// stagers over its lifetime and no single relay path can order the Fin
	// behind all of them, so the Fin goes direct and termination leans on
	// the declared totals instead: the consumer holds its stream open until
	// FinBlocks network deliveries and FinDisk disk-ref announcements have
	// actually arrived, wherever they are still queued.
	//
	// With a ConsumerDirectory the destination itself was policy-resolved
	// per batch, so there is one direct Fin per consumer member, each
	// declaring that consumer's per-destination totals.
	p.sendFins(c)
	p.lk.Lock(c)
	p.senderDone = true
	p.finished.Store(int64(c.Now()))
	p.done.Broadcast()
	p.lk.Unlock(c)
}

// sendFins emits the end-of-stream announcement(s) once the buffer and the
// disk-ID list have fully drained. Runs on the sender thread.
func (p *Producer) sendFins(c rt.Ctx) {
	if p.cfg.ConsumerDirectory != nil {
		// One Fin per consumer member — including consumers this producer
		// never reached, whose Fin declares zero deliveries: every consumer
		// was built expecting a Fin from every producer.
		for _, q := range p.cfg.ConsumerDirectory.Members() {
			start := c.Now()
			p.tr.Send(c, q, rt.Message{From: p.rank, Dest: q, Fin: true,
				FinBlocks: p.destBlocks[q], FinDisk: p.destDisk[q]})
			p.fl.Messages.Add(1)
			p.fl.SendBusy.Add(int64(c.Now() - start))
		}
		return
	}
	finDest := p.to
	if p.cfg.Directory == nil && p.stager != NoStager &&
		(p.cfg.RoutePolicy != RouteDirect || p.fl.Relayed.Total() > 0) {
		finDest = p.stager
	}
	start := c.Now()
	p.tr.Send(c, finDest, rt.Message{From: p.rank, Dest: p.to, Fin: true,
		FinBlocks: p.fl.Sent.Total() + p.fl.Relayed.Total(),
		FinDisk:   p.fl.Stolen.Total()})
	p.fl.Messages.Add(1)
	p.fl.SendBusy.Add(int64(c.Now() - start))
}

// drainBatchLocked removes up to MaxBatchBlocks blocks from the head of the
// producer buffer — everything the application has published by now counts.
// Returns nil when the buffer is empty (a send that only announces spilled
// IDs). The slice is the job's to recycle once the receiver has the blocks.
func (p *Producer) drainBatchLocked() []*block.Block {
	head := p.head.Load()
	queued := int(p.tail.Load() - head)
	if queued == 0 {
		return nil
	}
	mask := uint64(len(p.ring) - 1)
	n := min(queued, p.cfg.MaxBatchBlocks)
	blocks := p.rec.Slice()
	if cap(blocks) < n {
		blocks = make([]*block.Block, 0, n)
	}
	for i := uint64(0); i < uint64(n); i++ {
		blocks = append(blocks, p.ring[(head+i)&mask])
	}
	p.head.Store(head + uint64(n))
	if n > 1 {
		p.notFull.Broadcast()
	} else {
		p.notFull.Signal()
	}
	return blocks
}

// routeLocked picks the endpoints for the batch the sender just drained:
// the destination consumer `to` (fixed wiring, or resolved per batch from
// the ConsumerDirectory by the placement policy), and the transport address
// `dest` the message is sent to (the consumer itself, or a staging relay).
// It assembles the live backpressure signals — window credit from the
// transport, stager occupancy from its flow gauge, and the remaining buffer
// backlog — and lets the configured flow.Router elect the channel. Called
// with the producer lock held, after drainBatchLocked, so what the buffer
// holds is the remaining backlog.
func (p *Producer) routeLocked(c rt.Ctx, batch int) (dest, to int, route flow.Route) {
	to = p.to
	if p.cfg.ConsumerDirectory != nil {
		if q, ok := p.cfg.ConsumerDirectory.Peek(p.rank); ok {
			to = q
		}
	}
	if p.cfg.Directory != nil {
		dest, route = p.routePoolLocked(c, to, batch)
		return dest, to, route
	}
	if p.stager == NoStager {
		return to, to, flow.Direct
	}
	// Fixed policies ignore every signal: skip the credit probes and the
	// occupancy gauge read so RouteDirect and RouteStaging keep their
	// zero-probe hot path.
	if r, ok := flow.StaticRoute(p.router); ok {
		if r == flow.Relay {
			return p.stager, to, flow.Relay
		}
		return to, to, flow.Direct
	}
	sig := p.signalsLocked(c, p.stager, to, batch)
	if p.router.Route(sig) == flow.Relay {
		return p.stager, to, flow.Relay
	}
	return to, to, flow.Direct
}

// routePoolLocked is routeLocked against a stager pool directory: the
// stager is resolved from the live membership for this batch alone. A relay
// election is committed with Claim — which re-resolves atomically, so a
// membership change between the signal read and the commit can redirect the
// batch but never lands it on a retired endpoint — and the sender releases
// the claim with Done once the send has deposited.
func (p *Producer) routePoolLocked(c rt.Ctx, to, batch int) (int, flow.Route) {
	addr, ok := p.cfg.Directory.Peek(p.rank)
	p.poolEmpty = !ok
	if !ok {
		return to, flow.Direct // empty pool: only the direct path exists
	}
	relay := false
	if r, fixed := flow.StaticRoute(p.router); fixed {
		relay = r == flow.Relay
	} else {
		relay = p.router.Route(p.signalsLocked(c, addr, to, batch)) == flow.Relay
	}
	if relay {
		if a, ok := p.cfg.Directory.Claim(p.rank); ok {
			return a, flow.Relay
		}
	}
	return to, flow.Direct
}

// signalsLocked assembles the live backpressure signals for a routing
// decision against the stager at addr, for a batch destined to consumer to.
func (p *Producer) signalsLocked(c rt.Ctx, addr, to, batch int) flow.Signals {
	sig := flow.Signals{
		Now:            c.Now(),
		Backlog:        p.queuedLocked(p.tail.Load()),
		Capacity:       p.cfg.BufferBlocks,
		HighWater:      p.cfg.HighWater,
		Credits:        flow.CreditsUnknown,
		StagerCredits:  flow.CreditsUnknown,
		StagerQueued:   flow.OccupancyUnknown,
		StagerCapacity: flow.OccupancyUnknown,
		Batch:          batch,
	}
	if ct, ok := p.tr.(rt.CreditTransport); ok {
		sig.Credits = ct.Credits(to)
		sig.StagerCredits = ct.Credits(addr)
	}
	if p.cfg.StagerLevel != nil {
		if lv := p.cfg.StagerLevel(addr); lv != nil {
			sig.StagerQueued, sig.StagerCapacity = lv.Get()
		}
	}
	return sig
}

// stealElectedLocked is the writer thread's condition, on the buffer as of
// the tail the caller read. Algorithm 1 steals whenever the buffer is above
// the high-water threshold; with a staging tier and a router that arbitrates
// disk, the router is asked as well, so the three channels answer to one
// controller instead of the file system being filled behind the router's back.
func (p *Producer) stealElectedLocked(tail uint64) bool {
	if p.queuedLocked(tail) <= p.cfg.HighWater {
		return false
	}
	if p.arbiter == nil || p.poolEmpty {
		return true
	}
	return p.arbiter.ElectDisk()
}

// writerThread is Algorithm 1: steal the oldest block whenever the buffer is
// above the high-water threshold — and the router, when it arbitrates disk,
// elects it — and route it through the parallel file system. If a spill
// fails, the block is returned to the buffer and stealing is disabled so no
// data is lost.
func (p *Producer) writerThread(c rt.Ctx) {
	mask := uint64(len(p.ring) - 1)
	for {
		p.lk.Lock(c)
		for !p.closed {
			tail := p.tail.Load()
			if p.stealElectedLocked(tail) {
				break
			}
			// As the sender parks: flag, look again, wait.
			p.writerIdle.Store(true)
			if p.tail.Load() == tail {
				p.aboveHW.Wait(c)
			}
			p.writerIdle.Store(false)
		}
		if p.closed {
			p.writerDone = true
			p.finished.Store(int64(c.Now()))
			p.wakeSenderLocked()
			p.done.Broadcast()
			p.lk.Unlock(c)
			return
		}
		head := p.head.Load()
		b := p.ring[head&mask]
		p.head.Store(head + 1)
		p.notFull.Signal()
		p.lk.Unlock(c)

		start := c.Now()
		err := p.fs.WriteBlock(c, b)
		busy := c.Now() - start

		p.lk.Lock(c)
		now := c.Now()
		p.fl.StealBusy.Add(int64(busy))
		if err != nil {
			// Put the block back at the front: order within the network path
			// is not load-bearing, but data must not be lost. Its slot is
			// free whatever the application wrote meanwhile — the ring has at
			// least one more than BufferBlocks.
			head = p.head.Load() - 1
			p.ring[head&mask] = b
			p.head.Store(head)
			p.writerDone = true
			p.wakeSenderLocked()
			p.done.Broadcast()
			p.lk.Unlock(c)
			return
		}
		p.fl.Stolen.Add(1)
		p.diskIDs = append(p.diskIDs, rt.DiskRef{ID: b.ID, Bytes: b.Bytes})
		p.wakeSenderLocked() // the ID list alone is worth announcing
		p.lk.Unlock(c)
		if p.arbiter != nil {
			p.arbiter.ObserveSend(flow.Disk, now, busy, 1, b.Bytes)
		}
		b.Release() // recycle the payload: the file-system copy is authoritative now
		if p.cfg.Recorder != nil {
			p.cfg.Recorder.Add(p.traceName("writer"), "steal", start, start+busy)
		}
	}
}
