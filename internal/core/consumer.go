package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"zipper/internal/block"
	"zipper/internal/flow"
	"zipper/internal/reduce"
	"zipper/internal/rt"
)

// entry is one block resident in the consumer buffer with its lifecycle
// flags. A block is freed only when analyzed and, in Preserve mode, stored;
// release marks a payload the analysis has returned for recycling, which the
// runtime honors only once it no longer needs the bytes itself.
type entry struct {
	b        *block.Block
	analyzed bool
	stored   bool
	release  bool
}

func (e *entry) freed() bool { return e.analyzed && e.stored }

// entryQueue is the consumer buffer's storage: a growable ring of entries in
// arrival order, addressed by positions that only ever increase, so the
// threads' cursors into it stay valid across pops and growth and no entry is
// allocated or moved per block.
type entryQueue struct {
	buf        []entry // len is a power of two
	head, tail uint64  // positions of the oldest entry and of the next push
}

func (q *entryQueue) at(pos uint64) *entry { return &q.buf[pos&uint64(len(q.buf)-1)] }

func (q *entryQueue) push(e entry) {
	if n := uint64(len(q.buf)); q.tail-q.head == n {
		grown := entryQueue{buf: make([]entry, max(2*n, 16)), head: q.head, tail: q.tail}
		for pos := q.head; pos != q.tail; pos++ {
			*grown.at(pos) = *q.at(pos)
		}
		*q = grown
	}
	*q.at(q.tail) = e
	q.tail++
}

// Consumer is one analysis process's runtime module. The analysis
// application calls Read repeatedly; ok=false reports that every producer
// finished and all their blocks were delivered and analyzed.
type Consumer struct {
	env rt.Env
	cfg Config
	id  int
	in  rt.Inbox
	fs  rt.BlockStore
	// dec restores reduced payloads at the receiver edge. It needs no
	// configuration — the block's Enc tag selects the decode path — so every
	// consumer owns one and any upstream hop is free to reduce.
	dec *reduce.Decoder

	lk        rt.Lock
	avail     rt.Cond // a block became available for analysis or state change
	space     rt.Cond // buffer space freed
	diskWork  rt.Cond // a disk ID arrived or receiver exited
	storeWork rt.Cond // an unstored block arrived or upstream exited
	done      rt.Cond // a runtime thread exited

	// The buffer. Read hands blocks out in arrival order, so the analyzed
	// entries are exactly [q.head, next); occupancy counts the entries not
	// yet freed, which in Preserve mode can be fewer than the queue holds (a
	// freed entry waits behind an older one the output thread still owes).
	q         entryQueue
	next      uint64 // position of the first entry Read has not claimed
	store     uint64 // output thread's cursor: nothing unstored lies before it
	occupancy int

	// The claim. Read takes up to half the buffer's blocks per visit to lk
	// and returns them one by one without it (Read is one goroutine's, see
	// Read). A claimed block stays in the buffer — it counts against
	// occupancy and the entry keeps its place — until Read has returned it:
	// the application publishes the queue position past the last block it
	// has returned in handed, which is also how many blocks Read has ever
	// returned (Stats' BlocksAnalyzed), and whoever next holds lk and has to
	// know (an insert that finds the buffer full, the output thread, the
	// application's own next visit) settles the entries up to there, so the
	// buffer every decision reads is the one a lock per Read would have left.
	// A thread that parks for space raises spaceWanted first; the application
	// looks at it after every block and comes in to settle and wake.
	claim       []*block.Block // the application's: the blocks of the current claim
	taken       int            // the application's: how many of them Read has returned
	settled     uint64         // under lk: position past the last entry marked analyzed
	handed      atomic.Uint64  // position past the last block Read returned
	spaceWanted atomic.Bool    // a thread is parked on space (set and cleared under lk)
	// announce: what the threads that insert owe the ones that wait, paid
	// once per message (and before any wait for space) instead of per block.
	newAvail, newStore bool

	// rec is the job's free list (Config.Recycler) or the consumer's own;
	// spent collects the headers of released blocks until they fill a batch.
	// Both are the application's in NoPreserve mode and under lk in Preserve
	// mode, where the output thread releases too.
	rec          *block.Recycler
	spent        []*block.Block
	pendingDisk  []pendingRead
	finsExpected int
	finsGot      int
	// Counted termination: Fins declare how many network blocks and disk
	// refs each producer emitted; the receiver holds the stream open until
	// the declared deliveries have arrived, so relayed blocks trailing a Fin
	// through an elastic stager pool are never dropped. Fixed configurations
	// satisfy the counts exactly when the last Fin arrives. fl.Lost counts
	// blocks an upstream relay declared dropped (spill-store failure) — they
	// satisfy the declared totals so a lossy stream still terminates.
	declaredBlocks int64
	declaredDisk   int64
	seenDisk       int64
	recvDone       bool
	readerDone     bool
	outputDone     bool
	err            error
	finished       atomic.Int64 // when the last runtime thread exited, as a time.Duration
	fl             flow.ConsumerFlows
}

// pendingRead is a spilled block awaiting the reader thread.
type pendingRead struct {
	id    block.ID
	bytes int64
}

// NewConsumer builds the runtime module for one consumer endpoint that will
// see `producers` upstream ranks, and starts its receiver, reader, and (in
// Preserve mode) output threads.
func NewConsumer(env rt.Env, cfg Config, id int, producers int, in rt.Inbox, fs rt.BlockStore) *Consumer {
	cfg = cfg.withDefaults()
	if producers < 1 {
		panic("core: consumer needs at least one producer")
	}
	c := &Consumer{env: env, cfg: cfg, id: id, in: in, fs: fs, finsExpected: producers,
		dec: reduce.NewDecoder(), rec: cfg.Recycler}
	if c.rec == nil {
		c.rec = block.NewRecycler(cfg.MaxBatchBlocks)
	}
	c.spent = c.rec.Slice()
	c.claim = make([]*block.Block, 0, max(1, cfg.ConsumerBufferBlocks/2))
	c.fl.Queue.SetCapacity(cfg.ConsumerBufferBlocks)
	c.lk = env.NewLock(fmt.Sprintf("zcons.%d", id))
	c.avail = c.lk.NewCond(fmt.Sprintf("zcons.%d.avail", id))
	c.space = c.lk.NewCond(fmt.Sprintf("zcons.%d.space", id))
	c.diskWork = c.lk.NewCond(fmt.Sprintf("zcons.%d.diskWork", id))
	c.storeWork = c.lk.NewCond(fmt.Sprintf("zcons.%d.storeWork", id))
	c.done = c.lk.NewCond(fmt.Sprintf("zcons.%d.done", id))
	env.Go(fmt.Sprintf("zcons.%d.receiver", id), c.receiverThread)
	env.Go(fmt.Sprintf("zcons.%d.reader", id), c.readerThread)
	if cfg.Mode == Preserve {
		env.Go(fmt.Sprintf("zcons.%d.output", id), c.outputThread)
	} else {
		c.outputDone = true
	}
	return c
}

// ID returns the consumer endpoint id.
func (c *Consumer) ID() int { return c.id }

func (c *Consumer) traceName(thread string) string {
	return fmt.Sprintf("zcons.%d.%s", c.id, thread)
}

// Read blocks until a data block is available and returns it, marking it
// analyzed. ok=false means the stream is complete (or failed; check Err).
// Blocks are delivered in arrival order, which may interleave steps and
// producers — each block carries its identity, so the analysis can place it.
//
// Read, ReleaseBlock and the blocks they pass belong to one goroutine. That
// is what lets Read claim several blocks per visit to the consumer lock and
// hand the rest out without it.
func (c *Consumer) Read(x rt.Ctx) (*block.Block, bool) {
	if c.taken == len(c.claim) {
		return c.claimMore(x)
	}
	b := c.claim[c.taken]
	c.handOut()
	if c.spaceWanted.Load() {
		// Someone is waiting for the room this block just left.
		c.lk.Lock(x)
		c.settleLocked()
		c.lk.Unlock(x)
	}
	return b, true
}

// handOut publishes that Read is returning the next block of the claim. In
// NoPreserve mode that block is thereby gone from the buffer, whenever that
// is settled, so the occupancy gauge's readers are told at once.
func (c *Consumer) handOut() {
	c.taken++
	c.handed.Add(1)
	if c.cfg.Mode == NoPreserve {
		c.fl.Queue.Debit(1)
	}
}

// claimMore settles the claim Read has used up, waits for the next one — up
// to cap(claim) of the blocks that have arrived — and returns its first
// block. ok=false when no more can arrive (end of stream, or failure).
func (c *Consumer) claimMore(x rt.Ctx) (*block.Block, bool) {
	c.lk.Lock(x)
	c.settleLocked()
	if c.next == c.q.tail {
		stallStart := x.Now()
		for c.next == c.q.tail {
			if c.drainedLocked() || c.err != nil {
				c.lk.Unlock(x)
				return nil, false
			}
			c.avail.Wait(x)
		}
		if now := x.Now(); c.cfg.Recorder != nil && now > stallStart {
			c.cfg.Recorder.Add(c.traceName("app"), "stall", stallStart, now)
		}
	}
	n := min(int(c.q.tail-c.next), cap(c.claim))
	c.claim = c.claim[:0]
	for i := 0; i < n; i++ {
		c.claim = append(c.claim, c.q.at(c.next+uint64(i)).b)
	}
	c.next += uint64(n)
	c.taken = 0
	c.handOut()
	c.settleLocked()
	c.lk.Unlock(x)
	return c.claim[0], true
}

// drainedLocked reports whether no more analyzable blocks can appear.
func (c *Consumer) drainedLocked() bool {
	return c.recvDone && c.readerDone && c.next == c.q.tail
}

// settleLocked brings the buffer up to date with the blocks Read has returned
// since lk was last held: each is marked analyzed and, if it is stored too,
// leaves the buffer.
func (c *Consumer) settleLocked() {
	handed := c.handed.Load()
	freed := 0
	for ; c.settled < handed; c.settled++ {
		e := c.q.at(c.settled)
		e.analyzed = true
		if e.stored {
			freed++
		}
	}
	if freed > 0 {
		debited := 0
		if c.cfg.Mode == NoPreserve {
			debited = freed // Read debited the gauge for each as it returned it
		}
		c.freeLocked(freed, debited)
	}
}

// freeLocked accounts for n entries that just completed their lifecycle
// (analyzed and stored), debited of them already taken off the occupancy
// gauge by Read, and vacates every freed entry at the queue head.
func (c *Consumer) freeLocked(n, debited int) {
	for c.q.head != c.q.tail && c.q.at(c.q.head).freed() {
		c.q.at(c.q.head).b = nil
		c.q.head++
	}
	c.occupancy -= n
	c.fl.Queue.SetAbsorbing(c.occupancy, debited)
	c.spaceWanted.Store(false)
	c.space.Broadcast()
}

// announceLocked pays what the inserts since the last call owe: the occupancy
// gauge, the application if blocks became available, the output thread if
// any of them is unstored. The threads that insert call it before they let go
// of lk — to wait for space, or for good.
func (c *Consumer) announceLocked() {
	if c.newAvail {
		c.newAvail = false
		c.fl.Queue.Set(c.occupancy)
		c.avail.Signal()
	}
	if c.newStore {
		c.newStore = false
		c.storeWork.Signal()
	}
}

// insertLocked waits for buffer space and appends a new entry; the caller
// announces. Once the
// consumer has failed (c.err set) space may never free again — the output
// thread is gone and analyzed-but-unstored entries occupy the buffer forever
// — so the wait gives up and the entry is appended over capacity: the stream
// is already lost, but the receiver must keep draining so Wait and the
// producers' Fins can complete.
func (c *Consumer) insertLocked(x rt.Ctx, b *block.Block) {
	if c.fullLocked() {
		c.announceLocked()
		for c.fullLocked() {
			// Flag first, then look again: a Read that published after the
			// look above and before the flag went up saw no one to wake.
			c.spaceWanted.Store(true)
			if c.handed.Load() == c.settled {
				c.space.Wait(x)
			}
		}
	}
	stored := b.OnDisk || c.cfg.Mode == NoPreserve
	c.q.push(entry{b: b, stored: stored})
	c.occupancy++
	c.newAvail = true
	if !stored {
		c.newStore = true
	}
}

// fullLocked reports whether an insert has to wait, after settling what the
// application has returned since lk was last held.
func (c *Consumer) fullLocked() bool {
	if c.occupancy >= c.cfg.ConsumerBufferBlocks {
		c.settleLocked()
	}
	return c.occupancy >= c.cfg.ConsumerBufferBlocks && c.err == nil
}

// ReleaseBlock hands b back once the analysis is done with it: the payload
// goes to the payload pool and the header to the job's free list. gen is the
// header's generation when Read returned it (b.Gen()): a release that comes
// after the header has moved on — a second one, or one through a copy of the
// handle — finds another generation and does nothing. In NoPreserve mode the
// buffer let go of the block when Read returned it, so all of this happens at
// once, with no lock taken; while the Preserve-mode output thread still needs
// the bytes the release is deferred, and happens right after the store
// completes. Call it from the goroutine that calls Read, when it has finished
// with a block; releasing a block whose payload the caller still reads
// corrupts the stream.
func (c *Consumer) ReleaseBlock(x rt.Ctx, b *block.Block, gen uint32) {
	if b == nil {
		return
	}
	if c.cfg.Mode == NoPreserve {
		if b.Gen() == gen {
			c.recycle(b)
		}
		return
	}
	c.lk.Lock(x)
	defer c.lk.Unlock(x)
	if b.Gen() != gen {
		return
	}
	for pos := c.q.head; pos != c.next; pos++ {
		if e := c.q.at(pos); e.b == b && !e.stored {
			e.release = true // output thread releases after storing
			return
		}
	}
	c.recycle(b)
}

// recycle releases b's payload, retires its header and hands headers in a
// batch at a time.
func (c *Consumer) recycle(b *block.Block) {
	b.Release()
	b.Retire()
	c.spent = append(c.spent, b)
	if len(c.spent) == cap(c.spent) {
		c.spent = c.rec.PutHeaders(c.spent)
	}
}

// Err reports a runtime failure (for example, an unreadable spilled block).
func (c *Consumer) Err(x rt.Ctx) error {
	c.lk.Lock(x)
	defer c.lk.Unlock(x)
	return c.err
}

// Wait blocks until the receiver, reader, and output threads have exited.
func (c *Consumer) Wait(x rt.Ctx) {
	c.lk.Lock(x)
	for !(c.recvDone && c.readerDone && c.outputDone) {
		c.done.Wait(x)
	}
	c.lk.Unlock(x)
}

// Level exposes the consumer-buffer occupancy gauge so the placement plane
// (a least-occupancy consumer directory) and any external observer can read
// the live fill and its peak.
func (c *Consumer) Level() *flow.Level { return &c.fl.Queue }

// Stats returns a snapshot of the module's counters, taking none of the
// module's locks. BlocksAnalyzed is exact to the last block Read returned;
// the snapshot is final once Wait has returned.
func (c *Consumer) Stats() ConsumerStats {
	s := ConsumerStats{
		BlocksReceived: c.fl.Received.Total(),
		BlocksRead:     c.fl.Read.Total(),
		BlocksAnalyzed: int64(c.handed.Load()),
		BlocksStored:   c.fl.Stored.Total(),
		BlocksLost:     c.fl.Lost.Total(),
		StoreBusy:      time.Duration(c.fl.StoreBusy.Total()),
		Finished:       time.Duration(c.finished.Load()),
	}
	s.Queued, s.Capacity = c.fl.Queue.Get()
	return s
}

// receiverThread splits mixed messages into buffer entries and disk work
// until every upstream producer has sent Fin.
func (c *Consumer) receiverThread(x rt.Ctx) {
	for {
		start := x.Now()
		m, ok := c.in.Recv(x)
		now := x.Now()
		busy := now - start
		// Restore reduced payloads before the blocks enter the buffer: the
		// analysis (and the Preserve-mode output thread) only ever sees raw
		// bytes. Decoding runs off-lock — it is the CPU-heavy half of the
		// reduction trade — and the simulated platform charges the pass at
		// memory bandwidth.
		var decErr error
		if ok {
			for _, b := range m.Blocks {
				if b.Enc == 0 {
					continue
				}
				c.env.CopyDelay(x, b.Bytes)
				if err := c.dec.DecodeBlock(b); err != nil {
					decErr = err
					break
				}
			}
		}
		c.lk.Lock(x)
		if !ok {
			break // inbox closed under us: treat as end of stream
		}
		if decErr != nil {
			// A payload that cannot be restored is stream corruption: fail
			// the run loudly rather than hand garbage to the analysis.
			c.err = fmt.Errorf("core: restoring reduced block: %w", decErr)
			break
		}
		if c.cfg.Recorder != nil && len(m.Blocks) > 0 {
			c.cfg.Recorder.Add(c.traceName("receiver"), "recv", start, start+busy)
		}
		for _, ref := range m.Disk {
			c.pendingDisk = append(c.pendingDisk, pendingRead{id: ref.ID, bytes: ref.Bytes})
		}
		c.seenDisk += int64(len(m.Disk))
		if len(m.Disk) > 0 {
			c.diskWork.Broadcast()
		}
		for _, b := range m.Blocks {
			c.insertLocked(x, b)
		}
		c.announceLocked()
		c.fl.Received.Add(int64(len(m.Blocks)))
		// The blocks are in the buffer; the slice that listed them is spent.
		c.rec.PutSlice(m.Blocks)
		c.fl.Lost.Add(m.Lost)
		if m.Fin {
			c.finsGot++
			c.declaredBlocks += m.FinBlocks
			c.declaredDisk += m.FinDisk
		}
		// End of stream once every producer's Fin arrived AND their declared
		// deliveries are all in (blocks a relay declared dropped count too —
		// they can never arrive). Fins that declare nothing (legacy senders,
		// hand-built test messages) trivially satisfy the count, reproducing
		// the pure Fin-counted termination exactly.
		if c.finsGot == c.finsExpected &&
			c.fl.Received.Total()+c.fl.Lost.Total() >= c.declaredBlocks && c.seenDisk >= c.declaredDisk {
			break
		}
		c.lk.Unlock(x)
	}
	c.recvDone = true
	c.finished.Store(int64(x.Now()))
	c.diskWork.Broadcast()
	c.storeWork.Broadcast()
	c.avail.Broadcast()
	c.done.Broadcast()
	c.lk.Unlock(x)
}

// readerThread fetches spilled blocks from the file system path and inserts
// them into the consumer buffer; in NoPreserve mode it reclaims the spill
// file afterwards.
func (c *Consumer) readerThread(x rt.Ctx) {
	c.lk.Lock(x)
	for {
		for len(c.pendingDisk) == 0 && !c.recvDone {
			c.diskWork.Wait(x)
		}
		if len(c.pendingDisk) == 0 && c.recvDone {
			break
		}
		pr := c.pendingDisk[0]
		c.pendingDisk = c.pendingDisk[1:]
		c.lk.Unlock(x)

		start := x.Now()
		b, err := c.fs.ReadBlock(x, pr.id, pr.bytes)
		busy := x.Now() - start
		if err == nil && c.cfg.Mode == NoPreserve {
			// Reclaim the temporary spill file; losing the remove is not
			// fatal, so the error is ignored by design.
			_ = c.fs.RemoveBlock(x, pr.id)
		}
		if c.cfg.Recorder != nil {
			c.cfg.Recorder.Add(c.traceName("reader"), "disk-read", start, start+busy)
		}

		c.lk.Lock(x)
		if err != nil {
			c.err = fmt.Errorf("core: reading spilled block %v: %w", pr.id, err)
			break
		}
		c.fl.Read.Add(1)
		c.insertLocked(x, b)
		c.announceLocked()
	}
	c.readerDone = true
	c.finished.Store(int64(x.Now()))
	c.avail.Broadcast()
	c.storeWork.Broadcast()
	c.space.Broadcast() // on error, free a receiver stuck in insertLocked
	c.done.Broadcast()
	c.lk.Unlock(x)
}

// outputThread (Preserve mode) persists blocks that are not yet on disk.
func (c *Consumer) outputThread(x rt.Ctx) {
	c.lk.Lock(x)
	for {
		if c.store < c.q.head {
			c.store = c.q.head // entries that arrived stored were freed past the cursor
		}
		for c.store != c.q.tail && c.q.at(c.store).stored {
			c.store++
		}
		if c.store == c.q.tail {
			if c.recvDone && c.readerDone {
				break
			}
			c.storeWork.Wait(x)
			continue
		}
		b := c.q.at(c.store).b
		c.lk.Unlock(x)

		start := x.Now()
		err := c.fs.WriteBlock(x, b)
		busy := x.Now() - start
		if c.cfg.Recorder != nil {
			c.cfg.Recorder.Add(c.traceName("output"), "store", start, start+busy)
		}

		c.lk.Lock(x)
		c.fl.StoreBusy.Add(int64(busy))
		if err != nil {
			c.err = fmt.Errorf("core: preserving block %v: %w", b.ID, err)
			break
		}
		c.settleLocked() // whether the block is analyzed decides what follows
		// An unstored entry is never freed, so the cursor still names it.
		target := c.q.at(c.store)
		target.stored = true
		c.fl.Stored.Add(1)
		if target.release {
			c.recycle(b)
		}
		if target.analyzed {
			c.freeLocked(1, 0)
		}
	}
	c.outputDone = true
	c.finished.Store(int64(x.Now()))
	c.space.Broadcast()
	c.done.Broadcast()
	c.lk.Unlock(x)
}
