// Package rt defines the platform abstraction beneath the Zipper runtime.
// The runtime's producer and consumer modules are written once against these
// interfaces and run on two platforms:
//
//   - realenv: goroutines, sync primitives, Go channels as the low-latency
//     network, and a spool directory as the parallel file system — for
//     coupling real applications in process (the examples).
//   - simenv: the discrete-event engine with the fabric and PFS models — for
//     re-running the paper's cluster-scale experiments in virtual time.
//
// Every platform implements the whole contract — a Transport's window
// credit and a BlockStore's segment logs included — so nothing probes for a
// part of it, and both platforms run the same code path.
//
// Everything that blocks takes a Ctx so the simulated platform can park the
// calling virtual process.
package rt

import (
	"time"

	"zipper/internal/block"
)

// Ctx is a per-thread handle. Real threads share a trivial implementation;
// simulated threads wrap their engine process.
type Ctx interface {
	// Now reports elapsed time since the platform epoch. This is the only
	// clock the runtime reads: the adaptive routing controller, the stager's
	// arbiter and every busy and stall total are driven entirely by these
	// timestamps (virtual time under simenv), never by a wall clock of their
	// own, so control behavior is identical — and deterministic — on both
	// platforms.
	Now() time.Duration
	// Sleep pauses the calling thread for d.
	Sleep(d time.Duration)
}

// Env spawns threads and creates synchronization primitives.
type Env interface {
	// Go starts a runtime thread. In simulation this creates an engine
	// process; name appears in deadlock reports and traces.
	Go(name string, fn func(Ctx))
	// NewLock creates a mutual-exclusion lock.
	NewLock(name string) Lock
	// CopyDelay charges the cost of staging bytes through memory. The real
	// platform does nothing (the copy itself costs the time); the simulated
	// platform sleeps bytes/memory-bandwidth.
	CopyDelay(c Ctx, bytes int64)
}

// Lock is a mutual-exclusion lock that can mint condition variables.
type Lock interface {
	Lock(Ctx)
	Unlock(Ctx)
	NewCond(name string) Cond
}

// Cond is a condition variable bound to the Lock that created it. As with
// sync.Cond, Wait releases the lock, suspends, and re-acquires; callers must
// re-check predicates in a loop.
type Cond interface {
	Wait(Ctx)
	// WaitFor is Wait bounded by d: it returns after a Signal or Broadcast,
	// or once d has elapsed, whichever comes first. Unsignalled it costs what
	// Sleep(d) costs — on the simulator exactly the one event Sleep(d) would
	// schedule — and nothing it arms outlives it.
	WaitFor(c Ctx, d time.Duration)
	Signal()
	Broadcast()
}

// DiskRef announces one block the writer thread spilled to the parallel
// file system: its identity plus the size the reader must fetch.
type DiskRef struct {
	ID    block.ID
	Bytes int64
}

// Message is the "mixed message" of the paper's producer runtime (§4.2),
// extended with batching: zero or more data blocks drained from the producer
// buffer in one send, plus the list of block IDs the work-stealing writer
// spilled to the parallel file system since the last send, or an end-of-
// stream marker. Batching amortizes the per-message overhead of the
// fine-grain protocol (header, window credit, send call) without giving up
// fine-grain pipelining: a block still leaves as soon as the sender thread
// gets to it, it just shares the wire trip with whatever else is queued.
type Message struct {
	From int // producer rank
	// Blocks, the slice as well as the blocks, is the transport's once Send
	// is called (see Transport).
	Blocks []*block.Block
	Disk   []DiskRef
	Fin    bool // the producer has sent everything
	// FinBlocks and FinDisk, valid on a Fin, declare the producer's lifetime
	// totals: blocks that left via a network path (direct or staging relay)
	// and disk-ref announcements for blocks spilled through the file system.
	// They make stream termination counted rather than ordered: the consumer
	// waits until the declared deliveries have all arrived, so relayed blocks
	// still queued at a stager can trail the Fin, which always travels the
	// direct path, without being lost.
	FinBlocks int64
	FinDisk   int64
	// Lost counts relayed blocks a stager had to drop after an unrecoverable
	// spill-store failure (the failure itself is reported by Stager.Err and
	// the run must be treated as lost). The consumer counts Lost against the
	// Fins' declared totals so even a lossy stream still terminates instead
	// of waiting forever for blocks that can never arrive.
	Lost int64
	// Retire tells a stager endpoint to stop admitting, flush its queue and
	// spill partition to the consumers, and exit. Its pool sends it only
	// after the membership change has quiesced, so it is the last message
	// the endpoint ever receives.
	Retire bool
	// Dest is the final consumer endpoint of a message routed through an
	// in-transit staging relay: the producer addresses the send to the
	// stager's endpoint and sets Dest to the consumer the stager must
	// forward to. Endpoints that consume messages directly ignore it.
	Dest int
}

// PayloadBytes sums the data-block payload sizes carried by the message.
func (m Message) PayloadBytes() int64 {
	var n int64
	for _, b := range m.Blocks {
		n += b.Bytes
	}
	return n
}

// WireBytes sums the payload bytes the message actually puts on the wire:
// encoded sizes for blocks carrying a reduction encoding, raw sizes for the
// rest. The simulated fabric charges this, so a reduced relay is cheaper in
// virtual time exactly as it is in real bytes.
func (m Message) WireBytes() int64 {
	var n int64
	for _, b := range m.Blocks {
		n += b.WireBytes()
	}
	return n
}

// Transport sends mixed messages to consumer endpoints over the low-latency
// network path. Send blocks while the destination's receive window is full —
// the backpressure that ultimately stalls producers and triggers stealing —
// and Credits reports that window, so the producer's routing policy and the
// stager's arbiter can tell, without sending, whether a send would block.
// With a staging tier the same address space carries stager endpoints after
// the consumer endpoints (addresses Q..Q+S-1).
//
// One ownership rule holds on every transport: Send takes the message over.
// The block list, the block headers and their payloads are no longer the
// sender's once Send is called — it must not read, release or reuse any of
// them afterwards. The in-process channel network hands them to the
// receiver, which recycles them (block.Recycler, Block.Release); TCP
// puts the bytes on the wire before Send returns and recycles them itself:
// the payloads to the pool, the headers, retired, to the job's free list
// with the list. Either way a block's generation advances before its header
// is reused, so a stale handle cannot release the next block's payload.
type Transport interface {
	Send(c Ctx, to int, m Message)
	// Credits reports how many messages endpoint `to` can accept right now:
	// the free part of its receive window (over TCP, of the connection's
	// acknowledged send window).
	Credits(to int) int
}

// Inbox is a consumer's receive endpoint.
type Inbox interface {
	// Recv blocks for the next message; ok=false means the inbox was closed.
	Recv(c Ctx) (Message, bool)
}

// BlockStore is the parallel-file-system path for spilling, preserving, and
// re-reading blocks. Its partition also hosts segment logs (log.go).
type BlockStore interface {
	// WriteBlock persists a block.
	WriteBlock(c Ctx, b *block.Block) error
	// ReadBlock loads a previously written block. bytes is the expected
	// payload size (needed by the simulated store, which keeps no data).
	ReadBlock(c Ctx, id block.ID, bytes int64) (*block.Block, error)
	// RemoveBlock deletes a spilled block (No-Preserve mode reclamation).
	RemoveBlock(c Ctx, id block.ID) error
	// OpenLog starts a new, empty log. Every log opened on a partition — by
	// this store or by another store over the same partition — uses segment
	// names of its own, so a respawned stager never touches the segments a
	// dead predecessor's replay still owns.
	OpenLog() BlockLog
}
