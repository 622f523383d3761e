// Package core implements the Zipper runtime system (paper §4): a fully
// asynchronous, fine-grain, pipelining layer that sits below a simulation
// (producer) application and an analysis (consumer) application and above
// the network and parallel file system.
//
// Producer runtime module (§4.2, Figure 8): a bounded producer buffer, a
// sender thread that drains blocks to the consumer over the low-latency
// network as "mixed messages" (data block + IDs of blocks spilled to disk),
// and a writer thread running the adaptive work-stealing algorithm
// (Algorithm 1): when the buffer rises above a high-water threshold, the
// writer steals the oldest block and routes it through the parallel file
// system — the concurrent dual-channel transfer optimization (§4.3). With a
// staging tier and a router that arbitrates disk (flow.DiskArbiter), the
// writer additionally needs the router's election for each steal.
//
// Consumer runtime module (§4.2, Figure 9): a receiver thread that splits
// mixed messages into data blocks and on-disk IDs, a reader thread that
// fetches spilled blocks from the file system, an output thread (Preserve
// mode only) that persists blocks that are not yet on disk, and a bounded
// consumer buffer from which the analysis application reads blocks as they
// become available. A block is freed only once it has been analyzed and —
// in Preserve mode — stored.
//
// The message path costs one synchronisation per batch at every hop. Write
// fills the producer buffer, a ring, without the producer lock (it takes it to
// wait for room, and to wake a runtime thread it finds parked); the sender
// visits the lock once per message; the receiver inserts a message's blocks
// under one hold of the consumer lock and wakes Read once; Read claims several
// blocks per visit and hands them out without the lock, publishing how many it
// has returned so that any thread that needs the buffer's exact state can
// settle it. Block headers and message slices go round a job-local free list
// (block.Recycler). All of it leans on Write/Close belonging to one goroutine
// and Read/ReleaseBlock to one.
//
// The runtime is written against the rt platform interfaces and runs
// unchanged on the real machine (realenv) and inside the discrete-event
// simulator (simenv) — the same Write and Read, with every wake-up at the
// instant a lock per block would have produced it.
package core

import (
	"fmt"
	"time"

	"zipper/internal/block"
	"zipper/internal/flow"
	"zipper/internal/place"
	"zipper/internal/reduce"
	"zipper/internal/trace"
)

// Mode selects whether computed results are kept on the file system.
type Mode int

const (
	// NoPreserve discards results after analysis (fast experiments).
	NoPreserve Mode = iota
	// Preserve keeps every block on the parallel file system for future
	// analysis, validation, and verification.
	Preserve
)

// String names the mode as the paper does.
func (m Mode) String() string {
	if m == Preserve {
		return "Preserve"
	}
	return "No Preserve"
}

// RoutePolicy selects how a producer's sender thread picks a channel for
// each drained batch when it has a staging tier (Config.Directory).
type RoutePolicy int

const (
	// RouteDirect ignores the staging tier: blocks travel the in-memory
	// message path, relieved by the work-stealing file-system path. This is
	// the paper's original two-channel protocol and the zero value.
	RouteDirect RoutePolicy = iota
	// RouteStaging relays every batch through the resolved stager — the
	// pure in-transit configuration of the DataSpaces-style baselines. A
	// batch whose Directory claim fails, because the pool is empty, goes
	// direct: under an elastic pool of one with fault detection, a crash of
	// the last stager does that until the respawn.
	RouteStaging
	// RouteHybrid chooses per batch from live backpressure: direct while
	// the consumer's receive window has credit, staging relay while the
	// stager has buffer room, and otherwise the blocking direct path (where
	// the work-stealing writer drains the overflow to the file system).
	RouteHybrid
	// RouteAdaptive closes the loop that RouteHybrid only reacts to: a
	// flow.Adaptive controller tracks per-channel delivery-cost and
	// producer-stall EWMAs and continuously rebalances the direct/staging
	// split so the producer never stalls while the consumer and stagers
	// run at their service rates — and elects the third channel too: the
	// writer thread steals only while disk costs within an order of
	// magnitude of the network (flow.Adaptive.ElectDisk). Tune it with
	// Config.Adaptive.
	RouteAdaptive
)

// String names the policy for reports and sweeps. Out-of-range values render
// as "unknown(N)" so a misconfigured policy is visible instead of silently
// reading as in-situ.
func (r RoutePolicy) String() string {
	switch r {
	case RouteDirect:
		return "in-situ"
	case RouteStaging:
		return "in-transit"
	case RouteHybrid:
		return "hybrid"
	case RouteAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("unknown(%d)", int(r))
	}
}

// Config tunes one side (producer or consumer) of the runtime.
type Config struct {
	// BufferBlocks is the producer buffer capacity in blocks (the paper's
	// num_slots circular FIFO). Zero selects DefaultBufferBlocks.
	BufferBlocks int
	// HighWater is the stealing threshold in blocks: the writer thread
	// steals only while more than this many blocks are queued — always,
	// unless the producer has a staging tier and its router is a
	// flow.DiskArbiter (RouteAdaptive), which then also has to elect the
	// file system. Zero selects 3/4 of BufferBlocks. It must be
	// < BufferBlocks to be reachable.
	HighWater int
	// ConsumerBufferBlocks is the consumer buffer capacity. Zero selects 16,
	// the simulator harness's default; the public API (zipper.Config)
	// derives its own, one receive window of blocks, before it gets here.
	ConsumerBufferBlocks int
	// MaxBatchBlocks caps how many buffered blocks the sender thread drains
	// into one mixed message. Zero or one selects the paper's original
	// one-block-per-message protocol; larger values amortize the per-message
	// overhead (header, window credit, send call) when the buffer runs deep.
	MaxBatchBlocks int
	// Mode selects Preserve or NoPreserve.
	Mode Mode
	// RoutePolicy picks the channel for each drained batch when the
	// producer has a staging tier (Directory).
	RoutePolicy RoutePolicy
	// Adaptive tunes the RouteAdaptive controller; the zero value selects
	// the flow package's defaults, which is what every job runs. The
	// simulated-platform tests set it to clock the controller faster.
	Adaptive flow.Tuning
	// NewRouter, when non-nil, overrides the policy-based router: each
	// producer gets its own instance from this factory, making any routing
	// strategy a plug-in rather than another branch in the sender thread.
	// It is consulted only with a Directory. Whatever it relays, the Fin
	// goes direct and declares the totals, so a custom policy cannot strand
	// relayed blocks behind it. A router that is only a flow.Router leaves
	// stealing to Algorithm 1; one that is also a flow.DiskArbiter decides
	// it.
	NewRouter func() flow.Router
	// StagerLevel exposes the live occupancy gauge of the stager at a
	// transport address; nil means occupancy is unknown and the routing
	// policies read window credit alone.
	StagerLevel func(addr int) *flow.Level
	// Directory, when non-nil, is the staging tier: an epoch-versioned pool
	// the sender thread resolves its stager from for every drained batch,
	// under the pool's place.Policy (RankAffine picks member rank mod size,
	// a fixed tier's assignment). So the tier can grow and drain endpoints
	// mid-run, and any policy can redirect batches, without touching the
	// producer. nil leaves the producer on the direct and file-system
	// paths. The Fin never rides the relay: it travels the direct path, and
	// counted termination (Message.FinBlocks/FinDisk) covers relayed blocks
	// still in flight; every stager ends on the Retire its pool sends.
	//
	// This per-batch resolution is also what makes fault-plane evictions
	// transparent to the producer: an eviction epoch (place.Directory.Sweep)
	// removes the dead member before the next Claim, so the very next batch
	// re-resolves to a surviving stager, and because the Fin declares totals
	// rather than naming a relay, nothing needs rebroadcasting when the
	// recovery reader later replays the dead stager's journal — the declared
	// counts balance once the replayed blocks land.
	Directory StagerDirectory
	// ConsumerDirectory, when non-nil, replaces the fixed producer→consumer
	// wiring (the `to` argument of NewProducer) with placement-plane
	// resolution: the sender thread resolves the destination consumer from
	// the directory for every drained batch, so a load-aware policy can
	// rebalance divergent producer rates across the analysis endpoints
	// mid-run. Termination turns counted on every path: instead of one Fin
	// to a fixed consumer, the producer sends a direct Fin to EVERY member,
	// each declaring that consumer's delivered totals, and each consumer
	// holds its stream open until its declared deliveries arrive — so a
	// batch relayed to one consumer just before the policy moved the
	// producer to another is never lost. Every consumer endpoint must then
	// be built expecting a Fin from every producer. The directory's
	// membership must be static for the run.
	ConsumerDirectory *place.Directory
	// Reduce selects the in-transit payload reduction applied to relayed
	// batches. With OnPressure unset, each producer's sender thread encodes
	// the blocks of every batch it routes through a stager (the decode
	// happens once, at the consumer's receiver); with OnPressure set the
	// producer sends raw and the stager encodes only while its occupancy is
	// above the spill high-water mark — the "compress instead of spill"
	// rung. The zero value disables reduction entirely.
	Reduce reduce.Config
	// ReducePipeline, when non-nil, fans the sender thread's relay-path
	// encode out across the pipeline's shared worker pool instead of
	// encoding inline (Reduce.Workers != 0 selects it; zipper builds one
	// pipeline per job and hands it to every producer and stager). The
	// pipeline encodes in place and joins before the send, so batch order
	// and wire bytes are identical to inline.
	ReducePipeline *reduce.Pipeline
	// Recycler is the job's free list of block headers and message slices
	// (required), one per job and shared by every endpoint that makes or
	// ends a block's trip: the consumers hand in what their applications
	// release and what their receivers have emptied, the producers build the
	// next blocks and messages from it, a stager (staging.Config.Recycler)
	// hands in the lists of the messages it admits and builds the ones it
	// forwards from it, and on a TCP job the connection readers build what
	// they receive from it while the senders hand back what they have put on
	// the wire. Every path, direct or relayed, then allocates nothing per
	// block once it is warm.
	Recycler *block.Recycler
	// DisableSteal turns the writer thread off, yielding the
	// message-passing-only baseline of §6.2, whatever the router would elect.
	DisableSteal bool
	// Recorder, when non-nil, receives thread activity spans for trace
	// analysis (Figures 4–6, 17, 19 style views).
	Recorder *trace.Recorder
}

// DefaultBufferBlocks is the producer buffer capacity a zero
// Config.BufferBlocks selects.
const DefaultBufferBlocks = 8

func (c Config) withDefaults() Config {
	if c.BufferBlocks <= 0 {
		c.BufferBlocks = DefaultBufferBlocks
	}
	if c.HighWater <= 0 {
		c.HighWater = c.BufferBlocks * 3 / 4
	}
	if c.HighWater >= c.BufferBlocks {
		c.HighWater = c.BufferBlocks - 1
	}
	if c.HighWater < 1 {
		c.HighWater = 1
	}
	if c.ConsumerBufferBlocks <= 0 {
		c.ConsumerBufferBlocks = 16
	}
	if c.MaxBatchBlocks <= 0 {
		c.MaxBatchBlocks = 1
	}
	return c
}

// router builds the flow-control router a producer's sender thread consults
// for each drained batch.
func (c Config) router() flow.Router {
	if c.NewRouter != nil {
		return c.NewRouter()
	}
	switch c.RoutePolicy {
	case RouteStaging:
		return flow.Static(flow.Relay)
	case RouteHybrid:
		return flow.Reactive()
	case RouteAdaptive:
		return flow.NewAdaptive(c.Adaptive)
	default:
		return flow.Static(flow.Direct)
	}
}

// StagerDirectory is the epoch-versioned stager pool a producer consults
// when Config.Directory is set. It is the placement plane's resolution
// surface (place.Directory is the implementation; the interface form exists
// so tests can substitute their own). ok=false from Peek/Claim means the
// pool is empty (route direct).
type StagerDirectory = place.Endpoints

// ProducerStats is a snapshot of one producer runtime module's counters.
// Taken mid-run, each total is one the run has reached; after Wait they are
// final.
type ProducerStats struct {
	BlocksWritten int64         // blocks the application handed to Write
	BlocksSent    int64         // blocks that left directly via the network path
	BlocksRelayed int64         // blocks that left via the in-transit staging relay
	BlocksStolen  int64         // blocks the writer thread routed via the file system
	Messages      int64         // mixed messages sent (including the Fin)
	BytesOnWire   int64         // payload bytes put on the network paths (encoded size when reduced)
	BytesReduced  int64         // payload bytes reduction kept off the wire (raw − encoded)
	WriteStall    time.Duration // time Write blocked on a full buffer
	SendBusy      time.Duration // sender thread time spent in Send
	StealBusy     time.Duration // writer thread time spent spilling
	WriteParks    int64         // times Write parked on a full buffer
	SenderParks   int64         // times the sender thread parked on an empty buffer
	LaneParks     int64         // sends that found the transport's window to their destination shut
	Finished      time.Duration // when both threads had exited
}

// ConsumerStats is a snapshot of one consumer runtime module's counters.
type ConsumerStats struct {
	BlocksReceived int64         // blocks that arrived via the network path
	BlocksRead     int64         // blocks fetched from the file system path
	BlocksAnalyzed int64         // blocks handed to the analysis application
	BlocksStored   int64         // blocks persisted by the output thread
	BlocksLost     int64         // blocks an upstream relay declared unrecoverable
	StoreBusy      time.Duration // output thread time in WriteBlock
	ReadParks      int64         // times Read parked on an empty buffer
	ReceiverParks  int64         // times the receiver thread parked on a full buffer
	Finished       time.Duration // when all threads had exited
	Queued         int           // blocks currently resident in the consumer buffer
	Capacity       int           // the consumer buffer's capacity in blocks
}
