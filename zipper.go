// Package zipper is the public API of the Zipper runtime system — a fully
// asynchronous, fine-grain, pipelining layer that couples a data-producing
// simulation with a data-consuming analysis inside one process, as published
// in "Performance Analysis and Optimization of In-situ Integration of
// Simulation with Data Analysis: Zipping Applications Up" (HPDC'18).
//
// A Job owns P producer endpoints, Q consumer endpoints, and optionally S
// in-transit stager endpoints. Producer code calls Write for every
// fine-grain block it computes and Close when done; consumer code calls
// Read until ok is false. Under the hood each producer runs a sender thread
// (low-latency in-memory channel path) and a work-stealing writer thread
// (file-system path, Algorithm 1 of the paper), each stager runs
// receiver/forwarder/spiller threads (the in-transit third channel), and
// each consumer runs receiver/reader — and, in Preserve mode, output —
// threads. Data flows as soon as it exists; there are no barriers or
// interlocks between time steps.
//
//	job, err := zipper.NewJob(zipper.Config{Producers: 1, Consumers: 1, SpoolDir: dir})
//	if err != nil {
//	    log.Fatal(err)
//	}
//	go func() {
//	    p := job.Producer(0)
//	    for step := 0; step < steps; step++ {
//	        data := zipper.NewPayload(blockBytes) // pooled; fill it completely
//	        fill(data, step)
//	        p.Write(step, 0, data)
//	    }
//	    p.Close()
//	}()
//	for {
//	    blk, ok := job.Consumer(0).Read()
//	    if !ok {
//	        break
//	    }
//	    analyze(blk.Data)
//	    blk.Release() // recycle the payload once the data is dead
//	}
//	job.Wait()
//
// The sender thread drains whole batches of buffered blocks into single
// "mixed messages" when Config.MaxBatchBlocks allows it, amortizing the
// per-message overhead of the fine-grain protocol, and the two edges the
// application touches cost as little: a Producer's methods belong to one
// goroutine and so do a Consumer's (Block.Release included), which lets
// Write put a block into the producer buffer without a lock — it takes one
// only to wait for room or to wake a parked runtime thread — and lets Read
// claim up to half the consumer buffer per visit to its lock and hand the
// rest out without it. NewPayload and Block.Release close the allocation
// loop: steady-state transfer reuses payload buffers, block headers and
// message slices instead of allocating fresh ones. Every endpoint counts with
// atomic counters, so a running job's Stats reads them without taking any
// endpoint's lock: polling it costs the application nothing. A producer's
// Writes reach its counter a batch at a time, so a live BlocksWritten trails
// the application by less than MaxBatchBlocks and is exact after Close; a
// consumer's BlocksAnalyzed is exact to the last block Read returned.
//
// With Config.Staging.Stagers ≥ 1 and a non-direct RoutePolicy, the job adds
// the in-transit staging tier: the sender picks a channel per batch (direct,
// staging relay, or — implicitly, through backpressure — the work-stealing
// file-system path), and stagers absorb bursts in memory, re-batch, spill
// overflow to their own SpoolDir partitions, and forward to the consumers.
//
// With Config.Staging.Elastic.Enabled the staging tier becomes an
// autoscaled resource: Stagers turns into a reserved endpoint ceiling, producers
// resolve their stager per batch from an epoch-versioned pool, and a scaler
// grows and drains endpoints at runtime on the pool-wide occupancy and spill
// signals. Job.Stats reports the scaling timeline and the stager
// node-seconds the pool actually billed.
//
// Config.Staging.Placement selects the placement plane's policy — how
// producers resolve their consumer and stager endpoints: RankAffine (the fixed
// assignments of earlier revisions, the default) or LeastOccupancy (every
// batch to the emptiest endpoint, shrinking relay imbalance when producer
// rates diverge). Job.Stats reports the per-stager RelayImbalance the
// load-aware policy exists to shrink.
//
// Config.Fault turns the staging tier into a survivable data plane: every
// stager holds a lease in the placement directory renewed by heartbeats,
// journals its admitted traffic (by reference while it is in memory, in its
// spool partition once it overflows), and a failure detector evicts members
// whose lease lapses — producers re-resolve to the survivors on their very
// next batch, the dead endpoint's journal is replayed straight to the
// consumers so the counted per-destination Fin totals balance, and a
// replacement is respawned into the freed slot — up to three times per
// slot; a fourth eviction leaves the slot empty. An injected crash
// (Job.InjectStagerCrash) therefore completes the run with zero blocks lost;
// JobStats reports the eviction/recovery timeline.
package zipper

import (
	"cmp"
	"context"
	"fmt"
	"sync"

	"zipper/internal/assembly"
	"zipper/internal/block"
	"zipper/internal/control"
	"zipper/internal/core"
	"zipper/internal/elastic"
	"zipper/internal/fault"
	"zipper/internal/place"
	"zipper/internal/reduce"
	"zipper/internal/rt"
	"zipper/internal/rt/realenv"
	"zipper/internal/staging"
)

// RoutePolicy selects the producer's per-batch channel choice when staging
// is enabled. See the core package for the policy semantics.
type RoutePolicy = core.RoutePolicy

const (
	// RouteDirect is the paper's two-channel protocol: the in-memory
	// message path relieved by the work-stealing file-system path.
	RouteDirect = core.RouteDirect
	// RouteStaging relays everything through the in-transit staging tier
	// while it has a member: a batch that finds the pool empty goes direct.
	// Under Elastic with MinStagers 1 and Fault, a crash of the last stager
	// does that until the respawn.
	RouteStaging = core.RouteStaging
	// RouteHybrid picks per batch from live backpressure: direct while the
	// consumer window has credit, staging while the stager has room,
	// otherwise the blocking direct path (which the work-stealing writer
	// relieves through the file system).
	RouteHybrid = core.RouteHybrid
	// RouteAdaptive runs the closed-loop flow controller: per-channel
	// delivery-cost and producer-stall averages continuously rebalance the
	// direct/staging split so the producer never stalls while the consumer
	// and stagers run at their service rates. It is also the one policy
	// that arbitrates the file-system channel: above HighWater the
	// work-stealing writer steals only while a steal's measured cost per
	// byte is within an order of magnitude of the cheaper network
	// channel's (under every other policy, above HighWater means steal).
	// The controller has no knobs: its stall average spans 20 ms, the
	// staging share relaxes over 200 ms, and a saturated producer probes
	// the minority channel every 16th decision.
	RouteAdaptive = core.RouteAdaptive
)

// Placement selects the policy of the placement plane: how producers are
// assigned to consumer endpoints and (when a staging tier exists) to stager
// endpoints. See the place package for the policy semantics; the zero value
// is RankAffine, the fixed assignment of earlier revisions.
type Placement = place.Kind

const (
	// RankAffine is the classic fixed split — producer p feeds consumer
	// p·Consumers/Producers and relays through stager p mod Stagers — and
	// the default. It is byte-identical to the assignments earlier
	// revisions hard-coded.
	RankAffine = place.KindRankAffine
	// LeastOccupancy resolves every drained batch to the endpoint with the
	// lowest buffer occupancy, read from the flow.Level gauges each
	// consumer and stager publishes — the load-aware rule that keeps
	// divergent producer rates from piling work onto a few relays.
	LeastOccupancy = place.KindLeastOccupancy
)

// ElasticConfig tunes the elastic staging tier — the autoscaler that grows
// and drains stager endpoints at runtime (see the elastic package). The zero
// value of every field but Enabled selects a sensible default. The
// hysteresis band is fixed: grow at 75 % pool-wide occupancy (or on any
// spill since the last tick), drain at 20 %.
type ElasticConfig = elastic.Config

// ScaleEvent is one autoscaler action on the stager pool, reported in
// JobStats.ScaleEvents as a scaling timeline.
type ScaleEvent = elastic.Event

// StagingConfig groups the in-transit staging tier's configuration — the
// endpoint count, buffering, routing, placement, and autoscaling knobs the
// tier reads as one unit.
type StagingConfig struct {
	// Stagers is the number of in-transit staging endpoints — the third
	// channel between the in-memory message path and the file-system path.
	// Zero (the default) runs the paper's original two-channel protocol.
	// With a fixed pool (Elastic off) every endpoint runs for the whole
	// job; which stager a producer relays through is the Placement policy's
	// decision (under the default RankAffine placement producer p is
	// permanently assigned stager p mod Stagers). With Elastic on, Stagers
	// is instead the reserved endpoint ceiling: the live pool is an
	// epoch-versioned membership that starts at Elastic.MinStagers, grows
	// and drains within [MinStagers, MaxStagers] ≤ Stagers, and producers
	// re-resolve their stager from the current membership for every drained
	// batch through the Placement policy.
	Stagers int
	// BufferBlocks is each stager's in-memory buffer capacity in blocks
	// (default 64): what it may hold while it absorbs a burst its consumer
	// cannot take, overflowing its newest buffered blocks to its own SpoolDir
	// partition past ¾ of it. While the consumer keeps up the stager is
	// pass-through — it admits only a few batches and spills nothing.
	BufferBlocks int
	// RoutePolicy picks the channel for each drained batch when Stagers ≥ 1:
	// RouteDirect (never relay), RouteStaging (always relay), RouteHybrid
	// (react per batch to live backpressure), or RouteAdaptive (the
	// closed-loop controller).
	RoutePolicy RoutePolicy
	// Placement selects how producers resolve their consumer and stager
	// endpoints: RankAffine (the default — the fixed assignments of earlier
	// revisions, byte-identical) or LeastOccupancy (every batch to the
	// emptiest endpoint, read from the live occupancy gauges). The staging
	// tier is always an epoch-versioned place.Directory pool under this
	// policy, and stream termination is counted (per-destination Fin
	// totals) rather than ordered, so mid-run reassignment never strands
	// blocks. With LeastOccupancy consumers are resolved per batch too.
	Placement Placement
	// Elastic enables and tunes the staging-tier autoscaler. It needs
	// Stagers ≥ 1 (the reserved endpoint ceiling) and a RoutePolicy that
	// can reach the tier. Off (the default), the staging tier is the fixed
	// pool of earlier revisions, unchanged.
	Elastic ElasticConfig
	// Reduce selects in-transit payload reduction for relayed blocks. It
	// needs Stagers ≥ 1 and a RoutePolicy that can reach the tier (the
	// operators apply at relay time; the direct and file-system paths
	// always carry raw payloads). Off (the default), every byte travels
	// unreduced — byte-identical to earlier revisions.
	Reduce ReduceConfig
	// RingDepth is ignored: the buffered-channel network is the only
	// in-process transport, and Window alone bounds what is in flight. The
	// field stays only until the benchmark stops setting it.
	RingDepth int
}

// ReduceConfig selects and tunes in-transit payload reduction — the
// bandwidth-limiting operator applied to relayed blocks on their way through
// the staging tier (see the reduce package). The zero value disables
// reduction. With OnPressure unset each producer's sender thread encodes
// every batch it relays; with OnPressure set the producer sends raw and the
// stager encodes only while its buffer occupancy is above the spill
// high-water mark — the "compress instead of spill" rung, which also pushes
// the actual PFS spill threshold higher so bursts burn CPU before they burn
// file-system bandwidth. On the simulated platform, where blocks carry no
// payload, an encoded block is modelled at 0.35 of its raw size.
type ReduceConfig = reduce.Config

// ReduceOperator names one in-transit payload reduction operator.
type ReduceOperator = reduce.Kind

const (
	// ReduceNone disables payload reduction (the default).
	ReduceNone = reduce.None
	// ReduceCompress LZ-compresses each relayed block, skipping blocks
	// that don't shrink. Lossless; every block codes on its own, so it
	// composes with every tier shape: elastic, fault-protected, any
	// Placement, parallel encode.
	ReduceCompress = reduce.Compress
)

// FaultConfig enables and tunes the survivable data plane — leases,
// heartbeats, journaling, and journal replay over the staging
// tier (see the fault package). The tier runs behind an epoch-versioned
// directory, so an eviction is just another membership epoch to the
// producers.
// The zero value of every field but Enabled selects a sensible default. Each
// slot is respawned at most three times; its fourth eviction is replayed and
// the slot stays empty.
type FaultConfig = fault.Config

// FailoverEvent is one entry on the fault plane's eviction/recovery
// timeline, reported in JobStats.FailoverEvents.
type FailoverEvent = fault.Event

// ConfigError is the typed validation failure NewJob returns: which Config
// field was rejected, and why. Callers can branch on Field
// programmatically; Error keeps the descriptive prose. Grouped fields are
// named by their path ("Staging.Stagers", "Fault").
type ConfigError struct {
	Field  string // the Config field that failed validation
	Reason string // what was wrong with it
}

// Error implements error.
func (e *ConfigError) Error() string {
	return "zipper: invalid " + e.Field + ": " + e.Reason
}

// BlockID identifies a block: producing rank, time step, and sequence number.
type BlockID struct {
	Rank int
	Step int
	Seq  int
}

// Block is one unit of data delivered to a consumer. Blocks may arrive out
// of (step, rank) order; the ID and Offset place them in the global domain.
type Block struct {
	ID     BlockID
	Offset int64
	Data   []byte
	// ViaDisk reports whether the block traveled the file-system path
	// (it was stolen by the writer thread).
	ViaDisk bool

	inner *block.Block
	gen   uint32 // inner's generation when Read returned it
	owner *Consumer
}

// Release recycles the block: its header into the job's free list, from which
// a later Write builds another block, and its payload into the runtime's
// payload pool — a payload of at most 4 KiB by way of the header, released
// by whichever producer (or TCP connection reader) takes the header next.
// Call it once the analysis is completely done with Data: from Release on
// the payload is the runtime's and may back another producer's NewPayload at
// any moment, so retaining a reference to Data corrupts the stream. In
// Preserve mode the recycle is deferred until the output thread has stored
// the block, so Release is always safe to call right after analyzing.
// Releasing twice is a no-op, also through a copy of the Block taken before
// the first Release: the handle remembers which generation of the header it
// was issued for, and a stale one reaches neither the header's next payload
// nor the one it carries home. Call it from the goroutine that calls the
// consumer's Read — that is what keeps it free of locks.
func (b *Block) Release() {
	if b.inner == nil {
		return
	}
	b.Data = nil
	b.owner.c.ReleaseBlock(b.owner.ctx, b.inner, b.gen)
}

// NewPayload returns a payload slice of length n, reusing a buffer released
// by a consumer when one is available; a buffer of at most 4 KiB is most
// often one that this goroutine's own Write released, as it took the
// recycled header the buffer rode home on. The contents are unspecified —
// fill all n bytes before handing the slice to Producer.Write. Payloads that
// never pass through the pool are also accepted by Write; the pool is an
// optimization, not an obligation.
func NewPayload(n int) []byte { return block.GetPayload(n) }

// Config configures a Job.
type Config struct {
	// Producers and Consumers are the endpoint counts (both ≥ 1). Which
	// consumer a producer's output lands on is the Placement policy's
	// decision: under the default RankAffine placement producer i
	// permanently feeds consumer i·Consumers/Producers, while the
	// load-aware policies re-resolve the destination per drained batch.
	Producers, Consumers int
	// SpoolDir is the directory standing in for the parallel file system
	// (spills and preserved blocks). Required.
	SpoolDir string
	// BufferBlocks is each producer's buffer capacity (default 8).
	BufferBlocks int
	// HighWater is the work-stealing threshold (default ¾ of BufferBlocks):
	// the writer thread never steals at or below it. Above it a steal is
	// Algorithm 1's unconditional answer, except under RouteAdaptive with a
	// staging tier, where the router also has to elect the file system.
	HighWater int
	// ConsumerBufferBlocks is each consumer's buffer capacity in blocks. The
	// default (0) is one full receive window, max(16, Window ×
	// MaxBatchBlocks): the receiver and Read then each park once per window
	// of blocks. A buffer of half a window parks both twice as often, and
	// the analysis runs dry after every half (on a 4 KiB in-process flood,
	// Window 4 × MaxBatchBlocks 8: twice the parks and a 10–13 % higher
	// median write→analyzed latency). The window costs W×B blocks of memory
	// per consumer; set it lower to cap memory.
	ConsumerBufferBlocks int
	// MaxBatchBlocks caps how many buffered blocks one mixed message may
	// carry. The default (0 or 1) is the paper's one-block-per-message
	// protocol; raising it lets the sender thread drain whole batches per
	// send, cutting message count and per-message overhead when the producer
	// runs ahead of the network.
	MaxBatchBlocks int
	// Window is the receive window in messages (default 4): how many
	// undelivered messages a sender may have queued at an endpoint before
	// Send blocks — the backpressure every routing, stealing and scaling
	// decision reads — and it means the same on both wires. In process it
	// is each endpoint's inbox capacity; on a TCP job (TCPAddr) it is also
	// how many messages a producer's connection carries that the listener
	// has not yet acknowledged as deposited in their inbox. One rule,
	// because a transport that ignored it piled up out of sight: SPSC ring
	// lanes once held RingDepth × MaxBatchBlocks blocks per sender (over
	// 1 GB at RingDepth: 1024), and a connection bounded only by socket
	// buffers held over a thousand compressed blocks, so the stager
	// overflowed into spill and re-read while its consumer sat idle.
	Window int
	// TCPAddr, when non-empty, carries every producer→endpoint message over
	// real TCP sockets instead of the in-process channel network: NewJob
	// binds a frame-v6 listener to this address ("127.0.0.1:0" picks a free
	// port), hosts the consumer and stager inboxes behind it, and gives each
	// producer its own dialed connection. Stagers forward to consumers over
	// the listener's loopback. Endpoints still share the process; what
	// changes is that payloads traverse the kernel TCP stack through the
	// vectored zero-copy frame writer — the configuration bench's
	// wire-compress workload runs. Every staging option works over TCP: a
	// Retire, whether a drain, an eviction or shutdown sends it, waits until
	// the listener has deposited every frame sent before it.
	TCPAddr string
	// Staging groups the in-transit staging tier's configuration.
	Staging StagingConfig
	// Fault enables and tunes the survivable data plane: leases and
	// heartbeats on every staging endpoint, journaling of admitted
	// traffic, and eviction/replay/respawn recovery when an
	// endpoint dies. It needs Staging.Stagers ≥ 1 and a RoutePolicy that
	// can reach the tier.
	Fault FaultConfig
	// Preserve keeps every block on the file system for later validation.
	Preserve bool
	// DisableSteal turns the dual-channel optimization off
	// (message-passing-only mode): no writer thread, whatever the routing
	// policy would have elected.
	DisableSteal bool
	// Quota is the job's resource envelope when submitted to a shared
	// Fleet: guaranteed stager buffer blocks and preemption priority. NewJob
	// ignores it — a private job owns its whole staging tier.
	Quota QuotaConfig
}

// Job is a running Zipper workflow.
type Job struct {
	pf   *platform
	prod []*Producer
	cons []*Consumer
	tier *assembly.Tier   // the job's own staging tier; nil without one, and for a fleet tenant
	pipe *reduce.Pipeline // shared parallel-encode pool (Reduce.Workers != 0)

	// The work of waiting runs once, on a goroutine of its own that the
	// first Wait or WaitContext starts; finished closes when it is done.
	waitOnce sync.Once
	finished chan struct{}

	// Shared-fleet mode (Fleet.Submit): the fleet this job is a tenant of
	// and its control-plane handle. Both nil for a private NewJob.
	fleet  *Fleet
	tenant *control.Tenant
}

// validate rejects configurations that would otherwise hang, panic, or
// silently misbehave deep inside the runtime. Every rejection is a
// *ConfigError naming the offending field.
func (cfg Config) validate() error {
	if cfg.Producers < 1 {
		return &ConfigError{Field: "Producers", Reason: fmt.Sprintf("must be ≥ 1, got %d", cfg.Producers)}
	}
	if cfg.Consumers < 1 {
		return &ConfigError{Field: "Consumers", Reason: fmt.Sprintf("must be ≥ 1, got %d", cfg.Consumers)}
	}
	if cfg.Consumers > cfg.Producers {
		return &ConfigError{Field: "Consumers",
			Reason: fmt.Sprintf("more consumers (%d) than producers (%d)", cfg.Consumers, cfg.Producers)}
	}
	if cfg.SpoolDir == "" {
		return &ConfigError{Field: "SpoolDir",
			Reason: "required: the directory standing in for the parallel file system"}
	}
	if cfg.BufferBlocks < 0 {
		return &ConfigError{Field: "BufferBlocks",
			Reason: fmt.Sprintf("must be ≥ 0 (0 selects the default), got %d", cfg.BufferBlocks)}
	}
	if cfg.HighWater < 0 {
		return &ConfigError{Field: "HighWater",
			Reason: fmt.Sprintf("must be ≥ 0 (0 selects ¾ of BufferBlocks), got %d", cfg.HighWater)}
	}
	if buffer := cmp.Or(cfg.BufferBlocks, core.DefaultBufferBlocks); cfg.HighWater > buffer {
		return &ConfigError{Field: "HighWater",
			Reason: fmt.Sprintf("%d exceeds the producer buffer (%d blocks): the stealing threshold would be unreachable",
				cfg.HighWater, buffer)}
	}
	if cfg.ConsumerBufferBlocks < 0 {
		return &ConfigError{Field: "ConsumerBufferBlocks",
			Reason: fmt.Sprintf("must be ≥ 0, got %d", cfg.ConsumerBufferBlocks)}
	}
	if cfg.MaxBatchBlocks < 0 {
		return &ConfigError{Field: "MaxBatchBlocks",
			Reason: fmt.Sprintf("must be ≥ 0 (0 selects one block per message), got %d", cfg.MaxBatchBlocks)}
	}
	if cfg.Window < 0 {
		return &ConfigError{Field: "Window",
			Reason: fmt.Sprintf("must be ≥ 0 (0 selects the default), got %d", cfg.Window)}
	}
	if cfg.Staging.Stagers < 0 {
		return &ConfigError{Field: "Staging.Stagers",
			Reason: fmt.Sprintf("must be ≥ 0, got %d", cfg.Staging.Stagers)}
	}
	if cfg.Staging.BufferBlocks < 0 {
		return &ConfigError{Field: "Staging.BufferBlocks",
			Reason: fmt.Sprintf("must be ≥ 0, got %d", cfg.Staging.BufferBlocks)}
	}
	switch cfg.Staging.RoutePolicy {
	case RouteDirect, RouteStaging, RouteHybrid, RouteAdaptive:
	default:
		// RoutePolicy.String renders out-of-range values as "unknown(N)".
		return &ConfigError{Field: "Staging.RoutePolicy",
			Reason: fmt.Sprintf("%v is not a policy (valid: %v, %v, %v, %v)",
				cfg.Staging.RoutePolicy, RouteDirect, RouteStaging, RouteHybrid, RouteAdaptive)}
	}
	if cfg.Staging.RoutePolicy != RouteDirect && cfg.Staging.Stagers == 0 {
		return &ConfigError{Field: "Staging.Stagers",
			Reason: fmt.Sprintf("RoutePolicy %v needs Stagers ≥ 1", cfg.Staging.RoutePolicy)}
	}
	if !cfg.Staging.Placement.Valid() {
		// Placement.String renders out-of-range values as "unknown(N)".
		return &ConfigError{Field: "Staging.Placement",
			Reason: fmt.Sprintf("%v is not a policy (valid: %v, %v)",
				cfg.Staging.Placement, RankAffine, LeastOccupancy)}
	}
	if cfg.Staging.Elastic.Enabled && cfg.Staging.RoutePolicy == RouteDirect {
		return &ConfigError{Field: "Staging.Elastic",
			Reason: fmt.Sprintf("elastic staging needs a RoutePolicy that can reach the tier (valid: %v, %v, %v)",
				RouteStaging, RouteHybrid, RouteAdaptive)}
	}
	// The staging tier never outnumbers the producers (assembly.Spec.Slots),
	// so elastic bounds must fit the effective ceiling — otherwise an
	// explicitly requested floor would be silently shrunk instead of
	// rejected.
	ceiling := cfg.Staging.Stagers
	if cfg.Producers < ceiling {
		ceiling = cfg.Producers
	}
	if err := cfg.Staging.Elastic.Validate(ceiling); err != nil {
		return &ConfigError{Field: "Staging.Elastic", Reason: err.Error()}
	}
	if err := cfg.Staging.Reduce.Validate(); err != nil {
		return &ConfigError{Field: "Staging.Reduce", Reason: err.Error()}
	}
	if cfg.Staging.Reduce.Enabled() && (cfg.Staging.Stagers < 1 || cfg.Staging.RoutePolicy == RouteDirect) {
		return &ConfigError{Field: "Staging.Reduce",
			Reason: fmt.Sprintf("reduction applies at relay time; it needs Stagers ≥ 1 and a RoutePolicy that can reach the tier (valid: %v, %v, %v)",
				RouteStaging, RouteHybrid, RouteAdaptive)}
	}
	if cfg.Fault.Enabled {
		if cfg.Staging.Stagers < 1 {
			return &ConfigError{Field: "Fault",
				Reason: "the fault plane protects the staging tier; it needs Staging.Stagers ≥ 1"}
		}
		if cfg.Staging.RoutePolicy == RouteDirect {
			return &ConfigError{Field: "Fault",
				Reason: fmt.Sprintf("the fault plane needs a RoutePolicy that can reach the staging tier (valid: %v, %v, %v)",
					RouteStaging, RouteHybrid, RouteAdaptive)}
		}
	}
	if err := cfg.Fault.Validate(); err != nil {
		return &ConfigError{Field: "Fault", Reason: err.Error()}
	}
	return nil
}

// spec converts a validated Config to the platform-neutral topology the
// assembler builds — the same value runs on the real machine (NewJob) and,
// through internal/workflow, on the simulator.
func (cfg Config) spec() assembly.Spec {
	ccfg := core.Config{
		BufferBlocks:         cfg.BufferBlocks,
		HighWater:            cfg.HighWater,
		ConsumerBufferBlocks: cfg.ConsumerBufferBlocks,
		MaxBatchBlocks:       cfg.MaxBatchBlocks,
		DisableSteal:         cfg.DisableSteal,
		RoutePolicy:          cfg.Staging.RoutePolicy,
		Reduce:               cfg.Staging.Reduce,
	}
	if cfg.Preserve {
		ccfg.Mode = core.Preserve
	}
	window := cfg.Window
	if window <= 0 {
		window = 4
	}
	if ccfg.ConsumerBufferBlocks == 0 {
		ccfg.ConsumerBufferBlocks = max(16, window*max(1, cfg.MaxBatchBlocks))
	}
	return assembly.Spec{
		Producers:          cfg.Producers,
		Consumers:          cfg.Consumers,
		Core:               ccfg,
		Stagers:            cfg.Staging.Stagers,
		StagerBufferBlocks: cfg.Staging.BufferBlocks,
		Elastic:            cfg.Staging.Elastic,
		Placement:          cfg.Staging.Placement,
		Fault:              cfg.Fault,
		Window:             window,
	}
}

// platform is the real machine as the assembler sees it: one Env shared by
// every thread, the wire — the in-process network, or with Config.TCPAddr a
// frame-v6 listener hosting every consumer and stager inbox plus one dialed
// connection per producer — and the spool directory.
type platform struct {
	env   *realenv.Env
	net   *realenv.Network        // in-process wire; nil on a TCP job
	ln    *realenv.TCPListener    // TCP wire; nil on the in-process network
	dials []*realenv.TCPTransport // TCP wire: producer p's connection
	fs    *realenv.FileStore
}

// newPlatform opens the spool and the wire for `endpoints` transport
// addresses, each a window of `window` messages (see Config.Window). On a
// TCP job every producer's connection is dialed here, so that nothing that
// can fail is left for after the first runtime thread has started; on an
// error nothing is left open. The listener's readers and the dialed senders
// share rec, the job's free list of block headers and block lists; only a
// TCP wire uses it.
func newPlatform(spoolDir, tcpAddr string, window, endpoints, producers int, rec *block.Recycler) (*platform, error) {
	fs, err := realenv.NewFileStore(spoolDir)
	if err != nil {
		return nil, err
	}
	pf := &platform{env: realenv.New(), fs: fs}
	if tcpAddr == "" {
		pf.net = realenv.NewNetwork(endpoints, window)
		return pf, nil
	}
	if pf.ln, err = realenv.ListenTCP(tcpAddr, endpoints, window, rec); err != nil {
		return nil, err
	}
	for p := 0; p < producers; p++ {
		t, err := realenv.DialTCP(pf.ln.Addr(), window, rec)
		if err != nil {
			pf.close()
			return nil, err
		}
		pf.dials = append(pf.dials, t)
	}
	return pf, nil
}

// Env implements assembly.Platform.
func (pf *platform) Env(assembly.Role, int) rt.Env { return pf.env }

// Inbox implements assembly.Platform.
func (pf *platform) Inbox(addr int) rt.Inbox {
	if pf.ln != nil {
		return pf.ln.Inbox(addr)
	}
	return pf.net.Inbox(addr)
}

// Port implements assembly.Platform. In process every role shares the
// network. Over TCP a producer sends on its dialed connection, the stagers
// forward, and the tier's control messages travel, over the listener's
// loopback, and the control port fences a Retire.
func (pf *platform) Port(role assembly.Role, i int) rt.Transport {
	switch {
	case pf.ln == nil:
		return pf.net
	case role == assembly.Producer:
		return pf.dials[i]
	case role == assembly.Control:
		return retireFence{pf.ln.Loopback(), pf.dials}
	}
	return pf.ln.Loopback()
}

// retireFence is a TCP job's control port. A TCP Send returns once its frame
// is written, so a quiesced claim's frame may still be on the wire when a
// Retire goes out. A Retire therefore waits for every producer connection's
// Fence, and reaches its stager after every frame sent before it, as on the
// in-process wire, whose Send deposits.
type retireFence struct {
	rt.Transport
	dials []*realenv.TCPTransport
}

func (f retireFence) Send(c rt.Ctx, to int, m rt.Message) {
	if m.Retire {
		for _, t := range f.dials {
			t.Fence()
		}
	}
	f.Transport.Send(c, to, m)
}

// Partition implements assembly.Platform.
func (pf *platform) Partition(name string) (rt.BlockStore, error) {
	if name == "" {
		return pf.fs, nil
	}
	part, err := pf.fs.Partition(name)
	if err != nil {
		return nil, err
	}
	return part, nil
}

// close tears down the real-TCP wire, if there is one: every producer's
// dialed connection, then the listener. A no-op on the in-process network.
func (pf *platform) close() {
	for _, t := range pf.dials {
		_ = t.Close() // a broken connection has nothing left to deposit
	}
	if pf.ln != nil {
		_ = pf.ln.Close()
	}
}

// NewJob validates the configuration, opens the spool and the wire, and has
// the assembler build and start every endpoint's runtime threads.
func NewJob(cfg Config) (*Job, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	spec := cfg.spec()
	spec.Core.Recycler = block.NewRecycler(spec.Core.MaxBatchBlocks)
	pf, err := newPlatform(cfg.SpoolDir, cfg.TCPAddr, spec.Window,
		spec.Consumers+spec.Slots(), spec.Producers, spec.Core.Recycler)
	if err != nil {
		return nil, err
	}
	// One shared encode pipeline per job when parallel reduction is on:
	// every producer sender and stager forwarder fans its batch encode out
	// across the same bounded worker pool.
	var pipe *reduce.Pipeline
	if r := cfg.Staging.Reduce; r.Enabled() && r.Workers != 0 {
		pipe = reduce.NewPipeline(r, r.Workers)
		spec.Core.ReducePipeline = pipe
	}
	asm, err := assembly.Assemble(pf.env.Ctx(), pf, spec)
	if err != nil {
		if pipe != nil {
			pipe.Close()
		}
		pf.close()
		return nil, err
	}
	j := newJob(pf, &asm.Endpoints)
	j.tier, j.pipe = asm.Tier, pipe
	return j, nil
}

// newJob wraps assembled endpoints in the application-facing handles.
func newJob(pf *platform, ep *assembly.Endpoints) *Job {
	j := &Job{pf: pf, finished: make(chan struct{})}
	for _, c := range ep.Consumers {
		j.cons = append(j.cons, &Consumer{c: c, ctx: pf.env.Ctx()})
	}
	for _, p := range ep.Producers {
		j.prod = append(j.prod, &Producer{p: p, ctx: pf.env.Ctx()})
	}
	return j
}

// InjectStagerCrash kills the stager instance currently occupying reserved
// slot `slot` — the fault-injection hook behind the failover tests and
// benchmarks. The kill is a hard stop: the forwarder abandons its queue,
// the receiver degrades to a message-absorbing dead mode so producers never
// block on the corpse, and the heartbeat stops, so the lease lapses and the
// failure detector evicts, replays, and (attempts permitting) respawns the
// slot. On a slot the detector is recovering it waits for the recovery to
// end and kills the replacement. It reports false when the fault plane is
// off, the slot was never used or has been abandoned, or its occupant is
// already dead or has flushed its drain. Inject only while the job is
// running — a kill landing after Wait's final detector sweep is never
// recovered.
func (j *Job) InjectStagerCrash(slot int) bool {
	return j.tier.Kill(j.pf.env.Ctx(), slot)
}

// Producer returns producer endpoint i.
func (j *Job) Producer(i int) *Producer { return j.prod[i] }

// Consumer returns consumer endpoint i.
func (j *Job) Consumer(i int) *Consumer { return j.cons[i] }

// Wait blocks until every runtime thread has finished: all producers closed,
// all data delivered (including through the staging tier), and (in Preserve
// mode) stored. Once the producers are done it shuts the job's own staging
// tier down — every relayed block is flushed to its consumer before the
// consumers' streams can complete — and the tier's control thread (failure
// detector, autoscaler) and every stager heartbeat stop on that event, not
// on their next tick, so Wait returns as soon as the last block is analysed
// and no runtime goroutine of the job outlives it. Wait returns whether or
// not an endpoint failed on the way; Err says if one did. It may be called
// more than once, from any goroutine: the work of waiting runs once.
func (j *Job) Wait() { _ = j.WaitContext(context.Background()) }

// WaitContext is Wait bounded by ctx: it returns nil once the job has
// finished, or ctx.Err() if ctx is done first. Giving up does not abandon
// the job — it goes on to completion, and a later Wait or WaitContext
// returns when it has.
func (j *Job) WaitContext(ctx context.Context) error {
	j.waitOnce.Do(func() {
		go func() {
			j.wait()
			close(j.finished)
		}()
	})
	select {
	case <-j.finished:
		return nil
	case <-ctx.Done():
		select {
		case <-j.finished:
			return nil
		default:
			return ctx.Err()
		}
	}
}

// wait is the work of waiting, run once.
func (j *Job) wait() {
	for _, p := range j.prod {
		p.p.Wait(p.ctx)
	}
	j.tier.Shutdown(j.pf.env.Ctx())
	for _, c := range j.cons {
		c.c.Wait(c.ctx)
	}
	if j.fleet != nil {
		// Fleet tenant: the shared stagers outlive this job. Release its
		// capacity so the control plane redistributes the slice.
		j.fleet.tier.Plane.Finish(j.pf.env.Ctx(), j.tenant)
	}
	if j.pipe != nil {
		// Every encoding thread (producers, stagers) has joined: the shared
		// parallel-encode pool can stop its workers.
		j.pipe.Close()
	}
	j.pf.close()
}

// Err reports a runtime failure of any of the job's endpoints, or nil: the
// first one found going down the data path — a producer whose reduction
// operator could not encode a relayed batch (the batch went out unreduced),
// a stager of the tier the job relays through (its own, or the fleet's) that
// could not spill, re-read or encode a block, a consumer that could not
// restore, re-read or preserve one. Each endpoint keeps its first failure and
// keeps the stream moving where it can, so Wait still returns; after Wait,
// Err says whether what it waited for can be trusted. A consumer's failure
// is also what ends its Read loop early (Consumer.Err). Safe to call from
// any goroutine, while the job runs or after.
func (j *Job) Err() error {
	for _, p := range j.prod {
		if err := p.p.Err(p.ctx); err != nil {
			return err
		}
	}
	tier, ctx := j.tier, j.pf.env.Ctx()
	if tier == nil && j.fleet != nil {
		tier = j.fleet.tier
	}
	for _, in := range tier.Instances() {
		if err := in.St.Err(ctx); err != nil {
			return err
		}
	}
	for _, c := range j.cons {
		if err := c.c.Err(c.ctx); err != nil {
			return err
		}
	}
	return nil
}

// StagerStats summarizes one in-transit stager endpoint's activity,
// including the live buffer occupancy so callers can observe fill without
// reaching into internals. With Elastic on, the list in JobStats covers
// every instance ever spawned — retired stagers stay visible with Drained
// set, so mid-run aggregates account for work the pool already shed.
type StagerStats struct {
	BlocksIn        int64 // blocks received from producers
	BlocksForwarded int64 // blocks delivered to consumers
	BlocksSpilled   int64 // blocks that overflowed to the stager's spill partition
	SpilledBytes    int64 // bytes that overflowed to the spill partition (encoded size when reduced)
	MessagesIn      int64 // relayed mixed messages received
	MessagesOut     int64 // re-batched mixed messages forwarded
	BytesOnWire     int64 // payload bytes forwarded to consumers (encoded size when reduced)
	BytesReduced    int64 // payload bytes reduction kept off the wire (raw − encoded)
	ReduceBursts    int64 // times the compress-instead-of-spill gate engaged
	MaxQueued       int64 // peak in-memory buffer occupancy in blocks

	// Drained reports an elastic-tier instance retired from the pool (by a
	// mid-run drain or the shutdown sweep); its totals are final.
	Drained bool

	Queued   int // blocks currently resident in the in-memory buffer
	Capacity int // the buffer's capacity in blocks

	// Fault plane (zero with Fault off).
	// Health is the fault plane's liveness state of this instance: "live",
	// "suspect", "evicted", or "recovered" (a respawned replacement). Empty
	// with the fault plane off.
	Health string
	// Evicted reports the failure detector evicted this instance (its lease
	// lapsed, or the shutdown sweep found it dead); Drained is also set —
	// the instance is gone from the pool — and ReplayedBlocks/LostBlocks
	// hold its journal's replay outcome.
	Evicted        bool
	ReplayedBlocks int64 // blocks the recovery reader re-forwarded
	LostBlocks     int64 // blocks declared unrecoverable at replay
}

// JobStats aggregates every endpoint's counters in one call: per-endpoint
// slices plus the workflow-wide totals a caller usually wants. It may be
// called mid-run, as often as wanted — a rate is the difference of two
// snapshots over the time between them. Call after Wait for final totals.
type JobStats struct {
	Producers []ProducerStats
	Consumers []ConsumerStats
	Stagers   []StagerStats
	// Totals across endpoints.
	BlocksWritten  int64 // handed to Write by all producers
	BlocksSent     int64 // left directly via the network path
	BlocksRelayed  int64 // left via the in-transit staging tier
	BlocksStolen   int64 // left via the work-stealing file-system path
	BlocksAnalyzed int64 // delivered to the analysis applications
	BlocksSpilled  int64 // overflowed inside stagers
	Messages       int64 // producer mixed messages (including Fins)
	// BytesOnWire totals the payload bytes every network traversal carried
	// (producer sends plus stager forwards — a relayed block crosses the
	// wire twice and is counted twice), at encoded size when reduction was
	// in effect. BytesReduced is what reduction kept off those traversals;
	// with reduction off both producer and stager legs carry raw bytes and
	// BytesReduced is 0.
	BytesOnWire  int64
	BytesReduced int64
	WriteStall   float64
	// RelayImbalance is the max/mean ratio of blocks received per stager
	// endpoint across the whole staging tier (retired elastic instances
	// included): 1.0 means every stager carried an equal share of the relay
	// traffic, S means one stager carried everything. Zero when no staging
	// tier exists or nothing was relayed. It is the number the load-aware
	// Placement policies exist to shrink when producers' output rates
	// diverge (TestZipperPlacementLeastOccupancyRebalances pins least-occupancy
	// at half rank-affine's on a skewed workload).
	RelayImbalance float64
	// Elastic staging tier (empty/zero with Elastic off).
	// ScaleEvents is the autoscaler's action timeline so far.
	ScaleEvents []ScaleEvent
	// StagerNodeSeconds is the summed provisioned lifetime of stager
	// endpoints in seconds — the resource cost a fixed pool pays as
	// pool-size × run-length. Every tier shape bills alike: each instance
	// from its spawn to the end of its flush (a crashed one to its
	// forwarder's exit). An instance still running is not billed yet, so
	// the sum is complete after Wait.
	StagerNodeSeconds float64
	// Fault plane (zero/empty with Fault off).
	// Evictions is the failure detector's lifetime eviction count and
	// ReplayedBlocks the blocks the recovery reader re-forwarded from dead
	// stagers' journals (orphaned-message blocks included).
	Evictions      int64
	ReplayedBlocks int64
	// BlocksLost counts blocks declared unrecoverable, as the consumers'
	// counted streams observed them. Zero means every block an evicted
	// stager owed was recovered from its journal.
	BlocksLost int64
	// FailoverEvents is the eviction/recovery timeline so far.
	FailoverEvents []FailoverEvent
}

// Stats aggregates producer, consumer, and stager counters in one call. It
// takes none of the endpoints' locks, so polling it does not hold up the
// simulation's Writes, the runtime threads or the analysis' Reads.
func (j *Job) Stats() JobStats {
	var js JobStats
	for _, p := range j.prod {
		s := p.Stats()
		js.Producers = append(js.Producers, s)
		js.BlocksWritten += s.BlocksWritten
		js.BlocksSent += s.BlocksSent
		js.BlocksRelayed += s.BlocksRelayed
		js.BlocksStolen += s.BlocksStolen
		js.Messages += s.Messages
		js.BytesOnWire += s.BytesOnWire
		js.BytesReduced += s.BytesReduced
		js.WriteStall += s.WriteStall
	}
	ctx := j.pf.env.Ctx()
	if t := j.tier; t != nil {
		for _, in := range t.Instances() {
			s := in.St.Stats(ctx)
			ps := stagerStats(s, in.Drained)
			if t.Protected() {
				ps.Evicted = in.Evicted
				ps.ReplayedBlocks = in.Replayed
				ps.LostBlocks = in.Lost
				if in.Evicted {
					ps.Health = place.Evicted.String()
				} else if h, ok := t.Pool.Health(len(j.cons) + in.Slot); ok {
					ps.Health = h.String()
				} else if in.Recovered {
					ps.Health = place.Recovered.String()
				} else {
					ps.Health = place.Live.String()
				}
			}
			js.Stagers = append(js.Stagers, ps)
			js.BlocksSpilled += s.BlocksSpilled
			js.BytesOnWire += s.BytesOnWire
			js.BytesReduced += s.BytesReduced
		}
		js.RelayImbalance = t.RelayImbalance()
		js.StagerNodeSeconds = t.NodeSeconds()
		js.ScaleEvents = t.ScaleEvents()
		js.Evictions = t.Evictions()
		js.ReplayedBlocks = t.ReplayedBlocks()
		js.FailoverEvents = t.FailoverEvents()
	}
	for _, c := range j.cons {
		s := c.Stats()
		js.Consumers = append(js.Consumers, s)
		js.BlocksAnalyzed += s.BlocksAnalyzed
		js.BlocksLost += s.BlocksLost
	}
	return js
}

// stagerStats converts a staging.Stats snapshot to the public shape.
func stagerStats(s staging.Stats, drained bool) StagerStats {
	return StagerStats{
		BlocksIn:        s.BlocksIn,
		BlocksForwarded: s.BlocksForwarded,
		BlocksSpilled:   s.BlocksSpilled,
		SpilledBytes:    s.SpilledBytes,
		MessagesIn:      s.MessagesIn,
		MessagesOut:     s.MessagesOut,
		BytesOnWire:     s.BytesOnWire,
		BytesReduced:    s.BytesReduced,
		ReduceBursts:    s.ReduceBursts,
		MaxQueued:       s.MaxQueued,
		Drained:         drained,
		Queued:          s.Queued,
		Capacity:        s.Capacity,
	}
}

// Producer is the application-facing producer endpoint. Its methods must be
// called from a single goroutine (the producing application's). The runtime
// leans on that: Write fills the producer buffer without taking a lock, and
// takes one only to wait for room or to wake a runtime thread it finds
// parked, so a block written into an idle runtime leaves at once and one
// written behind a busy sender leaves with that sender's next batch.
type Producer struct {
	p   *core.Producer
	ctx rt.Ctx
}

// Write hands one block of output to the runtime, and data with it: the
// caller must not touch it afterwards. The runtime recycles it into the
// payload pool once the block is done with it — when the consumer releases
// it, or as soon as the file system holds the copy of a stolen block.
func (p *Producer) Write(step int, offset int64, data []byte) {
	p.p.Write(p.ctx, step, offset, data, int64(len(data)))
}

// Close declares the stream finished. Write must not be called afterwards.
func (p *Producer) Close() { p.p.Close(p.ctx) }

// Stats returns the producer runtime module's counters, taking none of its
// locks. While the stream is open BlocksWritten trails the Writes made by
// less than MaxBatchBlocks (Write reports to its counter a batch at a time);
// it is exact once Close has returned. Safe from any goroutine.
func (p *Producer) Stats() ProducerStats {
	s := p.p.Stats()
	return ProducerStats{
		BlocksWritten: s.BlocksWritten,
		BlocksSent:    s.BlocksSent,
		BlocksRelayed: s.BlocksRelayed,
		BlocksStolen:  s.BlocksStolen,
		Messages:      s.Messages,
		BytesOnWire:   s.BytesOnWire,
		BytesReduced:  s.BytesReduced,
		WriteStall:    s.WriteStall.Seconds(),
		WriteParks:    s.WriteParks,
		SenderParks:   s.SenderParks,
		LaneParks:     s.LaneParks,
	}
}

// ProducerStats summarizes a producer endpoint's activity.
type ProducerStats struct {
	BlocksWritten int64
	BlocksSent    int64 // directly via the network path
	BlocksRelayed int64 // via the in-transit staging tier
	BlocksStolen  int64 // via the file-system path (work-stealing writer)
	// Messages counts mixed messages sent, including the final Fin. With
	// MaxBatchBlocks > 1 this falls below BlocksSent as batches form; the
	// ratio Messages/BlocksSent is the batching efficiency.
	Messages     int64
	BytesOnWire  int64   // payload bytes this producer put on the network paths (encoded size when reduced)
	BytesReduced int64   // payload bytes reduction kept off the wire (raw − encoded)
	WriteStall   float64 // seconds Write spent blocked on a full buffer
	// WriteParks, SenderParks and LaneParks count the hand-offs that made a
	// thread wait: Write parked on a full producer buffer, the sender thread
	// on an empty one, and a send on a transport window its receiver had not
	// yet opened again.
	WriteParks  int64
	SenderParks int64
	LaneParks   int64
}

// Consumer is the application-facing consumer endpoint. Its methods, and the
// Release of the blocks it returns, must be called from a single goroutine
// (the analyzing application's). The runtime leans on that: Read claims up to
// half the consumer buffer per visit to the consumer's lock and hands the
// claim out without it — a claimed block keeps its place in the buffer until
// Read has returned it, so ConsumerBufferBlocks bounds what it always did —
// and Release recycles without a lock.
type Consumer struct {
	c   *core.Consumer
	ctx rt.Ctx
}

// Read blocks until the next data block is available, in arrival order.
// ok=false means every upstream producer closed and all blocks were
// delivered (or a runtime error occurred; check Err).
func (c *Consumer) Read() (Block, bool) {
	b, ok := c.c.Read(c.ctx)
	if !ok {
		return Block{}, false
	}
	return Block{
		ID:      BlockID{Rank: b.ID.Rank, Step: b.ID.Step, Seq: b.ID.Seq},
		Offset:  b.Offset,
		Data:    b.Data,
		ViaDisk: b.OnDisk,
		inner:   b,
		gen:     b.Gen(),
		owner:   c,
	}, true
}

// Err reports a runtime failure, if any.
func (c *Consumer) Err() error { return c.c.Err(c.ctx) }

// Stats returns the consumer runtime module's counters, taking none of its
// locks. BlocksAnalyzed is exact to the last block Read returned. Safe from
// any goroutine.
func (c *Consumer) Stats() ConsumerStats {
	s := c.c.Stats()
	return ConsumerStats{
		BlocksReceived: s.BlocksReceived,
		BlocksRead:     s.BlocksRead,
		BlocksAnalyzed: s.BlocksAnalyzed,
		BlocksStored:   s.BlocksStored,
		BlocksLost:     s.BlocksLost,
		Queued:         s.Queued,
		Capacity:       s.Capacity,
		ReadParks:      s.ReadParks,
		ReceiverParks:  s.ReceiverParks,
	}
}

// ConsumerStats summarizes a consumer endpoint's activity.
type ConsumerStats struct {
	BlocksReceived int64 // via the network path
	BlocksRead     int64 // via the file-system path
	BlocksAnalyzed int64
	BlocksLost     int64 // blocks an upstream relay declared unrecoverable
	BlocksStored   int64 // persisted by the Preserve-mode output thread
	Queued         int   // blocks currently resident in the consumer buffer
	Capacity       int   // the buffer's capacity in blocks
	// ReadParks and ReceiverParks count the hand-offs that made a thread
	// wait: Read parked on an empty consumer buffer, the receiver thread on
	// a full one.
	ReadParks     int64
	ReceiverParks int64
}
