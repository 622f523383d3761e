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
// per-message overhead of the fine-grain protocol; NewPayload and
// Block.Release close the allocation loop so steady-state transfer reuses
// payload buffers instead of allocating fresh ones.
//
// With Config.Stagers ≥ 1 and a non-direct RoutePolicy, the job adds the
// in-transit staging tier: the sender picks a channel per batch (direct,
// staging relay, or — implicitly, through backpressure — the work-stealing
// file-system path), and stagers absorb bursts in memory, re-batch, spill
// overflow to their own SpoolDir partitions, and forward to the consumers.
//
// With Config.Elastic.Enabled the staging tier becomes an autoscaled
// resource: Stagers turns into a reserved endpoint ceiling, producers
// resolve their stager per batch from an epoch-versioned pool, and a scaler
// grows and drains endpoints at runtime on the pool-wide occupancy,
// forward-rate, and spill signals. Job.Stats reports the scaling timeline
// and the stager node-seconds the pool actually billed.
//
// Config.Placement selects the placement plane's policy — how producers
// resolve their consumer and stager endpoints: RankAffine (the fixed
// assignments of earlier revisions, the default), LeastOccupancy (every
// batch to the emptiest endpoint, shrinking relay imbalance when producer
// rates diverge), or HashRing (consistent hashing, stable across elastic
// membership epochs). Job.Stats reports the per-stager RelayImbalance the
// load-aware policies exist to shrink.
//
// Config.Fault turns the staging tier into a survivable data plane: every
// stager holds a lease in the placement directory renewed by heartbeats,
// write-ahead journals its admitted traffic into its spool partition, and a
// failure detector evicts members whose lease lapses — producers re-resolve
// to the survivors on their very next batch, the dead endpoint's journal is
// replayed straight to the consumers so the counted per-destination Fin
// totals balance, and a replacement is respawned into the freed slot. An
// injected crash (Job.InjectStagerCrash) therefore completes the run with
// zero blocks lost; JobStats reports the eviction/recovery timeline.
package zipper

import (
	"fmt"
	"sync"

	"zipper/internal/block"
	"zipper/internal/control"
	"zipper/internal/core"
	"zipper/internal/elastic"
	"zipper/internal/fault"
	"zipper/internal/flow"
	"zipper/internal/place"
	"zipper/internal/reduce"
	"zipper/internal/rt"
	"zipper/internal/rt/realenv"
	"zipper/internal/staging"
	"zipper/internal/trace"
)

// RoutePolicy selects the producer's per-batch channel choice when staging
// is enabled. See the core package for the policy semantics.
type RoutePolicy = core.RoutePolicy

const (
	// RouteDirect is the paper's two-channel protocol: the in-memory
	// message path relieved by the work-stealing file-system path.
	RouteDirect = core.RouteDirect
	// RouteStaging relays everything through the in-transit staging tier.
	RouteStaging = core.RouteStaging
	// RouteHybrid picks per batch from live backpressure: direct while the
	// consumer window has credit, staging while the stager has room,
	// otherwise the blocking direct path (which the work-stealing writer
	// relieves through the file system).
	RouteHybrid = core.RouteHybrid
	// RouteAdaptive runs the closed-loop flow controller: per-channel
	// delivered-throughput and stall EWMAs continuously rebalance the
	// direct/staging split so the producer never stalls while the consumer
	// and stagers run at their service rates. It is also the one policy
	// that arbitrates the file-system channel: above HighWater the
	// work-stealing writer steals only while a steal's measured cost per
	// byte is within an order of magnitude of the cheaper network
	// channel's (under every other policy, above HighWater means steal).
	// Tune it with Config.Adaptive.
	RouteAdaptive = core.RouteAdaptive
)

// AdaptiveTuning parameterizes the RouteAdaptive controller; the zero value
// selects sensible defaults (see the flow package).
type AdaptiveTuning = flow.Tuning

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
	// HashRing is consistent hashing across membership epochs: when the
	// elastic tier drains a stager only the producers mapped to it move,
	// and when the endpoint regrows exactly those producers return.
	HashRing = place.KindHashRing
)

// ElasticConfig tunes the elastic staging tier — the autoscaler that grows
// and drains stager endpoints at runtime (see the elastic package). The zero
// value of every field but Enabled selects a sensible default.
type ElasticConfig = elastic.Config

// ScaleEvent is one autoscaler action on the stager pool, reported in
// JobStats.ScaleEvents as a scaling timeline.
type ScaleEvent = elastic.Event

// StagingConfig groups the in-transit staging tier's configuration — the
// endpoint count, buffering, routing, placement, and autoscaling knobs the
// tier reads as one unit. The flat Config fields of earlier revisions
// (Config.Stagers, Config.StagerBufferBlocks, Config.RoutePolicy,
// Config.Placement, Config.Adaptive, Config.Elastic) remain as deprecated
// aliases: a zero field here inherits the flat value, a non-zero field here
// wins, so existing callers compile and behave unchanged.
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
	// (default 64). Past ¾ of it the stager spills its newest buffered
	// blocks to its own SpoolDir partition.
	BufferBlocks int
	// RoutePolicy picks the channel for each drained batch when Stagers ≥ 1:
	// RouteDirect (never relay), RouteStaging (always relay), RouteHybrid
	// (react per batch to live backpressure), or RouteAdaptive (the
	// closed-loop controller).
	RoutePolicy RoutePolicy
	// Placement selects how producers resolve their consumer and stager
	// endpoints: RankAffine (the default — the fixed assignments of earlier
	// revisions, byte-identical), LeastOccupancy (every batch to the
	// emptiest endpoint, read from the live occupancy gauges), or HashRing
	// (consistent hashing, stable across elastic membership epochs). With a
	// non-default placement the runtime routes through epoch-versioned
	// place.Directory instances — consumers resolved per batch, stagers run
	// pool-managed even when the tier is fixed-size — and stream
	// termination is counted (per-destination Fin totals) rather than
	// ordered, so mid-run reassignment never strands blocks.
	Placement Placement
	// Adaptive tunes the RouteAdaptive controller (ignored otherwise).
	Adaptive AdaptiveTuning
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
	// RingDepth selects the intra-node fast path: when > 0, co-located
	// endpoint pairs exchange messages over padded lock-free SPSC rings
	// instead of buffered Go channels — every sending thread gets a private
	// wait-free lane per endpoint it addresses, and Credits derives from
	// ring occupancy so the routing policies read the same backpressure
	// signal. Applies to the whole in-process network and, on a TCP job, to
	// the listener's endpoint set (per-connection reader lanes plus the
	// stagers' loopback lanes). 0 (the default) keeps the channel
	// transport, pinned byte-identical to earlier revisions.
	//
	// RingDepth picks the transport, not the amount of buffering: a lane's
	// send window is min(RingDepth, Config.Window) messages, so Window
	// means the same thing on rings as on channels (see Config.Window).
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
// file-system bandwidth.
type ReduceConfig = reduce.Config

// ReduceOperator names one in-transit payload reduction operator.
type ReduceOperator = reduce.Kind

const (
	// ReduceNone disables payload reduction (the default).
	ReduceNone = reduce.None
	// ReduceCompress LZ-compresses each relayed block, skipping blocks
	// that don't shrink. Lossless; the safe default for unknown payloads.
	ReduceCompress = reduce.Compress
	// ReduceDelta XOR-encodes each block against the previous step of the
	// same (rank, seq) stream, then LZ-compresses the sparse residue.
	// Lossless; strongest on smooth time-evolving fields. It needs a single
	// in-order relay path per stream, so it is rejected with elastic,
	// fault-protected, or non-RankAffine-placed tiers.
	ReduceDelta = reduce.Delta
	// ReduceStride keeps every k-th float64 word (ReduceConfig.Stride).
	// Lossy: the consumer sees a nearest-left expansion. For analyses that
	// subsample anyway.
	ReduceStride = reduce.Stride
)

// FaultConfig enables and tunes the survivable data plane — leases,
// heartbeats, write-ahead journaling, and spool replay over the staging
// tier (see the fault package). With Enabled the tier always runs
// pool-managed behind an epoch-versioned directory (even a fixed RankAffine
// tier), so an eviction is just another membership epoch to the producers.
// The zero value of every field but Enabled selects a sensible default.
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
	owner *Consumer
}

// Release recycles the block's payload into the runtime's payload pool. Call
// it once the analysis is completely done with Data: afterwards the payload
// may back another producer's NewPayload at any moment, so retaining a
// reference to Data corrupts the stream. In Preserve mode the recycle is
// deferred until the output thread has stored the block, so Release is always
// safe to call right after analyzing. Releasing twice is a no-op.
func (b *Block) Release() {
	if b.inner == nil {
		return
	}
	b.Data = nil
	b.owner.c.ReleaseBlock(b.owner.ctx, b.inner)
}

// NewPayload returns a payload slice of length n, reusing a buffer released
// by a consumer when one is available. The contents are unspecified — fill
// all n bytes before handing the slice to Producer.Write. Payloads that never
// pass through the pool are also accepted by Write; the pool is an
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
	// ConsumerBufferBlocks is each consumer's buffer capacity (default 16).
	ConsumerBufferBlocks int
	// MaxBatchBlocks caps how many buffered blocks one mixed message may
	// carry. The default (0 or 1) is the paper's one-block-per-message
	// protocol; raising it lets the sender thread drain whole batches per
	// send, cutting message count and per-message overhead when the producer
	// runs ahead of the network.
	MaxBatchBlocks int
	// MaxBatchBytes caps a batch's total payload bytes (0 = unlimited). The
	// head block of a batch is always sent, even when it alone exceeds the
	// cap.
	MaxBatchBytes int64
	// Window is the receive window in messages (default 4): how many
	// undelivered messages a sender may have queued at an endpoint before
	// Send blocks — the backpressure every routing, stealing and scaling
	// decision reads — and it means the same on channels, rings and TCP. On
	// the channel transport it is each endpoint's inbox capacity; on the
	// ring transport (Staging.RingDepth > 0) it is each sender lane's
	// capacity, min(RingDepth, Window); on a TCP job (TCPAddr) it is also
	// how many messages a producer's connection carries that the listener
	// has not yet acknowledged as deposited in their inbox. One rule,
	// because a lane that ignored it held RingDepth × MaxBatchBlocks blocks
	// per sender (64 × 8 = 512 blocks, 8 MiB at 16 KiB, against a 256-block
	// stager buffer), and a connection bounded only by socket buffers held
	// over a thousand compressed blocks: any producer-side speed-up then
	// piled up out of sight, the stager overflowed into spill and re-read
	// while its consumer sat idle, and RingDepth: 1024 pinned over 1 GB of
	// payloads.
	Window int
	// TCPAddr, when non-empty, carries every producer→endpoint message over
	// real TCP sockets instead of the in-process channel network: NewJob
	// binds a frame-v6 listener to this address ("127.0.0.1:0" picks a free
	// port), hosts the consumer and stager inboxes behind it, and gives each
	// producer its own dialed connection. Stagers forward to consumers over
	// the listener's loopback. Endpoints still share the process; what
	// changes is that payloads traverse the kernel TCP stack through the
	// vectored zero-copy frame writer — the configuration cmd/benchwire
	// measures. Pool-managed staging tiers (Elastic, Fault, or a
	// non-RankAffine Placement) are rejected over TCP: their Retire fencing
	// needs delivery ordering across endpoints that concurrent TCP streams
	// do not provide.
	TCPAddr string
	// Staging groups the in-transit staging tier's configuration. The flat
	// fields below (Stagers through Elastic) are this group's deprecated
	// aliases, kept so existing callers compile unchanged: a zero field
	// here inherits the flat value, and a non-zero field here wins.
	Staging StagingConfig
	// Fault enables and tunes the survivable data plane: leases and
	// heartbeats on every staging endpoint, write-ahead journaling of
	// admitted traffic, and eviction/replay/respawn recovery when an
	// endpoint dies. It needs Staging.Stagers ≥ 1 and a RoutePolicy that
	// can reach the tier.
	Fault FaultConfig
	// Stagers is the number of in-transit staging endpoints.
	//
	// Deprecated: set Staging.Stagers instead; this alias remains for
	// existing callers and behaves identically.
	Stagers int
	// StagerBufferBlocks is each stager's in-memory buffer capacity.
	//
	// Deprecated: set Staging.BufferBlocks instead; this alias remains for
	// existing callers and behaves identically.
	StagerBufferBlocks int
	// RoutePolicy picks the channel for each drained batch when Stagers ≥ 1.
	//
	// Deprecated: set Staging.RoutePolicy instead; this alias remains for
	// existing callers and behaves identically.
	RoutePolicy RoutePolicy
	// Placement selects how producers resolve their consumer and stager
	// endpoints.
	//
	// Deprecated: set Staging.Placement instead; this alias remains for
	// existing callers and behaves identically.
	Placement Placement
	// Adaptive tunes the RouteAdaptive controller (ignored otherwise).
	//
	// Deprecated: set Staging.Adaptive instead; this alias remains for
	// existing callers and behaves identically.
	Adaptive AdaptiveTuning
	// Elastic enables and tunes the staging-tier autoscaler.
	//
	// Deprecated: set Staging.Elastic instead; this alias remains for
	// existing callers and behaves identically.
	Elastic ElasticConfig
	// Preserve keeps every block on the file system for later validation.
	Preserve bool
	// DisableSteal turns the dual-channel optimization off
	// (message-passing-only mode): no writer thread, whatever the routing
	// policy would have elected.
	DisableSteal bool
	// Recorder, when non-nil, captures runtime-thread activity spans.
	Recorder *trace.Recorder
	// Quota is the job's resource envelope when submitted to a shared
	// Fleet: guaranteed stager buffer blocks, weighted bandwidth share, and
	// preemption priority. NewJob ignores it — a private job owns its whole
	// staging tier.
	Quota QuotaConfig
}

// Job is a running Zipper workflow.
type Job struct {
	env   *realenv.Env
	cfg   Config
	net   *realenv.Network
	fs    *realenv.FileStore
	prod  []*Producer
	cons  []*Consumer
	stage []*staging.Stager // fixed staging tier (Elastic off)
	pipe  *reduce.Pipeline  // shared parallel-encode pool (Reduce.Workers != 0)

	// Real-TCP wire mode (Config.TCPAddr): the listener hosting every
	// consumer and stager inbox, plus each producer's dialed connection.
	// Both nil on the in-process network.
	ln    *realenv.TCPListener
	dials []*realenv.TCPTransport

	// Elastic staging tier state. slots maps each reserved endpoint slot to
	// its current stager instance (a retired slot keeps its last instance
	// until the scaler reuses it); all records every instance ever spawned,
	// in spawn order, so retired stagers stay visible in Stats.
	mu     sync.RWMutex
	slots  []*staging.Stager
	all    []*jobStager
	pool   *elastic.Pool
	scaler *elastic.Scaler

	// Fault plane (zero/nil with Fault off).
	faultOn bool
	fcfg    fault.Config // defaults resolved
	monitor *fault.Monitor

	// Shared-fleet mode (Fleet.Submit): the fleet this job is a tenant of
	// and its control-plane handle. Both nil for a private NewJob. finished
	// (under fleet.mu) keeps the tenant's capacity release idempotent.
	fleet    *Fleet
	tenant   *control.Tenant
	finished bool
}

// jobStager is one spawned stager instance of a pool-managed tier.
type jobStager struct {
	slot    int
	st      *staging.Stager
	drained bool // retired from the pool (mid-run drain or shutdown)

	// Fault plane (zero/nil with Fault off).
	journal   *staging.Journal // this instance's write-ahead journal
	spill     rt.BlockStore    // the slot's spool partition
	evicted   bool             // the failure detector evicted this instance
	recovered bool             // this instance is a respawned replacement
	replayed  int64            // blocks the recovery reader re-forwarded
	lost      int64            // blocks declared unrecoverable at replay
}

// normalized resolves the deprecated flat staging aliases against the
// grouped StagingConfig — a non-zero grouped field wins, a zero grouped
// field inherits the flat value — and mirrors the result into both views,
// so the runtime (and the tests pinning the equivalence) can read either.
func (cfg Config) normalized() Config {
	s := &cfg.Staging
	if s.Stagers == 0 {
		s.Stagers = cfg.Stagers
	}
	if s.BufferBlocks == 0 {
		s.BufferBlocks = cfg.StagerBufferBlocks
	}
	if s.RoutePolicy == RouteDirect {
		s.RoutePolicy = cfg.RoutePolicy
	}
	if s.Placement == RankAffine {
		s.Placement = cfg.Placement
	}
	if s.Adaptive == (AdaptiveTuning{}) {
		s.Adaptive = cfg.Adaptive
	}
	if s.Elastic == (ElasticConfig{}) {
		s.Elastic = cfg.Elastic
	}
	cfg.Stagers = s.Stagers
	cfg.StagerBufferBlocks = s.BufferBlocks
	cfg.RoutePolicy = s.RoutePolicy
	cfg.Placement = s.Placement
	cfg.Adaptive = s.Adaptive
	cfg.Elastic = s.Elastic
	return cfg
}

// validate rejects configurations that would otherwise hang, panic, or
// silently misbehave deep inside the runtime. Every rejection is a
// *ConfigError naming the offending field.
func (cfg Config) validate() error {
	cfg = cfg.normalized()
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
	if cfg.BufferBlocks > 0 && cfg.HighWater > cfg.BufferBlocks {
		return &ConfigError{Field: "HighWater",
			Reason: fmt.Sprintf("%d exceeds BufferBlocks (%d): the stealing threshold would be unreachable",
				cfg.HighWater, cfg.BufferBlocks)}
	}
	if cfg.ConsumerBufferBlocks < 0 {
		return &ConfigError{Field: "ConsumerBufferBlocks",
			Reason: fmt.Sprintf("must be ≥ 0, got %d", cfg.ConsumerBufferBlocks)}
	}
	if cfg.MaxBatchBlocks < 0 {
		return &ConfigError{Field: "MaxBatchBlocks",
			Reason: fmt.Sprintf("must be ≥ 0 (0 selects one block per message), got %d", cfg.MaxBatchBlocks)}
	}
	if cfg.MaxBatchBytes < 0 {
		return &ConfigError{Field: "MaxBatchBytes",
			Reason: fmt.Sprintf("must be ≥ 0 (0 means unlimited), got %d", cfg.MaxBatchBytes)}
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
	switch cfg.RoutePolicy {
	case RouteDirect, RouteStaging, RouteHybrid, RouteAdaptive:
	default:
		// RoutePolicy.String renders out-of-range values as "unknown(N)".
		return &ConfigError{Field: "Staging.RoutePolicy",
			Reason: fmt.Sprintf("%v is not a policy (valid: %v, %v, %v, %v)",
				cfg.RoutePolicy, RouteDirect, RouteStaging, RouteHybrid, RouteAdaptive)}
	}
	if cfg.RoutePolicy != RouteDirect && cfg.Staging.Stagers == 0 {
		return &ConfigError{Field: "Staging.Stagers",
			Reason: fmt.Sprintf("RoutePolicy %v needs Stagers ≥ 1", cfg.RoutePolicy)}
	}
	if !cfg.Placement.Valid() {
		// Placement.String renders out-of-range values as "unknown(N)".
		return &ConfigError{Field: "Staging.Placement",
			Reason: fmt.Sprintf("%v is not a policy (valid: %v, %v, %v)",
				cfg.Placement, RankAffine, LeastOccupancy, HashRing)}
	}
	if cfg.Adaptive.MinShare < 0 || cfg.Adaptive.MaxShare < 0 ||
		cfg.Adaptive.MinShare > 1 || cfg.Adaptive.MaxShare > 1 {
		return &ConfigError{Field: "Staging.Adaptive",
			Reason: fmt.Sprintf("shares must lie in [0,1], got min %v max %v",
				cfg.Adaptive.MinShare, cfg.Adaptive.MaxShare)}
	}
	if cfg.Adaptive.MaxShare > 0 && cfg.Adaptive.MinShare > cfg.Adaptive.MaxShare {
		return &ConfigError{Field: "Staging.Adaptive",
			Reason: fmt.Sprintf("MinShare (%v) exceeds MaxShare (%v)",
				cfg.Adaptive.MinShare, cfg.Adaptive.MaxShare)}
	}
	if cfg.Adaptive.Tau < 0 || cfg.Adaptive.Decay < 0 {
		return &ConfigError{Field: "Staging.Adaptive",
			Reason: "time constants must be ≥ 0 (0 selects the default)"}
	}
	if cfg.Elastic.Enabled && cfg.RoutePolicy == RouteDirect {
		return &ConfigError{Field: "Staging.Elastic",
			Reason: fmt.Sprintf("elastic staging needs a RoutePolicy that can reach the tier (valid: %v, %v, %v)",
				RouteStaging, RouteHybrid, RouteAdaptive)}
	}
	// The staging tier never outnumbers the producers (a stager with no
	// possible traffic would never terminate), so elastic bounds must fit
	// the effective ceiling — otherwise an explicitly requested floor would
	// be silently shrunk instead of rejected.
	ceiling := cfg.Staging.Stagers
	if cfg.Producers < ceiling {
		ceiling = cfg.Producers
	}
	if err := cfg.Elastic.Validate(ceiling); err != nil {
		return &ConfigError{Field: "Staging.Elastic", Reason: err.Error()}
	}
	if cfg.Staging.RingDepth < 0 {
		return &ConfigError{Field: "Staging.RingDepth",
			Reason: fmt.Sprintf("must be ≥ 0 (0 = channel transport, > 0 = SPSC ring lanes of min(RingDepth, Window) messages), got %d", cfg.Staging.RingDepth)}
	}
	if err := cfg.Staging.Reduce.Validate(); err != nil {
		return &ConfigError{Field: "Staging.Reduce", Reason: err.Error()}
	}
	if cfg.Staging.Reduce.Enabled() {
		if cfg.Staging.Stagers < 1 || cfg.RoutePolicy == RouteDirect {
			return &ConfigError{Field: "Staging.Reduce",
				Reason: fmt.Sprintf("reduction applies at relay time; it needs Stagers ≥ 1 and a RoutePolicy that can reach the tier (valid: %v, %v, %v)",
					RouteStaging, RouteHybrid, RouteAdaptive)}
		}
		if cfg.Staging.Reduce.Operator == ReduceDelta &&
			(cfg.Elastic.Enabled || cfg.Fault.Enabled || cfg.Placement != RankAffine) {
			return &ConfigError{Field: "Staging.Reduce",
				Reason: "delta encoding needs a single in-order relay path per stream: it cannot run with Elastic, Fault, or a non-RankAffine Placement"}
		}
	}
	if cfg.TCPAddr != "" {
		// The frame codec's Retire caveat, enforced: a pool-managed tier's
		// fencing assumes the Retire message is provably the last delivery
		// to an endpoint, which holds on the in-process network but not
		// across independently flushed TCP streams.
		switch {
		case cfg.Elastic.Enabled:
			return &ConfigError{Field: "TCPAddr",
				Reason: "elastic staging is pool-managed; its Retire fencing is unsound over TCP streams"}
		case cfg.Fault.Enabled:
			return &ConfigError{Field: "TCPAddr",
				Reason: "the fault plane is pool-managed; its eviction fencing is unsound over TCP streams"}
		case cfg.Placement != RankAffine:
			return &ConfigError{Field: "TCPAddr",
				Reason: fmt.Sprintf("placement %v runs the tier pool-managed; its Retire fencing is unsound over TCP streams (only %v works over TCP)",
					cfg.Placement, RankAffine)}
		}
	}
	if cfg.Fault.Enabled {
		if cfg.Staging.Stagers < 1 {
			return &ConfigError{Field: "Fault",
				Reason: "the fault plane protects the staging tier; it needs Staging.Stagers ≥ 1"}
		}
		if cfg.RoutePolicy == RouteDirect {
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

// NewJob validates the configuration, builds the network, staging, and
// file-system paths, and starts the runtime threads for every endpoint.
func NewJob(cfg Config) (*Job, error) {
	cfg = cfg.normalized()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	env := realenv.New()
	window := cfg.Window
	if window <= 0 {
		window = 4
	}
	fs, err := realenv.NewFileStore(cfg.SpoolDir)
	if err != nil {
		return nil, err
	}
	ccfg := core.Config{
		BufferBlocks:         cfg.BufferBlocks,
		HighWater:            cfg.HighWater,
		ConsumerBufferBlocks: cfg.ConsumerBufferBlocks,
		MaxBatchBlocks:       cfg.MaxBatchBlocks,
		MaxBatchBytes:        cfg.MaxBatchBytes,
		DisableSteal:         cfg.DisableSteal,
		RoutePolicy:          cfg.RoutePolicy,
		Adaptive:             cfg.Adaptive,
		Reduce:               cfg.Staging.Reduce,
		Recorder:             cfg.Recorder,
	}
	if cfg.Preserve {
		ccfg.Mode = core.Preserve
	}
	j := &Job{env: env, cfg: cfg, fs: fs}
	// The wire: the in-process channel network by default, or — with
	// TCPAddr set — a frame-v6 TCP listener hosting every consumer and
	// stager inbox, each producer on its own dialed connection, and the
	// stagers forwarding over the listener's loopback.
	var inboxAt func(i int) rt.Inbox
	laneWindow := min(cfg.Staging.RingDepth, window) // the one window rule, see Config.Window
	if cfg.TCPAddr == "" {
		var net *realenv.Network
		if cfg.Staging.RingDepth > 0 {
			net = realenv.NewRingNetwork(cfg.Consumers+cfg.Stagers, laneWindow)
		} else {
			net = realenv.NewNetwork(cfg.Consumers+cfg.Stagers, window)
		}
		j.net = net
		inboxAt = net.Inbox
	} else {
		var ln *realenv.TCPListener
		var err error
		if cfg.Staging.RingDepth > 0 {
			ln, err = realenv.ListenTCPRing(cfg.TCPAddr, cfg.Consumers+cfg.Stagers, laneWindow)
		} else {
			ln, err = realenv.ListenTCP(cfg.TCPAddr, cfg.Consumers+cfg.Stagers, window)
		}
		if err != nil {
			return nil, err
		}
		j.ln = ln
		inboxAt = ln.Inbox
	}
	// Each stager's forwarder is one sending thread, so it gets its own
	// relay transport port: on the ring network that is a private wait-free
	// SPSC lane per consumer; on the channel network (and the channel
	// loopback) the port is the shared multi-producer-safe transport,
	// byte-identical to earlier revisions.
	relayPort := func() rt.Transport {
		if j.ln != nil {
			return j.ln.LoopbackPort()
		}
		return j.net.Port()
	}
	// One shared encode pipeline per job when parallel reduction is on:
	// every producer sender and stager forwarder fans its batch encode out
	// across the same bounded worker pool. Stateless operators only —
	// validation already rejected Delta with Workers != 0.
	if cfg.Staging.Reduce.Enabled() && cfg.Staging.Reduce.Workers != 0 {
		j.pipe = reduce.NewPipeline(cfg.Staging.Reduce, cfg.Staging.Reduce.Workers)
		ccfg.ReducePipeline = j.pipe
	}
	placed := cfg.Placement != RankAffine
	for q := 0; q < cfg.Consumers; q++ {
		n := 0
		for p := 0; p < cfg.Producers; p++ {
			if p*cfg.Consumers/cfg.Producers == q {
				n++
			}
		}
		if placed {
			// A placement-resolved consumer can receive from any producer,
			// and every producer Fin-broadcasts to every consumer.
			n = cfg.Producers
		}
		j.cons = append(j.cons, &Consumer{
			c:   core.NewConsumer(env, ccfg, q, n, inboxAt(q), fs),
			ctx: env.Ctx(),
		})
	}
	if placed {
		// The consumer directory: static membership (every consumer
		// endpoint), policy-driven per-batch resolution fed by the live
		// consumer-buffer occupancy gauges.
		cdir := place.New(cfg.Placement.New(), func(addr int) *flow.Level {
			return j.cons[addr].c.Level()
		})
		for q := 0; q < cfg.Consumers; q++ {
			cdir.Add(q)
		}
		ccfg.ConsumerDirectory = cdir
	}
	// With RouteDirect no producer would ever address a stager — its
	// receiver would wait forever for Fins — so the tier is not built and
	// the job is indistinguishable from a Stagers: 0 run. A stager with no
	// assigned producer would likewise never terminate, so the tier never
	// outnumbers the producers.
	stagers := cfg.Stagers
	if cfg.RoutePolicy == RouteDirect {
		stagers = 0
	}
	if stagers > cfg.Producers {
		stagers = cfg.Producers
	}
	if cfg.Fault.Enabled && stagers > 0 {
		j.faultOn = true
		j.fcfg = cfg.Fault.WithDefaults()
	}
	stagerLevel := func(addr int) *flow.Level {
		j.mu.RLock()
		defer j.mu.RUnlock()
		if st := j.slots[addr-cfg.Consumers]; st != nil {
			return st.Level()
		}
		return nil
	}
	switch {
	case cfg.Elastic.Enabled && stagers > 0:
		// Elastic staging tier: spawn the starting pool, hand producers the
		// epoch-versioned directory instead of a fixed assignment, and start
		// the scaler. The pool resolves through the configured Placement
		// policy, fed by the live stager occupancy gauges.
		ecfg := cfg.Elastic.WithDefaults(stagers)
		if j.faultOn {
			// Draining a member that may already be dead is unsound (its
			// Retire would never be consumed); fault mode trades mid-run
			// drains for crash safety.
			ecfg.DisableDrain = true
		}
		j.pool = place.New(cfg.Placement.New(), stagerLevel)
		j.slots = make([]*staging.Stager, ecfg.MaxStagers)
		var initial []*flow.StagerFlows
		for s := 0; s < ecfg.MinStagers; s++ {
			st, err := j.spawnStager(s)
			if err != nil {
				return nil, err
			}
			j.pool.Add(cfg.Consumers + s)
			initial = append(initial, st.Flows())
		}
		ccfg.Directory = j.pool
		ccfg.StagerLevel = stagerLevel
		j.scaler = elastic.NewScaler(env, ecfg, j.pool, (*jobHost)(j), cfg.Consumers, initial)
		j.scaler.Start()
	case (placed || j.faultOn) && stagers > 0:
		// Placement-directed (or fault-protected) fixed tier: the same
		// pool-managed endpoints as the elastic tier over a static
		// membership, no scaler. Producers resolve their stager per drained
		// batch through the placement policy; Job.Wait retires the endpoints
		// once the producers finish and counted termination completes the
		// consumers' streams from the flushed deliveries. The fault plane
		// needs this shape even under RankAffine placement: an eviction is a
		// membership epoch, and counted Fins are what let replayed blocks
		// land after their relay died.
		j.pool = place.New(cfg.Placement.New(), stagerLevel)
		j.slots = make([]*staging.Stager, stagers)
		for s := 0; s < stagers; s++ {
			if _, err := j.spawnStager(s); err != nil {
				return nil, err
			}
			j.pool.Add(cfg.Consumers + s)
		}
		ccfg.Directory = j.pool
		ccfg.StagerLevel = stagerLevel
	case stagers > 0:
		for s := 0; s < stagers; s++ {
			spill, err := fs.Partition(fmt.Sprintf("stage%d", s))
			if err != nil {
				return nil, err
			}
			n := 0
			for p := 0; p < cfg.Producers; p++ {
				if p%stagers == s {
					n++
				}
			}
			scfg := staging.Config{
				BufferBlocks:   cfg.StagerBufferBlocks,
				MaxBatchBlocks: cfg.MaxBatchBlocks,
				MaxBatchBytes:  cfg.MaxBatchBytes,
				Producers:      n,
				Reduce:         cfg.Staging.Reduce,
				Pipeline:       j.pipe,
				Recorder:       cfg.Recorder,
			}
			j.stage = append(j.stage, staging.NewStager(env, scfg, s, inboxAt(cfg.Consumers+s), relayPort(), spill))
		}
		ccfg.StagerLevel = func(addr int) *flow.Level {
			return j.stage[addr-cfg.Consumers].Level()
		}
	}
	if j.faultOn && j.pool != nil {
		// The failure detector: sweeps the lease table every heartbeat,
		// evicts lapsed members, and drives the fence → replay → respawn
		// recovery sequence through the job's fault host.
		j.monitor = fault.NewMonitor(env, j.fcfg, j.pool, (*jobFaultHost)(j))
		j.monitor.Start()
	}
	for p := 0; p < cfg.Producers; p++ {
		stager := core.NoStager
		if j.pool == nil && stagers > 0 {
			stager = cfg.Consumers + p%stagers
		}
		// Each producer's sender is one sending thread: its own port.
		var tr rt.Transport
		if j.net != nil {
			tr = j.net.Port()
		}
		if j.ln != nil {
			t, err := realenv.DialTCP(j.ln.Addr(), window)
			if err != nil {
				j.closeWire()
				return nil, err
			}
			j.dials = append(j.dials, t)
			tr = t
		}
		j.prod = append(j.prod, &Producer{
			p:   core.NewStagedProducer(env, ccfg, p, p*cfg.Consumers/cfg.Producers, stager, tr, fs),
			ctx: env.Ctx(),
		})
	}
	return j, nil
}

// closeWire tears down the real-TCP wire, if the job has one: every
// producer's dialed connection, then the listener. A no-op on the
// in-process network.
func (j *Job) closeWire() {
	for _, t := range j.dials {
		_ = t.Close()
	}
	if j.ln != nil {
		_ = j.ln.Close()
	}
}

// spawnStager builds and starts a managed stager endpoint on reserved slot
// `slot` of a pool-managed tier. A respawned slot reuses its spill
// partition — a drained occupant flushed it before retiring, and a crashed
// occupant's leftover spool copies belong to its journal, whose replay
// removes them.
func (j *Job) spawnStager(slot int) (*staging.Stager, error) {
	spill, err := j.fs.Partition(fmt.Sprintf("stage%d", slot))
	if err != nil {
		return nil, err
	}
	scfg := staging.Config{
		BufferBlocks:   j.cfg.StagerBufferBlocks,
		MaxBatchBlocks: j.cfg.MaxBatchBlocks,
		MaxBatchBytes:  j.cfg.MaxBatchBytes,
		Managed:        true,
		Reduce:         j.cfg.Staging.Reduce,
		Pipeline:       j.pipe,
		Recorder:       j.cfg.Recorder,
	}
	in := &jobStager{slot: slot, spill: spill}
	if j.faultOn {
		// Each instance gets a fresh write-ahead journal — a respawned slot
		// must not replay its predecessor's records — and a liveness lease,
		// renewed by a heartbeat thread and released synchronously by the
		// last thread of a clean drain, so only a crash ever lapses it.
		addr := j.cfg.Consumers + slot
		in.journal = staging.NewJournal()
		scfg.Journal = in.journal
		scfg.HeartbeatInterval = j.fcfg.Heartbeat
		scfg.Heartbeat = func(c rt.Ctx) { j.pool.Beat(addr, c.Now()) }
		scfg.Unlease = func() { j.pool.Unlease(addr) }
		j.pool.Lease(addr, j.fcfg.LeaseTTL, j.env.Ctx().Now())
	}
	// A respawned instance's forwarder is a fresh sending thread — it gets
	// its own port (a new private lane set on the ring network).
	st := staging.NewStager(j.env, scfg, slot, j.net.Inbox(j.cfg.Consumers+slot), j.net.Port(), spill)
	in.st = st
	j.mu.Lock()
	j.slots[slot] = st
	j.all = append(j.all, in)
	j.mu.Unlock()
	return st, nil
}

// jobHost adapts a Job to the elastic.Host interface without exporting the
// scaler's platform callbacks on the public Job API.
type jobHost Job

// Spawn implements elastic.Host.
func (h *jobHost) Spawn(c rt.Ctx, slot int) (*flow.StagerFlows, error) {
	st, err := (*Job)(h).spawnStager(slot)
	if err != nil {
		return nil, err
	}
	return st.Flows(), nil
}

// Retire implements elastic.Host: it marks the slot's instance drained for
// Stats and delivers the Retire control message.
func (h *jobHost) Retire(c rt.Ctx, slot int) {
	j := (*Job)(h)
	j.mu.Lock()
	st := j.slots[slot]
	for i := len(j.all) - 1; i >= 0; i-- {
		if j.all[i].st == st {
			j.all[i].drained = true
			break
		}
	}
	j.mu.Unlock()
	j.net.Send(c, j.cfg.Consumers+slot, rt.Message{Retire: true})
}

// Drained implements elastic.Host.
func (h *jobHost) Drained(c rt.Ctx, slot int) bool {
	j := (*Job)(h)
	j.mu.RLock()
	st := j.slots[slot]
	j.mu.RUnlock()
	return st == nil || st.Drained(c)
}

// jobFaultHost adapts a Job to the fault.Host interface — the platform half
// of the failure detector — without exporting fencing and replay on the
// public Job API. All methods run on the monitor's thread.
type jobFaultHost Job

// occupant returns the slot's most recently spawned instance.
func (h *jobFaultHost) occupant(addr int) *jobStager {
	j := (*Job)(h)
	slot := addr - j.cfg.Consumers
	j.mu.RLock()
	defer j.mu.RUnlock()
	for i := len(j.all) - 1; i >= 0; i-- {
		if j.all[i].slot == slot {
			return j.all[i]
		}
	}
	return nil
}

// Dead implements fault.Host: the liveness oracle the shutdown sweep uses
// to tell an undetected crash from a healthy member about to drain.
func (h *jobFaultHost) Dead(c rt.Ctx, addr int) bool {
	in := h.occupant(addr)
	return in != nil && in.st.Killed(c)
}

// Evict implements fault.Host: fence the evicted occupant — kill it if the
// eviction was a false positive, so a still-live flush can never race the
// journal replay into duplicate deliveries — release its dead-mode receiver
// with the Retire message, and join every thread. The membership change and
// claim quiesce already happened.
func (h *jobFaultHost) Evict(c rt.Ctx, addr int) {
	j := (*Job)(h)
	in := h.occupant(addr)
	if in == nil {
		return
	}
	if j.scaler != nil {
		j.scaler.Crashed(in.slot)
	}
	if !in.st.Killed(c) {
		in.st.Kill(c)
	}
	if in.st.NeedsRetire(c) {
		j.net.Send(c, addr, rt.Message{Retire: true})
	}
	in.st.Wait(c)
	j.mu.Lock()
	in.drained = true
	in.evicted = true
	j.mu.Unlock()
}

// Recover implements fault.Host: the recovery reader replays the dead
// occupant's write-ahead journal and orphan backlog straight to the
// consumers, where counted Fin accounting absorbs the re-sent blocks.
func (h *jobFaultHost) Recover(c rt.Ctx, addr int) (replayed, orphans, lost int64) {
	j := (*Job)(h)
	in := h.occupant(addr)
	if in == nil || in.journal == nil {
		return 0, 0, 0
	}
	replayed, orphans, lost = staging.Replay(c, in.journal, in.spill, j.net)
	j.mu.Lock()
	in.replayed += replayed
	in.lost += lost
	j.mu.Unlock()
	return replayed, orphans, lost
}

// Respawn implements fault.Host: build a replacement endpoint on the freed
// slot and re-admit it to the pool membership. The monitor re-leases it and
// marks the address Recovered.
func (h *jobFaultHost) Respawn(c rt.Ctx, addr int) bool {
	j := (*Job)(h)
	st, err := j.spawnStager(addr - j.cfg.Consumers)
	if err != nil {
		return false
	}
	j.mu.Lock()
	for i := len(j.all) - 1; i >= 0; i-- {
		if j.all[i].st == st {
			j.all[i].recovered = true
			break
		}
	}
	j.mu.Unlock()
	j.pool.Add(addr)
	if j.scaler != nil {
		j.scaler.Respawned(addr-j.cfg.Consumers, st.Flows())
	}
	return true
}

// InjectStagerCrash kills the stager instance currently occupying reserved
// slot `slot` — the fault-injection hook behind the failover tests and
// benchmarks. The kill is a hard stop: the forwarder abandons its queue,
// the receiver degrades to a message-absorbing dead mode so producers never
// block on the corpse, and the heartbeat stops, so the lease lapses and the
// failure detector evicts, replays, and (attempts permitting) respawns the
// slot. It reports false when the fault plane is off, the slot is empty,
// or its occupant is already dead or drained. Inject only while the job is
// running — a kill landing after Wait's final detector sweep is never
// recovered.
func (j *Job) InjectStagerCrash(slot int) bool {
	if !j.faultOn {
		return false
	}
	ctx := j.env.Ctx()
	j.mu.RLock()
	var st *staging.Stager
	if slot >= 0 && slot < len(j.slots) {
		st = j.slots[slot]
	}
	j.mu.RUnlock()
	if st == nil || st.Killed(ctx) || st.Drained(ctx) {
		return false
	}
	st.Kill(ctx)
	return true
}

// Producer returns producer endpoint i.
func (j *Job) Producer(i int) *Producer { return j.prod[i] }

// Consumer returns consumer endpoint i.
func (j *Job) Consumer(i int) *Consumer { return j.cons[i] }

// Wait blocks until every runtime thread has finished: all producers closed,
// all data delivered (including through the staging tier), and (in Preserve
// mode) stored. With Elastic on it also stops the scaler and retires the
// remaining pool — every relayed block is flushed to its consumer before the
// consumers' streams can complete.
func (j *Job) Wait() {
	for _, p := range j.prod {
		p.p.Wait(p.ctx)
	}
	ctx := j.env.Ctx()
	if j.monitor != nil {
		// Stop the failure detector first: its final forced sweep recovers
		// kills whose lease never lapsed — the replays must happen while the
		// consumers are still counting — and stopping it here guarantees no
		// respawn can land in the middle of the tier shutdown below.
		j.monitor.Stop(ctx)
	}
	if j.scaler == nil && j.pool != nil {
		// Placement-directed fixed tier: the producers have finished, so no
		// relay traffic can appear. Retire every endpoint the elastic way —
		// out of the membership, quiesce in-flight claims, then the
		// provably-last Retire message — and wait out the flush.
		j.pool.RetireAll(ctx, func(addr int) {
			j.net.Send(ctx, addr, rt.Message{Retire: true})
		})
		j.mu.Lock()
		all := append([]*jobStager(nil), j.all...)
		for _, in := range all {
			in.drained = true
		}
		j.mu.Unlock()
		for _, in := range all {
			in.st.Wait(ctx)
		}
	}
	if j.scaler != nil {
		j.scaler.Stop(ctx)
		j.mu.RLock()
		all := append([]*jobStager(nil), j.all...)
		j.mu.RUnlock()
		for _, in := range all {
			in.st.Wait(ctx)
		}
	}
	for _, s := range j.stage {
		s.Wait(ctx)
	}
	for _, c := range j.cons {
		c.c.Wait(c.ctx)
	}
	if j.fleet != nil {
		// Fleet tenant: the shared stagers outlive this job. Release its
		// capacity so the control plane redistributes the slice.
		j.fleet.jobFinished(j)
	}
	if j.pipe != nil {
		// Every encoding thread (producers, stagers) has joined: the shared
		// parallel-encode pool can stop its workers.
		j.pipe.Close()
	}
	j.closeWire()
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

	Queued      int     // blocks currently resident in the in-memory buffer
	Capacity    int     // the buffer's capacity in blocks
	ForwardRate float64 // blocks/s the forwarder is delivering (live EWMA)

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

// JobStats aggregates every endpoint's flow gauges in one call: per-endpoint
// slices plus the workflow-wide totals and live rates a caller usually
// wants. It may be called mid-run — the rates are EWMAs of the current
// delivered throughput, not averages over terminal totals. Call after Wait
// for final totals.
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
	// diverge — see BENCH_placement.json for the gated comparison.
	RelayImbalance float64
	// Live EWMA rates summed across endpoints (blocks/s at snapshot time).
	WriteRate   float64 // application write rate across producers
	DeliverRate float64 // delivery rate across producers, all channels
	AnalyzeRate float64 // analysis rate across consumers
	// Elastic staging tier (empty/zero with Elastic off).
	// ScaleEvents is the autoscaler's action timeline so far.
	ScaleEvents []ScaleEvent
	// StagerNodeSeconds is the summed provisioned lifetime of stager
	// endpoints in seconds — the resource cost a fixed pool pays as
	// pool-size × run-length. Elastic: complete after Wait (it books an
	// instance when its drain flushes). Fixed pool: each stager's finish
	// time, available after Wait.
	StagerNodeSeconds float64
	// ElasticSpawnErr reports the autoscaler's most recent endpoint-spawn
	// failure ("" = none): the pool holds at its current size and retries
	// after a cooldown, and this is where that condition becomes visible.
	ElasticSpawnErr string
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

// Stats aggregates producer, consumer, and stager counters in one call.
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
		js.WriteRate += s.WriteRate
		js.DeliverRate += s.DeliverRate
	}
	ctx := j.env.Ctx()
	if j.pool != nil {
		j.mu.RLock()
		insts := make([]jobStager, 0, len(j.all))
		for _, in := range j.all {
			insts = append(insts, *in)
		}
		j.mu.RUnlock()
		for _, in := range insts {
			s := in.st.Stats(ctx)
			ps := stagerStats(s, in.drained)
			if j.faultOn {
				ps.Evicted = in.evicted
				ps.ReplayedBlocks = in.replayed
				ps.LostBlocks = in.lost
				if in.evicted {
					ps.Health = place.Evicted.String()
				} else if h, ok := j.pool.Health(j.cfg.Consumers + in.slot); ok {
					ps.Health = h.String()
				} else if in.recovered {
					ps.Health = place.Recovered.String()
				} else {
					ps.Health = place.Live.String()
				}
			}
			js.Stagers = append(js.Stagers, ps)
			js.BlocksSpilled += s.BlocksSpilled
			js.BytesOnWire += s.BytesOnWire
			js.BytesReduced += s.BytesReduced
			if j.scaler == nil {
				// Placement-directed fixed tier: every endpoint is billed to
				// its finish time, like the legacy fixed pool.
				js.StagerNodeSeconds += s.Finished.Seconds()
			}
		}
		if j.scaler != nil {
			js.ScaleEvents = j.scaler.Events()
			js.StagerNodeSeconds = j.scaler.NodeSeconds()
			if err := j.scaler.Err(); err != nil {
				js.ElasticSpawnErr = err.Error()
			}
		}
		if j.monitor != nil {
			js.Evictions = j.monitor.Evictions()
			js.ReplayedBlocks = j.monitor.ReplayedBlocks()
			js.FailoverEvents = j.monitor.Events()
		}
	}
	for _, st := range j.stage {
		s := st.Stats(ctx)
		js.Stagers = append(js.Stagers, stagerStats(s, false))
		js.BlocksSpilled += s.BlocksSpilled
		js.BytesOnWire += s.BytesOnWire
		js.BytesReduced += s.BytesReduced
		js.StagerNodeSeconds += s.Finished.Seconds()
	}
	if n := len(js.Stagers); n > 0 {
		var total, peak int64
		for _, s := range js.Stagers {
			total += s.BlocksIn
			if s.BlocksIn > peak {
				peak = s.BlocksIn
			}
		}
		if total > 0 {
			js.RelayImbalance = float64(peak) * float64(n) / float64(total)
		}
	}
	for _, c := range j.cons {
		s := c.Stats()
		js.Consumers = append(js.Consumers, s)
		js.BlocksAnalyzed += s.BlocksAnalyzed
		js.BlocksLost += s.BlocksLost
		js.AnalyzeRate += s.AnalyzeRate
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
		ForwardRate:     s.ForwardRate,
	}
}

// Producer is the application-facing producer endpoint. Its methods must be
// called from a single goroutine (the producing application's).
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

// Stats returns the producer runtime module's flow gauges: totals plus the
// live EWMA rates at call time.
func (p *Producer) Stats() ProducerStats {
	s := p.p.Stats(p.ctx)
	return ProducerStats{
		BlocksWritten: s.BlocksWritten,
		BlocksSent:    s.BlocksSent,
		BlocksRelayed: s.BlocksRelayed,
		BlocksStolen:  s.BlocksStolen,
		Messages:      s.Messages,
		BytesOnWire:   s.BytesOnWire,
		BytesReduced:  s.BytesReduced,
		WriteStall:    s.WriteStall.Seconds(),
		WriteRate:     s.WriteRate,
		DeliverRate:   s.DeliverRate,
		StallFrac:     s.StallFrac,
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
	// Live EWMA gauges at snapshot time.
	WriteRate   float64 // blocks/s the application is writing
	DeliverRate float64 // blocks/s leaving by any channel
	StallFrac   float64 // fraction of recent time Write sat blocked
}

// Consumer is the application-facing consumer endpoint. Its methods must be
// called from a single goroutine (the analyzing application's).
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
		owner:   c,
	}, true
}

// Err reports a runtime failure, if any.
func (c *Consumer) Err() error { return c.c.Err(c.ctx) }

// Stats returns the consumer runtime module's flow gauges: totals plus the
// live EWMA analysis rate at call time.
func (c *Consumer) Stats() ConsumerStats {
	s := c.c.Stats(c.ctx)
	return ConsumerStats{
		BlocksReceived: s.BlocksReceived,
		BlocksRead:     s.BlocksRead,
		BlocksAnalyzed: s.BlocksAnalyzed,
		BlocksStored:   s.BlocksStored,
		BlocksLost:     s.BlocksLost,
		AnalyzeRate:    s.AnalyzeRate,
		Queued:         s.Queued,
		Capacity:       s.Capacity,
	}
}

// ConsumerStats summarizes a consumer endpoint's activity.
type ConsumerStats struct {
	BlocksReceived int64 // via the network path
	BlocksRead     int64 // via the file-system path
	BlocksAnalyzed int64
	BlocksLost     int64   // blocks an upstream relay declared unrecoverable
	BlocksStored   int64   // persisted by the Preserve-mode output thread
	AnalyzeRate    float64 // blocks/s delivered to the analysis (live EWMA)
	Queued         int     // blocks currently resident in the consumer buffer
	Capacity       int     // the buffer's capacity in blocks
}
