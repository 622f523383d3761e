// Package staging implements the in-transit tier of the Zipper runtime: a
// Stager is a dedicated runtime endpoint that sits between producers and
// consumers as a third channel, next to the low-latency direct message path
// and the work-stealing file-system path.
//
// A producer whose routing policy elects the relay addresses its mixed
// message to the stager's transport endpoint and sets Message.Dest to the
// consumer the data is for. The stager's receiver thread admits it into a
// bounded in-memory buffer, its forwarder thread re-batches buffered blocks
// into larger mixed messages and forwards them to their destination
// consumers, and its spiller thread can overflow the newest buffered blocks
// to the stager's own spill partition of the parallel file system, to be
// read back in order once the consumer catches up. Consumers drain a stager
// exactly like a producer: relayed messages arrive in their ordinary inbox,
// so Preserve mode, disk-ref announcements, and Fin accounting work
// unchanged end to end.
//
// How much is buffered, and whether anything is spilled, follows from one
// question — is the consumer, or the disk, what the forwarder would be
// waiting for? — answered from state the stager holds at that moment: the
// destination's receive credit, and how long the forwarder has been waiting
// on a full window (electLocked, turnLocked). While the window has credit
// the stager is pass-through: it admits only a few batches' worth and spills
// nothing, so a flood back-pressures its producers instead of building a
// queue, or an on-disk backlog whose re-reads would then gate the forwarder.
// While the window is full, and the consumer takes longer to free it than
// the spill store takes to write and re-read a batch, the stager is
// absorbing: it admits up to BufferBlocks and overflows above the high-water
// mark — the burst a staging tier exists for. The rule is the same with and
// without a crash journal.
//
// With a crash journal (Config.Journal) the queue is also what a crash owes:
// a killed stager's threads stop and leave the queue as it stands — resident
// blocks, blocks in the segment log, each message's disk refs — and the
// recovery reader (Replay) re-forwards it (see journal.go).
//
// Every stager sits behind a placement-plane directory, which resolves each
// producer batch to a member under its place.Policy (rank-affine, which is
// a fixed assignment, or load-aware), so a stager never knows its producers
// and a Fin never rides the relay: producers close their streams with a
// direct Fin that declares their totals. Termination is by drain: the
// Retire control message — sent only after the membership change has
// quiesced, making it the last message the endpoint receives — stops
// admission, and the forwarder flushes the queue and the spill partition
// before the threads exit. The stager preserves per-producer arrival order,
// and the re-batching forwarder groups consecutive same-destination
// arrivals, so it composes with any consumer placement: interleaved
// destinations simply cut batches shorter, never reorder a producer's
// blocks.
//
// Like the core producer and consumer modules, the Stager is written against
// the rt platform interfaces and runs unchanged on the real machine
// (goroutines, TCP or in-process channels) and inside the discrete-event
// simulator (where the extra network hop is charged by the fabric model).
package staging

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"zipper/internal/block"
	"zipper/internal/flow"
	"zipper/internal/reduce"
	"zipper/internal/rt"
	"zipper/internal/trace"
)

// Config tunes one stager endpoint.
type Config struct {
	// BufferBlocks is the in-memory buffer capacity in blocks (default 64).
	// The receiver admits a message only when its blocks fit; a producer
	// sending to a full stager blocks on the stager's receive window, which
	// is the backpressure the hybrid routing policy reads via Level.
	// Above ¾ of it (the high-water mark) the spiller thread overflows the
	// newest buffered blocks to the spill store so the head of the queue
	// keeps flowing from memory.
	BufferBlocks int
	// MaxBatchBlocks caps how many buffered blocks one forwarded mixed
	// message may carry (default 16). Re-batching inside the stager is the
	// second half of the tier's job: many small producer sends leave as few
	// large consumer deliveries.
	MaxBatchBlocks int
	// Managed must be true: a stager admits messages until it receives the
	// Retire control message, then flushes its queue and spill partition to
	// the consumers and exits. It is the only termination there is; the
	// field stays while the benchmark driver (bench/) sets it.
	Managed bool
	// Reduce selects in-transit payload reduction at this endpoint. Blocks
	// that arrive already encoded (producer-side reduction) pass through
	// untouched. With OnPressure set, the stager's pressure ladder gains a
	// middle rung: when occupancy crosses the high-water mark a
	// flow.ReduceGate engages and the forwarder reduction-encodes what it
	// sends (and the spiller what it spills), while the PFS spill rung is
	// pushed up to halfway between the high-water mark and the buffer top —
	// bursts burn CPU before they burn PFS bandwidth. Without OnPressure
	// the stager encodes nothing itself (producer-side reduction is where
	// non-gated encoding lives).
	Reduce reduce.Config
	// Pipeline, when non-nil, fans the forwarder's gated encode out across
	// a shared worker pool instead of encoding inline on the forwarder
	// thread (Reduce.Workers != 0 selects it; zipper builds one pipeline
	// per job). The spiller always encodes its single victim inline, where
	// a pool buys nothing. The pipeline
	// encodes in place and joins before the send, so forwarded batch order
	// and wire bytes are identical to inline.
	Pipeline *reduce.Pipeline
	// Recorder, when non-nil, captures the stager threads' activity spans.
	Recorder *trace.Recorder
	// Recycler, when non-nil, is the job's free list of block headers and
	// block lists (core.Config.Recycler): the receiver hands in the list of
	// every message it admits and the forwarder builds its messages' lists
	// from it. The assembler always sets it; the fallback, a free list of
	// the stager's own, stays while the benchmark driver (bench/) builds a
	// stager without one.
	Recycler *block.Recycler

	// Tenants is the number of tenant classes sharing this stager under a
	// multi-job control plane (0 leaves the stager single-tenant: no
	// per-tenant state exists and every path below is byte-identical to the
	// pre-tenancy stager). Tenant states are pre-sized here and never
	// reallocated, so TenantLevel/TenantSpilled are safe from any thread
	// without the stager lock.
	Tenants int
	// Tenant resolves an arriving message's producer rank to its tenant
	// class in [0, Tenants). Required when Tenants > 0. Called under the
	// stager lock on the receiver thread: it must be cheap and must never
	// park (a table lookup, not a platform call).
	Tenant func(from int) int

	// Journal, when non-nil, lets the stager's death lose nothing: the
	// spiller's overflow goes, up to MaxBatchBlocks victims per append, to a
	// segment log the stager opens in the spill partition instead of to one
	// file per block, delivery releases that log space, and the queue —
	// resident blocks by reference, spilled ones by their place in the log,
	// each slot's disk refs — is the manifest of what is still owed. The
	// journal is owned by the embedder, one per stager instance: through it
	// the stopped instance's queue and log outlive the endpoint, so the
	// recovery reader (Replay) can re-forward what the crash stranded. The death of the whole process is
	// not covered and never was (see journal.go). Enables Kill-based fault
	// injection.
	Journal *Journal
	// Heartbeat, when non-nil, is invoked every HeartbeatInterval by a
	// dedicated thread while the stager is healthy — the lease renewal. A
	// killed stager stops beating (its lease lapses into eviction); a
	// cleanly drained stager stops beating after Unlease runs.
	Heartbeat func(c rt.Ctx)
	// HeartbeatInterval is the lease renewal period (required with
	// Heartbeat).
	HeartbeatInterval time.Duration
	// Unlease, when non-nil, is called exactly once, synchronously, by the
	// last runtime thread to exit a clean drain — before Wait/Drained can
	// observe the endpoint as done — so the failure detector can never
	// mistake a planned drain's silence for a crash. A killed stager never
	// calls it.
	Unlease func()
}

func (c Config) withDefaults() Config {
	if c.BufferBlocks <= 0 {
		c.BufferBlocks = 64
	}
	if c.MaxBatchBlocks <= 0 {
		c.MaxBatchBlocks = 16
	}
	return c
}

// Stats is a snapshot of one stager endpoint's counters: lifetime totals
// plus the live buffer occupancy at snapshot time.
type Stats struct {
	BlocksIn        int64         // blocks received from producers
	BlocksForwarded int64         // blocks delivered to consumers
	BlocksSpilled   int64         // blocks that overflowed to the spill store
	SpilledBytes    int64         // payload bytes that overflowed to the spill store
	MessagesIn      int64         // mixed messages received
	MessagesOut     int64         // mixed messages forwarded (re-batched)
	BytesOnWire     int64         // payload bytes forwarded (encoded size when reduced)
	BytesReduced    int64         // payload bytes reduction kept off the wire (raw − encoded)
	ReduceBursts    int64         // times the compress-instead-of-spill gate engaged
	MaxQueued       int64         // peak in-memory buffer occupancy in blocks
	SpillBusy       time.Duration // spiller time writing + forwarder time re-reading
	Finished        time.Duration // when the forwarder delivered the last batch
	Queued          int           // blocks currently resident in the in-memory buffer
	Capacity        int           // the buffer's capacity in blocks
}

// relayBlock is one buffered block: resident in memory, being spilled, or
// spilled (b.Data released) awaiting re-read by the forwarder — from its
// spill file, or in fault mode from the segment log, which holds exactly the
// spilled blocks and nothing else, at ref. The header stays with the entry
// throughout, so the re-read fills it again and everything the block says
// about itself (identity, offset, sizes, reduction stamp) is still there on
// platforms whose store keeps no payload (the simulated PFS). In a dead
// fault-mode stager's queue it is what the recovery reader owes.
type relayBlock struct {
	b        *block.Block
	ref      rt.LogRef // once spilled to the segment log
	spilling bool
	spilled  bool
	ten      *tenantState // tenant charged for the resident block (multi-tenant only)
}

// tenantState is one tenant's slice of a shared stager: the admission cap
// the control plane pushed, the blocks currently resident on the tenant's
// account, and the tenant-scoped gauges that keep one job's backlog out of
// another job's routing signals. quota/used mutate only under the stager
// lock; the gauges are lock-order leaves readable from any thread.
type tenantState struct {
	quota   int          // admission cap in resident blocks; 0 = uncapped
	used    int          // resident blocks charged to this tenant
	level   flow.Level   // used vs quota (capacity falls back to BufferBlocks)
	in      flow.Counter // lifetime blocks admitted
	spilled flow.Counter // lifetime blocks spilled off this tenant's account
}

// slot is one received mixed message, decomposed and queued in arrival
// order. A slot leaves the queue only once fully forwarded, so its disk
// refs never overtake its blocks, and then goes back to the stager's
// free list. Its entries are stored by value and never move while it is
// queued: the spiller holds pointers to its victims across the append, and a
// victim being spilled keeps its slot from being forwarded.
type slot struct {
	from, dest int
	blocks     []relayBlock
	head       int // blocks[:head] have been taken by the forwarder
	disk       []rt.DiskRef
}

// Stager is one in-transit staging endpoint.
type Stager struct {
	env rt.Env
	cfg Config
	id  int
	in  rt.Inbox
	tr  rt.Transport
	fs  rt.BlockStore // spill partition

	// Compress-instead-of-spill rung (Config.Reduce with OnPressure):
	// gate flips under the stager lock as occupancy crosses its thresholds,
	// fwdEnc encodes forwarded blocks while the gate is engaged (owned by
	// the forwarder thread), spillEnc encodes spill victims (owned by the
	// spiller thread), and spillAt is the raised
	// spill threshold — reduction gets a chance to absorb the burst before
	// the PFS rung engages. Without OnPressure, spillAt is the high-water mark and
	// the rest are nil.
	gate     *flow.ReduceGate
	fwdEnc   blockEncoder
	spillEnc *reduce.Encoder
	spillAt  int

	lk        rt.Lock
	work      rt.Cond // queue gained forwardable content or state change
	space     rt.Cond // in-memory occupancy dropped
	spillWork rt.Cond // occupancy rose above the spill threshold

	done rt.Cond // a runtime thread exited

	// beat renews the lease every HeartbeatInterval; it is halted the moment
	// the stager drains or is killed, and Wait joins it. nil without a
	// heartbeat.
	beat *rt.Loop

	// The arbiter's state (electLocked, turnLocked). parkedOn is the
	// destination whose full window the forwarder is waiting on (-1: none),
	// parkedSince when that wait began, and lastPark how long the last one
	// that ended took (0: none has). absorbing says the consumer is the
	// slower of consumer and spill store: the receiver admits up to
	// BufferBlocks and the spiller may overflow; otherwise the stager is
	// pass-through — admit only passDepth blocks, spill nothing. passDepth is
	// a few batches: enough that the forwarder never finds the queue empty
	// while producers have more, shallow enough that nothing piles up behind
	// it. held is the size of a message the receiver holds at an absorbing
	// buffer's cap (0: none), which the spiller makes room for.
	absorbing   bool
	passDepth   int
	parkedOn    int
	parkedSince time.Duration
	lastPark    time.Duration
	held        int

	queue       []*slot
	free        []*slot         // forwarded slots, for the receiver to reuse
	rec         *block.Recycler // the job's free list of block lists
	memBlocks   int             // blocks resident in memory (mirrored in fl.Queue)
	recvDone    bool
	forwardDone bool
	spillDone   bool
	killed      bool // crashed via Kill; threads stop at their next boundary
	unleased    bool // clean-drain Unlease already ran
	err         error
	finished    atomic.Int64 // when the forwarder exited, as a time.Duration
	fl          flow.StagerFlows
	ten         []*tenantState // pre-sized per-tenant states; nil when single-tenant
}

// blockEncoder is what the forwarder thread needs of a reduce.Encoder (a test
// substitutes one that fails). A block EncodeBlock returns an error for must
// be left as it was, so it can still be forwarded unreduced.
type blockEncoder interface {
	EncodeBlock(b *block.Block) error
}

// NewStager builds the runtime module for stager endpoint id, draining `in`
// and forwarding over `tr` to consumer endpoints, spilling overflow through
// fs, its spill partition, and starts its receiver, forwarder, and spiller
// threads.
func NewStager(env rt.Env, cfg Config, id int, in rt.Inbox, tr rt.Transport, fs rt.BlockStore) *Stager {
	cfg = cfg.withDefaults()
	if !cfg.Managed {
		panic("staging: every stager is managed: it ends on Retire")
	}
	s := &Stager{env: env, cfg: cfg, id: id, in: in, tr: tr, fs: fs, rec: cfg.Recycler}
	if s.rec == nil {
		s.rec = block.NewRecycler(cfg.MaxBatchBlocks)
	}
	if j := cfg.Journal; j != nil {
		j.s, j.log = s, fs.OpenLog()
	}
	s.passDepth = min(4*cfg.MaxBatchBlocks, cfg.BufferBlocks)
	s.parkedOn = -1
	highWater := max(1, cfg.BufferBlocks*3/4)
	s.spillAt = highWater
	if cfg.Reduce.Enabled() && cfg.Reduce.OnPressure {
		s.gate = flow.NewReduceGate(highWater)
		s.fwdEnc = reduce.NewEncoder(cfg.Reduce)
		s.spillEnc = reduce.NewEncoder(cfg.Reduce)
		// Give reduction headroom to absorb the burst before the PFS rung:
		// spill only from halfway between the old threshold and the top.
		s.spillAt = highWater + (cfg.BufferBlocks-highWater)/2
		if s.spillAt >= cfg.BufferBlocks {
			s.spillAt = cfg.BufferBlocks - 1
		}
	}
	if cfg.Tenants > 0 {
		if cfg.Tenant == nil {
			panic("staging: Tenants > 0 requires a Tenant resolver")
		}
		s.ten = make([]*tenantState, cfg.Tenants)
		for i := range s.ten {
			ts := &tenantState{}
			ts.level.SetCapacity(cfg.BufferBlocks)
			s.ten[i] = ts
		}
	}
	s.fl.Queue.SetCapacity(cfg.BufferBlocks)
	s.lk = env.NewLock(fmt.Sprintf("zstage.%d", id))
	s.work = s.lk.NewCond(fmt.Sprintf("zstage.%d.work", id))
	s.space = s.lk.NewCond(fmt.Sprintf("zstage.%d.space", id))
	s.spillWork = s.lk.NewCond(fmt.Sprintf("zstage.%d.spillWork", id))
	s.done = s.lk.NewCond(fmt.Sprintf("zstage.%d.done", id))
	env.Go(fmt.Sprintf("zstage.%d.receiver", id), s.receiverThread)
	env.Go(fmt.Sprintf("zstage.%d.forwarder", id), s.forwarderThread)
	env.Go(fmt.Sprintf("zstage.%d.spiller", id), s.spillerThread)
	if cfg.Heartbeat != nil && cfg.HeartbeatInterval > 0 {
		s.beat = rt.StartLoop(env, fmt.Sprintf("zstage.%d.heartbeat", id), cfg.HeartbeatInterval, cfg.Heartbeat, nil)
	}
	return s
}

func (s *Stager) traceName(thread string) string {
	return fmt.Sprintf("zstage.%d.%s", s.id, thread)
}

// Level exposes the buffer-occupancy gauge itself, the live fill and its
// peak. This is what core.Config.StagerLevel should return.
func (s *Stager) Level() *flow.Level { return &s.fl.Queue }

// Flows exposes the module's live counters and occupancy.
func (s *Stager) Flows() *flow.StagerFlows { return &s.fl }

// TenantLevel exposes tenant's occupancy gauge (resident blocks vs its
// admission quota) — the per-tenant routing signal and the pressure gauge
// the control plane's preemption rule reads. Safe from any thread; nil for
// a single-tenant stager or an out-of-range tenant.
func (s *Stager) TenantLevel(tenant int) *flow.Level {
	if s.ten == nil || tenant < 0 || tenant >= len(s.ten) {
		return nil
	}
	return &s.ten[tenant].level
}

// TenantSpilled returns tenant's lifetime spilled-block count at this
// endpoint. Safe from any thread; 0 for a single-tenant stager.
func (s *Stager) TenantSpilled(tenant int) int64 {
	if s.ten == nil || tenant < 0 || tenant >= len(s.ten) {
		return 0
	}
	return s.ten[tenant].spilled.Total()
}

// TenantIn returns tenant's lifetime admitted-block count at this endpoint.
// Safe from any thread; 0 for a single-tenant stager.
func (s *Stager) TenantIn(tenant int) int64 {
	if s.ten == nil || tenant < 0 || tenant >= len(s.ten) {
		return 0
	}
	return s.ten[tenant].in.Total()
}

// SetTenantQuota sets tenant's admission cap in resident blocks (0 =
// uncapped): the receiver holds tenant's messages once its resident count
// would exceed the cap, which is the backpressure that keeps one job's
// burst from consuming another job's share of the buffer. The control
// plane's reconcile loop is the caller. No-op on a single-tenant stager.
func (s *Stager) SetTenantQuota(c rt.Ctx, tenant, blocks int) {
	if s.ten == nil || tenant < 0 || tenant >= len(s.ten) {
		return
	}
	s.lk.Lock(c)
	ts := s.ten[tenant]
	ts.quota = blocks
	capacity := blocks
	if capacity <= 0 || capacity > s.cfg.BufferBlocks {
		capacity = s.cfg.BufferBlocks
	}
	ts.level.SetCapacity(capacity)
	// A raised quota may unblock a receiver parked on the tenant's old cap.
	s.space.Broadcast()
	s.lk.Unlock(c)
}

// tenantOf resolves an arriving message's tenant state (nil when
// single-tenant; out-of-range ranks fold to tenant 0).
func (s *Stager) tenantOf(from int) *tenantState {
	if s.ten == nil {
		return nil
	}
	t := s.cfg.Tenant(from)
	if t < 0 || t >= len(s.ten) {
		t = 0
	}
	return s.ten[t]
}

// chargeTenantLocked moves delta resident blocks onto (or off) ts's account
// and refreshes its occupancy gauge.
func (s *Stager) chargeTenantLocked(ts *tenantState, delta int) {
	if ts == nil {
		return
	}
	ts.used += delta
	ts.level.Set(ts.used)
}

// Err reports a runtime failure (an unwritable or unreadable spill block, a
// relayed block the reduction operator could not encode). After a failure
// the stager keeps forwarding what it can so streams still terminate — a
// block that failed to encode goes out unreduced — but after a spill
// failure relayed data may be missing: callers must treat the run as lost.
func (s *Stager) Err(c rt.Ctx) error {
	s.lk.Lock(c)
	defer s.lk.Unlock(c)
	return s.err
}

// Wait blocks until the receiver, forwarder, and spiller threads have
// exited — the Retire arrived and all relayed data was delivered — and then
// joins the heartbeat, which the drain (or a Kill) has already halted.
func (s *Stager) Wait(c rt.Ctx) {
	s.lk.Lock(c)
	for !(s.recvDone && s.forwardDone && s.spillDone) {
		s.done.Wait(c)
	}
	s.lk.Unlock(c)
	if s.beat != nil {
		s.beat.Join(c)
	}
}

// Drained reports, without blocking, whether every runtime thread has exited
// — that the Retire arrived and the flush completed.
// The elastic scaler polls it to learn when a retired endpoint's slot can be
// reused.
func (s *Stager) Drained(c rt.Ctx) bool {
	s.lk.Lock(c)
	defer s.lk.Unlock(c)
	return s.recvDone && s.forwardDone && s.spillDone
}

// Kill crashes the endpoint for fault injection, SIGKILL-style: the
// forwarder and spiller stop at their next batch boundary without flushing
// (an in-flight Send or overflow append completes — neither the network nor
// the log tears a batch), and the receiver switches to dead mode: it keeps
// draining the inbox so producers parked in Send never deadlock, hands
// everything that arrives to the journal as orphans, and exits only when the
// eviction path's Retire lands. Nothing is lost: the stopped queue still
// holds every block the crash strands — in memory or in the log — and the
// recovery reader replays it through the journal. Requires fault mode
// (Config.Journal).
func (s *Stager) Kill(c rt.Ctx) {
	if s.cfg.Journal == nil {
		panic("staging: Kill requires a crash journal (fault mode)")
	}
	s.lk.Lock(c)
	s.killed = true
	s.work.Broadcast()
	s.space.Broadcast()
	s.spillWork.Broadcast()
	s.done.Broadcast()
	if s.beat != nil {
		// A crash stops the beats silently: the lease lapses into eviction.
		s.beat.Halt(c)
	}
	s.lk.Unlock(c)
}

// Killed reports whether the endpoint was crashed via Kill — the liveness
// oracle the shutdown sweep consults to tell an undetected crash from a
// healthy member about to drain.
func (s *Stager) Killed(c rt.Ctx) bool {
	s.lk.Lock(c)
	defer s.lk.Unlock(c)
	return s.killed
}

// NeedsRetire reports whether the receiver thread is still draining the
// inbox — whether the eviction path must deliver a Retire before Wait can
// return. (Sending a Retire to an endpoint whose receiver already exited
// would park the sender on a window nobody drains.)
func (s *Stager) NeedsRetire(c rt.Ctx) bool {
	s.lk.Lock(c)
	defer s.lk.Unlock(c)
	return !s.recvDone
}

// maybeUnleaseLocked runs the clean-drain lease release: the last runtime
// thread to exit — and only on a genuine drain, never a crash — hands the
// lease back synchronously, so by the time Wait/Drained observe the
// endpoint as done the failure detector already knows the silence is
// planned, and halts the heartbeat there and then.
func (s *Stager) maybeUnleaseLocked(c rt.Ctx) {
	if !(s.recvDone && s.forwardDone && s.spillDone) || s.killed || s.unleased {
		return
	}
	s.unleased = true
	if s.cfg.Unlease != nil {
		s.cfg.Unlease()
	}
	if s.beat != nil {
		s.beat.Halt(c)
	}
}

// Stats returns a snapshot of the module's counters and buffer occupancy,
// taking none of the module's locks; it is final once Wait has returned. c is
// unused (pass nil if there is none) and stays for the callers that pass one.
func (s *Stager) Stats(c rt.Ctx) Stats {
	st := Stats{
		BlocksIn:        s.fl.In.Total(),
		BlocksForwarded: s.fl.Forwarded.Total(),
		BlocksSpilled:   s.fl.Spilled.Total(),
		SpilledBytes:    s.fl.SpilledBytes.Total(),
		MessagesIn:      s.fl.MessagesIn.Total(),
		MessagesOut:     s.fl.MessagesOut.Total(),
		BytesOnWire:     s.fl.WireBytes.Total(),
		BytesReduced:    s.fl.SavedBytes.Total(),
		MaxQueued:       s.fl.Queue.Max(),
		SpillBusy:       time.Duration(s.fl.SpillBusy.Total()),
		Finished:        time.Duration(s.finished.Load()),
	}
	if s.gate != nil {
		st.ReduceBursts = s.gate.Engagements()
	}
	st.Queued, st.Capacity = s.fl.Queue.Get()
	return st
}

func (s *Stager) setOccLocked(n int) {
	s.memBlocks = n
	s.fl.Queue.Set(n)
}

// receiverThread admits relayed mixed messages into the queue until the
// Retire arrives. Admission is whole-message: the
// receiver waits for buffer room for all of a message's blocks (unless the
// buffer is empty, so oversized batches still make progress), which keeps
// partially built slots out of the forwarder's and spiller's sight.
func (s *Stager) receiverThread(c rt.Ctx) {
	for {
		start := c.Now()
		m, ok := s.in.Recv(c)
		end := c.Now()
		s.lk.Lock(c)
		if !ok {
			break // inbox closed under us: treat as end of stream
		}
		if s.killed {
			// Dead mode: a crashed endpoint's inbox must keep draining —
			// producers parked in Send would deadlock otherwise — but
			// nothing is admitted. Everything that arrives before the
			// eviction path's Retire is handed to the journal as an orphan
			// for the recovery reader.
			s.lk.Unlock(c)
			if m.Retire {
				s.lk.Lock(c)
				break
			}
			s.cfg.Journal.AddOrphan(m)
			continue
		}
		if s.cfg.Recorder != nil && len(m.Blocks) > 0 {
			s.cfg.Recorder.Add(s.traceName("receiver"), "recv", start, end)
		}
		if m.Retire {
			// The pool retires this endpoint: the membership change already
			// quiesced, so this is the last message — stop admitting and let
			// the forwarder flush the queue and spill partition.
			break
		}
		if m.Fin {
			panic("staging: a Fin never rides the relay")
		}
		ts := s.tenantOf(m.From)
		// Admission is whole-message against both caps: the buffer — all of
		// it while the stager is absorbing, the pass-through depth while the
		// consumer keeps up, so a flood back-pressures its producers instead
		// of queueing here — and, multi-tenant, the sender's own quota. Each
		// cap yields when the relevant occupancy is zero so oversized batches
		// still make progress, and a tenant with nothing resident is never
		// blocked by another tenant's quota arithmetic.
		need := len(m.Blocks)
		for need > 0 && !s.killed {
			full := s.memBlocks > 0 && s.memBlocks+need > s.admitLimitLocked()
			overQuota := ts != nil && ts.quota > 0 && ts.used > 0 && ts.used+need > ts.quota
			if !full && !overQuota {
				break
			}
			s.held = 0
			if full && s.absorbing {
				// The spiller makes room for the held message (spillToLocked).
				s.held = need
				if s.memBlocks > s.spillToLocked() {
					s.spillWork.Signal()
				}
			}
			s.space.Wait(c)
		}
		s.held = 0
		if s.killed {
			// Crashed while waiting for buffer room: never admitted, so the
			// message is the recovery reader's, like everything dead mode
			// drains after it (fault mode is the only way killed can be set).
			s.lk.Unlock(c)
			s.cfg.Journal.AddOrphan(m)
			continue
		}
		// Queued: from here on a crash owes the message to the recovery
		// reader (fault mode). The list that carried the blocks is spent.
		s.queue = append(s.queue, s.slotLocked(m, ts))
		s.rec.PutSlice(m.Blocks)
		s.setOccLocked(s.memBlocks + need)
		if ts != nil && need > 0 {
			s.chargeTenantLocked(ts, need)
			ts.in.Add(int64(need))
		}
		s.fl.MessagesIn.Add(1)
		s.fl.In.Add(int64(need))
		s.work.Signal()
		if s.gate != nil {
			s.gate.Observe(s.memBlocks)
		}
		if s.memBlocks > s.spillToLocked() {
			s.spillWork.Signal()
		}
		s.lk.Unlock(c)
	}
	s.recvDone = true
	s.work.Broadcast()
	s.spillWork.Broadcast()
	s.maybeUnleaseLocked(c)
	s.done.Broadcast()
	s.lk.Unlock(c)
}

// slotLocked decomposes an admitted message into a slot, a forwarded one
// from the free list when there is one.
func (s *Stager) slotLocked(m rt.Message, ts *tenantState) *slot {
	var sl *slot
	if n := len(s.free); n > 0 {
		sl, s.free[n-1] = s.free[n-1], nil
		s.free = s.free[:n-1]
	} else {
		sl = new(slot)
	}
	sl.from, sl.dest, sl.disk = m.From, m.Dest, m.Disk
	for _, b := range m.Blocks {
		sl.blocks = append(sl.blocks, relayBlock{b: b, ten: ts})
	}
	return sl
}

// freeLocked takes back a slot the forwarder has taken everything from.
func (s *Stager) freeLocked(sl *slot) {
	clear(sl.blocks)
	*sl = slot{blocks: sl.blocks[:0]}
	s.free = append(s.free, sl)
}

// admitLimitLocked is how many resident blocks the receiver may admit up
// to: the whole buffer while the stager is absorbing, the pass-through depth
// otherwise.
func (s *Stager) admitLimitLocked() int {
	if s.absorbing {
		return s.cfg.BufferBlocks
	}
	return s.passDepth
}

// electLocked is the arbiter behind the stager's two pressure valves — how
// deep the receiver admits and whether the spiller may overflow — and it
// answers one question: is the consumer, or the disk, what the forwarder
// would be waiting for? The forwarder asks it each time it assembles a
// batch, about dest, the oldest queued destination.
//
// The state it reads is dest's receive credit right now. Credit means the
// consumer keeps up and the forwarder itself — or its re-reads of an on-log
// backlog at the head of the queue — is the slow stage. The stager is
// pass-through: the receiver admits only passDepth blocks and nothing more
// is spilled, because a deeper queue or a longer on-disk backlog would only
// put latency and re-reads in front of a consumer that is waiting for data;
// a flood back-pressures its producers instead.
//
// Zero credit means the forwarder is about to wait on the consumer. That
// wait is a state — parked on dest since parkedSince — which turnLocked can
// read while the Send is still inside the transport, so the verdict never
// depends on the Send coming back. An absorbing stager stays so until dest
// shows credit again.
func (s *Stager) electLocked(dest int, now time.Duration) {
	if s.tr.Credits(dest) > 0 {
		s.parkedOn, s.absorbing = -1, false
		return
	}
	if s.parkedOn != dest {
		s.parkedOn, s.parkedSince = dest, now
	}
	if s.turnLocked(now) > 0 {
		s.spillWork.Signal() // the spiller watches the clock while the forwarder is away
	}
}

// turnLocked decides whether the forwarder's wait on a full window turns a
// pass-through stager absorbing, and reports how long is left when the
// answer is not yet. Both sides of the comparison are waits on that window:
// the last one that ended (lastPark) and the one running now.
//
// A consumer that is merely the marginally slowest stage of a flood fills
// its window all the time, yet evicting blocks to a store slower than that
// consumer would gate the forwarder on its own re-reads (measured: the flood
// ran 2–4 times longer, or not, run by run). So the turn is taken at once
// only if the last wait was as long as the store takes to write and re-read
// a batch (storeLocked) — the consumer is the slower of the two. Otherwise it
// is refused, but only for as long as the store would need for the whole
// buffer: once the running wait has cost that much, the consumer has not
// slowed down, it has stopped, and a wrong turn can no longer cost more than
// the waiting already did. A store that has never been timed takes no time,
// so unknown means absorb — which is also what a forwarder that never comes
// back from its first full window gets.
func (s *Stager) turnLocked(now time.Duration) (left time.Duration) {
	if s.absorbing || s.parkedOn < 0 {
		return 0
	}
	if s.lastPark < s.storeLocked(s.cfg.MaxBatchBlocks) {
		if left = s.parkedSince + s.storeLocked(s.cfg.BufferBlocks) - now; left > 0 {
			return left
		}
	}
	s.absorbing = true
	s.space.Broadcast() // a receiver held at the pass-through depth may go on
	if s.memBlocks > s.spillToLocked() {
		s.spillWork.Signal()
	}
	return 0
}

// unparkLocked ends the forwarder's wait on dest's window: its Send is back.
func (s *Stager) unparkLocked(dest int, now time.Duration) {
	if s.parkedOn == dest {
		s.parkedOn, s.lastPark = -1, now-s.parkedSince
	}
}

// storeLocked is how long the spill store has so far taken to write and read
// back n blocks; 0 before anything was spilled.
func (s *Stager) storeLocked(n int) time.Duration {
	spilled := s.fl.Spilled.Total()
	if spilled == 0 {
		return 0
	}
	return time.Duration(s.fl.SpillBusy.Total()) * time.Duration(n) / time.Duration(spilled)
}

// spillFromLocked is the occupancy above which an absorbing stager
// overflows: the spill threshold — except for the first overflow of a stager
// whose forwarder has come back from a full window (the consumer is alive),
// which is taken at half of it. That overflow is what times the store, and
// until it exists every full window is a reason to absorb; a flood then
// fills the buffer to the threshold within a millisecond of starting, on
// every stager of the tier at once, only to learn that the store was too
// slow to be worth it (measured on the fault-on flood: peak resident set
// 25.6 MB at the full threshold, 20 MB at half). A stager whose forwarder has
// never come back keeps the whole threshold: there the buffer is what is
// wanted.
func (s *Stager) spillFromLocked() int {
	if s.lastPark > 0 && s.fl.Spilled.Total() == 0 {
		return (s.spillAt + 1) / 2
	}
	return s.spillAt
}

// spillToLocked is the occupancy an absorbing stager overflows down to:
// spillFromLocked, or lower while a held message would not fit above it —
// otherwise a stopped consumer wedges the stager below its threshold.
func (s *Stager) spillToLocked() int {
	return min(s.spillFromLocked(), s.cfg.BufferBlocks-s.held)
}

// assembleLocked removes the next outgoing batch from the head of the
// queue into taken, the forwarder's scratch: blocks for a single
// destination, up to MaxBatchBlocks, merging consecutive slots (re-batching)
// and stopping once a block still being spilled is reached. The entries are
// copied out, so a slot emptied here goes back to the free list at once.
// Returns ok=false when nothing is consumable right now (head block
// mid-spill).
//
// A merged message can carry blocks from several producers — blocks
// self-identify through their IDs, so the outgoing From is informational:
// it names the first merged producer.
//
// On a multi-tenant stager the batch does not have to start at the head:
// one tenant's slow consumer must not stall every other tenant's traffic
// behind it. The batch starts at the earliest run whose destination can
// accept a message right now — per-destination FIFO order is preserved
// because a destination's earliest slot is always its first in the queue.
// With no credit anywhere the head run is taken and the send blocks: that
// is the natural backpressure. Single-tenant stagers keep strict FIFO so the
// private-tier forwarding order is untouched.
func (s *Stager) assembleLocked(now time.Duration, taken []relayBlock) (_ []relayBlock, disk []rt.DiskRef, from, dest int, ok bool) {
	// The oldest queued destination is the one the arbiter watches: on a
	// multi-tenant stager the batch may skip past it, but only because it
	// has no credit — the head is then waiting on that window while other
	// tenants' batches go out, and only a Send to it ends the wait.
	s.electLocked(s.queue[0].dest, now)
	start := 0
	if s.cfg.Tenants > 1 {
		for i, sl := range s.queue {
			if s.tr.Credits(sl.dest) > 0 {
				start = i
				break
			}
		}
	}
	head := s.queue[start]
	from, dest = head.from, head.dest
	freed := 0
	end := start
	for end < len(s.queue) {
		sl := s.queue[end]
		if sl.dest != dest {
			break
		}
		blocked := false
		for ; sl.head < len(sl.blocks); sl.head++ {
			rb := &sl.blocks[sl.head]
			if rb.spilling || len(taken) >= s.cfg.MaxBatchBlocks {
				blocked = true
				break
			}
			taken = append(taken, *rb)
			if !rb.spilled {
				freed++
				s.chargeTenantLocked(rb.ten, -1)
			}
		}
		if blocked {
			break
		}
		// Slot fully consumed: its disk refs travel with (or after) its last
		// block, never before.
		disk = append(disk, sl.disk...)
		end++
	}
	if end > start {
		for _, sl := range s.queue[start:end] {
			s.freeLocked(sl)
		}
		s.queue = append(s.queue[:start], s.queue[end:]...)
	}
	if freed > 0 {
		s.setOccLocked(s.memBlocks - freed)
		s.space.Broadcast()
	}
	ok = len(taken) > 0 || len(disk) > 0
	return taken, disk, from, dest, ok
}

// forwarderThread drains the queue head, re-reads any spilled blocks, and
// sends re-batched mixed messages to the destination consumers.
func (s *Stager) forwarderThread(c rt.Ctx) {
	var taken []relayBlock // the batch's entries, copied out of the queue
	for {
		s.lk.Lock(c)
		var disk []rt.DiskRef
		var from, dest int
		var ok bool
		for {
			if s.killed {
				// Crashed: abandon the queue without flushing — it is what
				// the recovery reader replays.
				s.forwardDone = true
				s.finished.Store(int64(c.Now()))
				s.done.Broadcast()
				s.lk.Unlock(c)
				return
			}
			if len(s.queue) > 0 {
				taken, disk, from, dest, ok = s.assembleLocked(c.Now(), taken[:0])
				if ok {
					break
				}
			} else if s.recvDone {
				if j := s.cfg.Journal; j != nil {
					// Everything was delivered: retire the log's segment
					// files before Wait can observe the drain.
					j.log.Close(c)
				}
				s.forwardDone = true
				s.finished.Store(int64(c.Now()))
				s.maybeUnleaseLocked(c)
				s.done.Broadcast()
				s.lk.Unlock(c)
				return
			}
			s.work.Wait(c)
		}
		encodeNow := s.gate != nil && s.gate.Observe(s.memBlocks)
		s.lk.Unlock(c)

		blocks := s.rec.Slice()
		var unspillBusy time.Duration
		var unspillErr error
		var lost int64
		for i := range taken {
			rb := &taken[i]
			if !rb.spilled {
				blocks = append(blocks, rb.b)
				continue
			}
			start := c.Now()
			err := s.unspill(c, rb)
			unspillBusy += c.Now() - start
			if err != nil {
				unspillErr = fmt.Errorf("staging: re-reading spilled block %v: %w", rb.b.ID, err)
				// Forward the rest, declaring the drop: the consumer counts
				// Lost against the Fins' declared totals, so the stream
				// still terminates (the data is gone either way — Err marks
				// the run lost).
				lost++
				continue
			}
			blocks = append(blocks, rb.b)
		}
		if s.cfg.Recorder != nil && unspillBusy > 0 {
			s.cfg.Recorder.Add(s.traceName("forwarder"), "unspill", c.Now()-unspillBusy, c.Now())
		}
		var encodeErr error
		if encodeNow && s.fwdEnc != nil {
			// Compress-instead-of-spill rung: occupancy is past the old spill
			// threshold, so burn forwarder CPU shrinking what goes on the wire
			// before the raised PFS rung engages. Blocks that arrived already
			// encoded pass through untouched, and so does one the operator
			// fails on: it is forwarded unreduced and Err reports the failure.
			if pp := s.cfg.Pipeline; pp != nil {
				for _, b := range blocks {
					if b.Enc == 0 {
						s.env.CopyDelay(c, b.Bytes)
					}
				}
				encodeErr = pp.EncodeBatch(blocks)
			} else {
				for _, b := range blocks {
					if b.Enc != 0 {
						continue
					}
					s.env.CopyDelay(c, b.Bytes)
					if err := s.fwdEnc.EncodeBlock(b); err != nil && encodeErr == nil {
						encodeErr = err
					}
				}
			}
			if encodeErr != nil {
				encodeErr = fmt.Errorf("staging: reducing relayed batch: %w", encodeErr)
			}
		}
		var rawBytes, wireBytes int64
		for _, b := range blocks {
			rawBytes += b.Bytes
			wireBytes += b.WireBytes()
		}

		start := c.Now()
		s.tr.Send(c, dest, rt.Message{From: from, Dest: dest, Blocks: blocks, Disk: disk, Lost: lost})
		now := c.Now()
		if s.cfg.Recorder != nil && len(blocks) > 0 {
			s.cfg.Recorder.Add(s.traceName("forwarder"), "forward", start, now)
		}

		if j := s.cfg.Journal; j != nil {
			// The batch is the consumer's now: release the log space of the
			// blocks it re-read (lost ones were declared in the message).
			for _, rb := range taken {
				if rb.spilled {
					j.log.Release(c, rb.ref)
				}
			}
		}

		s.lk.Lock(c)
		s.unparkLocked(dest, now)
		s.fl.SpillBusy.Add(int64(unspillBusy))
		s.fl.MessagesOut.Add(1)
		s.fl.Forwarded.Add(int64(len(blocks)))
		s.fl.WireBytes.Add(wireBytes)
		if saved := rawBytes - wireBytes; saved > 0 {
			s.fl.SavedBytes.Add(saved)
		}
		if s.err == nil {
			s.err = unspillErr
		}
		if s.err == nil {
			s.err = encodeErr
		}
		s.lk.Unlock(c)
	}
}

// unspill brings a spilled block's payload back into the header the entry
// kept, which still says everything else about the block — in particular
// that it did not arrive through the file system. In fault mode it is a
// checksum-verified read from the segment log, whose space the caller
// releases once the block has been sent. Without a journal the payload
// comes from the block's spill file, which is reclaimed; the store reads it
// into a header of its own, which is dropped.
func (s *Stager) unspill(c rt.Ctx, rb *relayBlock) error {
	if j := s.cfg.Journal; j != nil {
		return j.log.Read(c, rb.ref, rb.b)
	}
	b, err := s.fs.ReadBlock(c, rb.b.ID, rb.b.WireBytes())
	if err != nil {
		return err
	}
	_ = s.fs.RemoveBlock(c, rb.b.ID)
	rb.b.Data = b.Data
	return nil
}

// spillerThread overflows the newest in-memory blocks to the spill store
// while the stager is absorbing and occupancy is above the spill threshold —
// and, while the forwarder waits on a full window, keeps the time that turns
// the stager absorbing (turnLocked): the queue head keeps streaming from memory while the tail
// — the data the consumer will want last — rides out the burst on the
// parallel file system. A plain stager writes one spill file per victim; a
// journaling one moves up to MaxBatchBlocks victims to its segment log with
// a single append — the only payloads that log ever takes. A failed spill
// disables the thread: the victims stay in memory (and queued), and the
// buffer simply stops absorbing past its capacity.
func (s *Stager) spillerThread(c rt.Ctx) {
	batch := 1
	if s.cfg.Journal != nil {
		batch = s.cfg.MaxBatchBlocks
	}
	var victims []*relayBlock
	var blocks []*block.Block // the log append's arguments (fault mode)
	var refs []rt.LogRef
	for {
		s.lk.Lock(c)
		victims = victims[:0]
		for {
			if s.killed {
				s.spillDone = true
				s.done.Broadcast()
				s.lk.Unlock(c)
				return
			}
			left := s.turnLocked(c.Now())
			if s.absorbing {
				victims = s.takeVictimsLocked(victims, min(batch, s.memBlocks-s.spillToLocked()))
			}
			if len(victims) > 0 {
				break
			}
			if s.recvDone {
				s.spillDone = true
				s.maybeUnleaseLocked(c)
				s.done.Broadcast()
				s.lk.Unlock(c)
				return
			}
			if left > 0 {
				// The forwarder is inside a Send and the receiver may be
				// held at the pass-through depth: nothing else would wake
				// the stager when the wait comes of age. A Retire or a
				// Kill still ends the wait at once (both broadcast).
				s.spillWork.WaitFor(c, left)
				continue
			}
			s.spillWork.Wait(c)
		}
		s.lk.Unlock(c)

		var err error
		if s.spillEnc != nil {
			// Even once the raised rung engages, shrink the spill I/O
			// itself: the victims ride to the PFS (and later back and onto
			// the wire) encoded.
			for _, v := range victims {
				if v.b.Enc != 0 || err != nil {
					continue
				}
				s.env.CopyDelay(c, v.b.Bytes)
				if encErr := s.spillEnc.EncodeBlock(v.b); encErr != nil {
					err = fmt.Errorf("reducing the spill victim: %w", encErr)
				}
			}
		}
		var busy time.Duration
		if err == nil {
			start := c.Now()
			if j := s.cfg.Journal; j != nil {
				blocks = blocks[:0]
				for _, v := range victims {
					blocks = append(blocks, v.b)
				}
				refs = slices.Grow(refs[:0], len(victims))[:len(victims)]
				err = j.log.Append(c, blocks, refs)
				clear(blocks) // the scratch must not keep payloads alive
			} else {
				err = s.fs.WriteBlock(c, victims[0].b)
			}
			busy = c.Now() - start
			if s.cfg.Recorder != nil {
				s.cfg.Recorder.Add(s.traceName("spiller"), "spill", start, start+busy)
			}
		}

		s.lk.Lock(c)
		s.fl.SpillBusy.Add(int64(busy))
		for _, v := range victims {
			v.spilling = false
		}
		if err != nil {
			if s.err == nil {
				s.err = fmt.Errorf("staging: spilling block %v: %w", victims[0].b.ID, err)
			}
			s.spillDone = true
			s.work.Broadcast()
			s.maybeUnleaseLocked(c)
			s.done.Broadcast()
			s.lk.Unlock(c)
			return
		}
		for i, v := range victims {
			if s.cfg.Journal != nil {
				v.ref = refs[i]
			}
			s.fl.SpilledBytes.Add(v.b.WireBytes())
			v.b.Release() // recycle the payload: the spill copy is authoritative now
			v.spilled = true
			if v.ten != nil {
				// The spill moves the block off the tenant's resident account —
				// the spill-heavy tenant pays the PFS detour, and its spilled
				// meter is the signal the control plane's preemption rule reads.
				s.chargeTenantLocked(v.ten, -1)
				v.ten.spilled.Add(1)
			}
		}
		s.fl.Spilled.Add(int64(len(victims)))
		s.setOccLocked(s.memBlocks - len(victims))
		s.space.Broadcast()
		s.work.Broadcast() // a forwarder parked on a mid-spill head can move again
		s.lk.Unlock(c)
	}
}

// takeVictimsLocked marks up to n of the newest resident blocks as being
// spilled and appends them to victims, oldest first (the order they are
// wanted back in).
func (s *Stager) takeVictimsLocked(victims []*relayBlock, n int) []*relayBlock {
	for len(victims) < n {
		v := s.newestResidentLocked()
		if v == nil {
			break
		}
		v.spilling = true
		victims = append(victims, v)
	}
	slices.Reverse(victims)
	return victims
}

// newestResidentLocked finds the youngest in-memory block — the one whose
// turn to be forwarded is farthest away. On a multi-tenant stager the scan
// first targets the tenant holding the largest fraction of its quota, so
// the spill cost of a shared burst lands on the account that caused it; if
// that tenant has no spillable block the global newest is taken as before.
func (s *Stager) newestResidentLocked() *relayBlock {
	if ts := s.pressuredTenantLocked(); ts != nil {
		for i := len(s.queue) - 1; i >= 0; i-- {
			sl := s.queue[i]
			for j := len(sl.blocks) - 1; j >= sl.head; j-- {
				rb := &sl.blocks[j]
				if rb.ten == ts && !rb.spilled && !rb.spilling {
					return rb
				}
			}
		}
	}
	for i := len(s.queue) - 1; i >= 0; i-- {
		sl := s.queue[i]
		for j := len(sl.blocks) - 1; j >= sl.head; j-- {
			rb := &sl.blocks[j]
			if !rb.spilled && !rb.spilling {
				return rb
			}
		}
	}
	return nil
}

// pressuredTenantLocked returns the tenant with the highest resident
// occupancy relative to its admission quota (ties to the lower tenant id),
// or nil on a single-tenant stager or when nothing is resident.
func (s *Stager) pressuredTenantLocked() *tenantState {
	var best *tenantState
	var bestFrac float64
	for _, ts := range s.ten {
		if ts.used == 0 {
			continue
		}
		capacity := ts.quota
		if capacity <= 0 {
			capacity = s.cfg.BufferBlocks
		}
		frac := float64(ts.used) / float64(capacity)
		if best == nil || frac > bestFrac {
			best, bestFrac = ts, frac
		}
	}
	return best
}
