// Package staging implements the in-transit tier of the Zipper runtime: a
// Stager is a dedicated runtime endpoint that sits between producers and
// consumers as a third channel, next to the low-latency direct message path
// and the work-stealing file-system path.
//
// A producer whose routing policy elects the relay addresses its mixed
// message to the stager's transport endpoint and sets Message.Dest to the
// consumer the data is for. The stager absorbs the burst into a bounded
// in-memory buffer (its receiver thread), re-batches buffered blocks into
// larger mixed messages and forwards them to their destination consumers
// (its forwarder thread), and — past a high-water mark — overflows the
// newest buffered blocks to its own spill partition of the parallel file
// system (its spiller thread), reading them back in order once the consumer
// catches up. Consumers drain a stager exactly like a producer: relayed
// messages arrive in their ordinary inbox, so Preserve mode, disk-ref
// announcements, and Fin accounting work unchanged end to end.
//
// The stager preserves per-producer arrival order, so a Fin routed through
// the relay trails every block that producer relayed — the property the
// producer's sender thread relies on when it closes a staged stream.
//
// A stager normally terminates after counting its assigned producers' Fins.
// Behind a placement-plane directory (Config.Managed) — the elastic pool,
// or a fixed tier resolved per batch by a place.Policy — assignment is
// dynamic, so termination is by drain instead: the Retire control message —
// sent only after the membership change has quiesced, making it the last
// message the endpoint receives — stops admission, and the forwarder
// flushes the queue and the spill partition before the threads exit. The
// re-batching forwarder groups consecutive same-destination arrivals, so it
// composes with any consumer placement: interleaved destinations simply cut
// batches shorter, never reorder a producer's blocks.
//
// Like the core producer and consumer modules, the Stager is written against
// the rt platform interfaces and runs unchanged on the real machine
// (goroutines, TCP or in-process channels) and inside the discrete-event
// simulator (where the extra network hop is charged by the fabric model).
package staging

import (
	"errors"
	"fmt"
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
	// is the backpressure the hybrid routing policy reads via Occupancy.
	BufferBlocks int
	// HighWater is the spill threshold in blocks (default ¾ of
	// BufferBlocks): above it the spiller thread overflows the newest
	// buffered blocks to the spill store so the head of the queue keeps
	// flowing from memory.
	HighWater int
	// MaxBatchBlocks caps how many buffered blocks one forwarded mixed
	// message may carry (default 16). Re-batching inside the stager is the
	// second half of the tier's job: many small producer sends leave as few
	// large consumer deliveries.
	MaxBatchBlocks int
	// MaxBatchBytes caps a forwarded batch's payload bytes (0 = unlimited);
	// the head block is always taken so oversized blocks make progress.
	MaxBatchBytes int64
	// Producers is the number of upstream producers assigned to this stager
	// (its expected Fin count). Required (≥ 1) unless Managed is set.
	Producers int
	// Managed selects pool-managed termination for stagers behind a
	// placement-plane directory (the elastic pool, or a fixed tier resolved
	// per batch by a place.Policy): producer assignment is dynamic there, so
	// no Fin count is known up front. A managed stager admits messages until
	// it receives the Retire control message, then flushes its queue and
	// spill partition to the consumers and exits. Producers is ignored.
	Managed bool
	// Reduce selects in-transit payload reduction at this endpoint. Blocks
	// that arrive already encoded (producer-side reduction) pass through
	// untouched. With OnPressure set, the stager's pressure ladder gains a
	// middle rung: when occupancy crosses HighWater a flow.ReduceGate
	// engages and the forwarder reduction-encodes what it sends (and the
	// spiller what it spills, for stateless operators), while the PFS spill
	// rung is pushed up to halfway between HighWater and the buffer top —
	// bursts burn CPU before they burn PFS bandwidth. Without OnPressure
	// the stager encodes nothing itself (producer-side reduction is where
	// non-gated encoding lives).
	Reduce reduce.Config
	// Pipeline, when non-nil, fans the forwarder's gated encode out across
	// a shared worker pool instead of encoding inline on the forwarder
	// thread (Reduce.Workers != 0 selects it; zipper builds one pipeline
	// per job). Stateless operators only — and the spiller always encodes
	// its single victim inline, where a pool buys nothing. The pipeline
	// encodes in place and joins before the send, so forwarded batch order
	// and wire bytes are identical to inline.
	Pipeline *reduce.Pipeline
	// Recorder, when non-nil, captures the stager threads' activity spans.
	Recorder *trace.Recorder

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

	// Journal, when non-nil, makes the stager crash-durable: every admitted
	// message's blocks are written ahead — one append — to a segment log the
	// journal opens in the spill partition and journaled before they are
	// queued, metadata (disk refs, Fins) gets journal records carrying the
	// declared totals, and delivery drops the records and releases their
	// log space. The journal is owned by the embedder, one per stager
	// instance — it must survive the endpoint's death so the recovery
	// reader (Replay) can re-forward what the crash stranded. Requires
	// Managed and a spill store that hosts logs (rt.LogStore). Enables
	// Kill-based fault injection.
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
	if c.HighWater <= 0 {
		c.HighWater = c.BufferBlocks * 3 / 4
	}
	if c.HighWater >= c.BufferBlocks {
		c.HighWater = c.BufferBlocks - 1
	}
	if c.HighWater < 1 {
		c.HighWater = 1
	}
	if c.MaxBatchBlocks <= 0 {
		c.MaxBatchBlocks = 16
	}
	if c.MaxBatchBytes < 0 {
		c.MaxBatchBytes = 0
	}
	return c
}

// Stats is a snapshot of one stager endpoint's flow gauges: lifetime totals
// plus the live buffer occupancy and EWMA forwarding rate at snapshot time.
type Stats struct {
	BlocksIn        int64         // blocks received from producers
	BlocksForwarded int64         // blocks delivered to consumers
	BlocksSpilled   int64         // blocks that overflowed to the spill store
	SpilledBytes    int64         // payload bytes that overflowed to the spill store
	DiskRefs        int64         // producer disk-ref announcements relayed
	MessagesIn      int64         // mixed messages received
	MessagesOut     int64         // mixed messages forwarded (re-batched)
	BytesOnWire     int64         // payload bytes forwarded (encoded size when reduced)
	BytesReduced    int64         // payload bytes reduction kept off the wire (raw − encoded)
	ReduceBursts    int64         // times the compress-instead-of-spill gate engaged
	MaxQueued       int64         // peak in-memory buffer occupancy in blocks
	RecvBusy        time.Duration // receiver thread time in Recv
	ForwardBusy     time.Duration // forwarder thread time in Send
	SpillBusy       time.Duration // spiller time writing + forwarder time re-reading
	Finished        time.Duration // when the forwarder delivered the last batch

	// Live gauges at snapshot time.
	Queued      int     // blocks currently resident in the in-memory buffer
	Capacity    int     // the buffer's capacity in blocks
	ForwardRate float64 // blocks/s the forwarder is delivering (EWMA)
}

// relayBlock is one buffered block: resident in memory, being spilled, or
// spilled (b == nil) awaiting re-read by the forwarder — from the spill
// store, or in fault mode from the write-ahead log, where "spilling" only
// drops the in-memory payload. The enc/encBytes pair snapshots the block's
// reduction stamp at spill time so the forwarder's re-read can restore it
// on platforms whose store keeps no payload (the simulated PFS).
type relayBlock struct {
	b        *block.Block
	id       block.ID
	offset   int64
	bytes    int64
	enc      uint8
	encBytes int64
	spilling bool
	spilled  bool
	rec      *Record      // write-ahead journal entry (fault mode only)
	ten      *tenantState // tenant charged for the resident block (multi-tenant only)
}

// tenantState is one tenant's slice of a shared stager: the admission cap
// the control plane pushed, the blocks currently resident on the tenant's
// account, and the tenant-scoped gauges that keep one job's backlog out of
// another job's routing signals. quota/used mutate only under the stager
// lock; the gauges are lock-order leaves readable from any thread.
type tenantState struct {
	quota   int        // admission cap in resident blocks; 0 = uncapped
	used    int        // resident blocks charged to this tenant
	level   flow.Level // used vs quota (capacity falls back to BufferBlocks)
	in      flow.Meter // lifetime blocks admitted
	spilled flow.Meter // lifetime blocks spilled off this tenant's account
}

// slot is one received mixed message, decomposed and queued in arrival
// order. A slot leaves the queue only once fully forwarded, so its Fin and
// disk refs never overtake its blocks.
type slot struct {
	from, dest int
	blocks     []*relayBlock
	disk       []rt.DiskRef
	fin        bool
	// finBlocks/finDisk are the Fin's declared delivery totals, carried
	// through the relay so counted stream termination survives the hop.
	finBlocks, finDisk int64
	meta               *Record // journaled disk refs + Fin (fault mode only)
}

// Stager is one in-transit staging endpoint.
type Stager struct {
	env rt.Env
	cfg Config
	id  int
	in  rt.Inbox
	tr  rt.Transport
	fs  rt.BlockStore // spill partition; nil disables spilling

	// Compress-instead-of-spill rung (Config.Reduce with OnPressure):
	// gate flips under the stager lock as occupancy crosses its thresholds,
	// fwdEnc encodes forwarded blocks while the gate is engaged (owned by
	// the forwarder thread), spillEnc encodes spill victims for stateless
	// operators (owned by the spiller thread), and spillAt is the raised
	// spill threshold — reduction gets a chance to absorb the burst before
	// the PFS rung engages. Without OnPressure, spillAt == HighWater and
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

	queue       []*slot
	memBlocks   int // blocks resident in memory (mirrored in fl.Queue)
	finsGot     int
	recvDone    bool
	forwardDone bool
	spillDone   bool
	killed      bool // crashed via Kill; threads stop at their next boundary
	unleased    bool // clean-drain Unlease already ran
	err         error
	finished    time.Duration
	fl          flow.StagerFlows
	ten         []*tenantState // pre-sized per-tenant states; nil when single-tenant
}

// blockEncoder is what the forwarder thread needs of a reduce.Encoder (a test
// substitutes one that fails). A block EncodeBlock returns an error for must
// be left as it was, so it can still be forwarded unreduced.
type blockEncoder interface {
	EncodeBlock(b *block.Block) error
	Stateless() bool
}

// NewStager builds the runtime module for stager endpoint id, draining `in`
// and forwarding over `tr` to consumer endpoints, spilling overflow through
// fs (nil disables the spill path), and starts its receiver, forwarder, and
// spiller threads.
func NewStager(env rt.Env, cfg Config, id int, in rt.Inbox, tr rt.Transport, fs rt.BlockStore) *Stager {
	cfg = cfg.withDefaults()
	if !cfg.Managed && cfg.Producers < 1 {
		panic("staging: stager needs at least one producer")
	}
	if cfg.Journal != nil {
		if !cfg.Managed || fs == nil {
			panic("staging: a crash journal requires a managed stager with a spill store")
		}
		cfg.Journal.open(fs)
	}
	s := &Stager{env: env, cfg: cfg, id: id, in: in, tr: tr, fs: fs}
	s.spillAt = cfg.HighWater
	if cfg.Reduce.Enabled() && cfg.Reduce.OnPressure {
		s.gate = flow.NewReduceGate(cfg.HighWater)
		s.fwdEnc = reduce.NewEncoder(cfg.Reduce)
		if cfg.Reduce.Operator.Stateless() {
			s.spillEnc = reduce.NewEncoder(cfg.Reduce)
		}
		// Give reduction headroom to absorb the burst before the PFS rung:
		// spill only from halfway between the old threshold and the top.
		s.spillAt = cfg.HighWater + (cfg.BufferBlocks-cfg.HighWater)/2
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
	if fs != nil {
		env.Go(fmt.Sprintf("zstage.%d.spiller", id), s.spillerThread)
	} else {
		s.spillDone = true
	}
	if cfg.Heartbeat != nil && cfg.HeartbeatInterval > 0 {
		env.Go(fmt.Sprintf("zstage.%d.heartbeat", id), s.heartbeatThread)
	}
	return s
}

// ID returns the stager endpoint id.
func (s *Stager) ID() int { return s.id }

func (s *Stager) traceName(thread string) string {
	return fmt.Sprintf("zstage.%d.%s", s.id, thread)
}

// Occupancy reports the live in-memory buffer fill (blocks) and its
// capacity. It is safe to call from any thread without the stager lock —
// producers poll it on every routing decision.
func (s *Stager) Occupancy() (queued, capacity int) {
	return s.fl.Queue.Get()
}

// Level exposes the buffer-occupancy gauge itself so the flow-control plane
// can read both the instantaneous fill and its time-weighted average. This
// is what core.Config.StagerLevel should return.
func (s *Stager) Level() *flow.Level { return &s.fl.Queue }

// Flows exposes the module's live flow gauges.
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
func (s *Stager) chargeTenantLocked(now time.Duration, ts *tenantState, delta int) {
	if ts == nil {
		return
	}
	ts.used += delta
	ts.level.Set(now, ts.used)
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
// exited: every assigned producer sent its Fin (or, for a managed stager,
// the Retire arrived) and all relayed data was delivered.
func (s *Stager) Wait(c rt.Ctx) {
	s.lk.Lock(c)
	for !(s.recvDone && s.forwardDone && s.spillDone) {
		s.done.Wait(c)
	}
	s.lk.Unlock(c)
}

// Drained reports, without blocking, whether every runtime thread has exited
// — for a managed stager, that the Retire arrived and the flush completed.
// The elastic scaler polls it to learn when a retired endpoint's slot can be
// reused.
func (s *Stager) Drained(c rt.Ctx) bool {
	s.lk.Lock(c)
	defer s.lk.Unlock(c)
	return s.recvDone && s.forwardDone && s.spillDone
}

// Kill crashes the endpoint for fault injection, SIGKILL-style: the
// forwarder and spiller stop at their next batch boundary without flushing
// (an in-flight Send completes — the network never tears a message), and
// the receiver switches to dead mode: it keeps draining the inbox so
// producers parked in Send never deadlock, hands everything that arrives
// to the journal as orphans, and exits only when the eviction path's
// Retire lands. Nothing is lost: the write-ahead journal owns every block
// the crash strands, and the recovery reader replays it. Requires fault
// mode (Config.Journal).
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
// planned.
func (s *Stager) maybeUnleaseLocked() {
	if s.recvDone && s.forwardDone && s.spillDone && !s.killed && !s.unleased && s.cfg.Unlease != nil {
		s.unleased = true
		s.cfg.Unlease()
	}
}

// heartbeatThread renews the endpoint's lease every HeartbeatInterval. A
// crash stops the beats silently (the lease lapses and the failure
// detector evicts); a clean drain stops them after Unlease already ran.
func (s *Stager) heartbeatThread(c rt.Ctx) {
	for {
		c.Sleep(s.cfg.HeartbeatInterval)
		s.lk.Lock(c)
		killed := s.killed
		done := s.recvDone && s.forwardDone && s.spillDone
		s.lk.Unlock(c)
		if killed || done {
			return
		}
		s.cfg.Heartbeat(c)
	}
}

// snapshot assembles a stats snapshot with rates evaluated at `now`.
func (s *Stager) snapshot(now time.Duration, live bool) Stats {
	st := Stats{
		BlocksIn:        s.fl.In.Total(),
		BlocksForwarded: s.fl.Forwarded.Total(),
		BlocksSpilled:   s.fl.Spilled.Total(),
		SpilledBytes:    s.fl.SpilledBytes.Total(),
		DiskRefs:        s.fl.DiskRefs.Total(),
		MessagesIn:      s.fl.MessagesIn.Total(),
		MessagesOut:     s.fl.MessagesOut.Total(),
		BytesOnWire:     s.fl.WireBytes.Total(),
		BytesReduced:    s.fl.SavedBytes.Total(),
		MaxQueued:       s.fl.Queue.Max(),
		RecvBusy:        s.fl.RecvBusy.TotalDur(),
		ForwardBusy:     s.fl.ForwardBusy.TotalDur(),
		SpillBusy:       s.fl.SpillBusy.TotalDur(),
		Finished:        s.finished,
	}
	if s.gate != nil {
		st.ReduceBursts = s.gate.Engagements()
	}
	st.Queued, st.Capacity = s.fl.Queue.Get()
	if live {
		st.ForwardRate = s.fl.Forwarded.Rate(now)
	} else {
		st.ForwardRate = s.fl.Forwarded.LastRate()
	}
	return st
}

// Stats returns a snapshot of the module's flow gauges: totals plus the live
// buffer occupancy and forwarding rate as of the calling thread's clock.
// Call after Wait for final totals.
func (s *Stager) Stats(c rt.Ctx) Stats {
	s.lk.Lock(c)
	st := s.snapshot(c.Now(), true)
	s.lk.Unlock(c)
	return st
}

// FinalStats returns the counters without a platform clock. It is safe only
// once the platform has fully stopped; rates are reported as of each gauge's
// last event.
func (s *Stager) FinalStats() Stats { return s.snapshot(0, false) }

func (s *Stager) setOccLocked(now time.Duration, n int) {
	s.memBlocks = n
	s.fl.Queue.Set(now, n)
}

// receiverThread admits relayed mixed messages into the queue until every
// assigned producer has sent its Fin. Admission is whole-message: the
// receiver waits for buffer room for all of a message's blocks (unless the
// buffer is empty, so oversized batches still make progress), which keeps
// partially built slots out of the forwarder's and spiller's sight.
func (s *Stager) receiverThread(c rt.Ctx) {
	for {
		start := c.Now()
		m, ok := s.in.Recv(c)
		now := c.Now()
		busy := now - start
		s.lk.Lock(c)
		s.fl.RecvBusy.AddDur(now, busy)
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
			s.cfg.Recorder.Add(s.traceName("receiver"), "recv", start, start+busy)
		}
		if m.Retire {
			// The scaler retires this endpoint: the pool membership change
			// already quiesced, so this is the last message — stop admitting
			// and let the forwarder flush the queue and spill partition.
			break
		}
		ts := s.tenantOf(m.From)
		sl := &slot{from: m.From, dest: m.Dest, disk: m.Disk, fin: m.Fin,
			finBlocks: m.FinBlocks, finDisk: m.FinDisk}
		for _, b := range m.Blocks {
			sl.blocks = append(sl.blocks, &relayBlock{b: b, id: b.ID, offset: b.Offset,
				bytes: b.Bytes, enc: b.Enc, encBytes: b.EncBytes, ten: ts})
		}
		if s.cfg.Journal != nil {
			// Write ahead, outside the lock: the message is fully durable
			// (blocks in the segment log, metadata journaled) before it can
			// become visible to the forwarder.
			s.lk.Unlock(c)
			walStart := now
			now = s.walSlot(c, sl, m.Blocks)
			s.lk.Lock(c)
			s.fl.SpillBusy.AddDur(now, now-walStart)
			if s.killed {
				// The crash landed mid-journaling: the records already cover
				// this message, so admitting it too would replay duplicates.
				s.lk.Unlock(c)
				continue
			}
		}
		// Admission is whole-message against both caps: the shared buffer,
		// and — multi-tenant — the sender's own quota. Each cap yields when
		// the relevant occupancy is zero so oversized batches still make
		// progress, and a tenant with nothing resident is never blocked by
		// another tenant's quota arithmetic.
		need := len(m.Blocks)
		for need > 0 && !s.killed &&
			((s.memBlocks > 0 && s.memBlocks+need > s.cfg.BufferBlocks) ||
				(ts != nil && ts.quota > 0 && ts.used > 0 && ts.used+need > ts.quota)) {
			s.space.Wait(c)
			now = c.Now()
		}
		if s.killed {
			// Crashed while waiting for buffer room: the journal owns the
			// message now (fault mode is the only way killed can be set).
			s.lk.Unlock(c)
			continue
		}
		s.queue = append(s.queue, sl)
		s.setOccLocked(now, s.memBlocks+need)
		if ts != nil && need > 0 {
			s.chargeTenantLocked(now, ts, need)
			ts.in.Add(now, int64(need))
		}
		s.fl.MessagesIn.Add(now, 1)
		s.fl.In.Add(now, int64(need))
		s.fl.DiskRefs.Add(now, int64(len(m.Disk)))
		s.work.Signal()
		if s.gate != nil {
			s.gate.Observe(s.memBlocks)
		}
		if s.memBlocks > s.spillAt {
			s.spillWork.Signal()
		}
		if m.Fin && !s.cfg.Managed {
			s.finsGot++
			if s.finsGot == s.cfg.Producers {
				break
			}
		}
		s.lk.Unlock(c)
	}
	s.recvDone = true
	s.work.Broadcast()
	s.spillWork.Broadcast()
	s.maybeUnleaseLocked()
	s.done.Broadcast()
	s.lk.Unlock(c)
}

// walSlot writes one admitted message ahead: its blocks with a single log
// append plus a journal record each, and one meta record for disk refs and
// Fins. Runs without the stager lock (the append parks) and returns the
// clock once the message is durable.
func (s *Stager) walSlot(c rt.Ctx, sl *slot, blocks []*block.Block) time.Duration {
	if len(blocks) > 0 {
		recs := s.cfg.Journal.admitBlocks(c, sl.from, sl.dest, blocks)
		for i, rb := range sl.blocks {
			rb.rec = &recs[i]
		}
	}
	if len(sl.disk) > 0 || sl.fin {
		sl.meta = s.cfg.Journal.addMeta(sl.from, sl.dest, sl.disk, sl.fin, sl.finBlocks, sl.finDisk)
	}
	return c.Now()
}

// assembleLocked removes the next outgoing batch from the head of the
// queue: blocks for a single destination, up to MaxBatchBlocks /
// MaxBatchBytes, merging consecutive slots (re-batching) and stopping once
// a Fin is included or a block still being spilled is reached. The head
// block is always taken. Returns ok=false when nothing is consumable right
// now (head block mid-spill).
//
// A merged message can carry blocks from several producers — blocks
// self-identify through their IDs, so the outgoing From is informational:
// it names the Fin's producer when the message carries one (Fin attribution
// must stay exact) and the first merged producer otherwise.
//
// On a multi-tenant stager the batch does not have to start at the head:
// one tenant's slow consumer must not stall every other tenant's traffic
// behind it. When the transport reports receive credits, the batch starts
// at the earliest run whose destination can accept a message right now —
// per-destination FIFO order is preserved because a destination's earliest
// slot is always its first in the queue. With no credit anywhere (or no
// credit visibility) the head run is taken and the send blocks: that is
// the natural backpressure. Single-tenant stagers keep strict FIFO so the
// private-tier forwarding order is untouched.
func (s *Stager) assembleLocked(now time.Duration) (taken []*relayBlock, disk []rt.DiskRef, from, dest int, fin bool, finBlocks, finDisk int64, metas []*Record, ok bool) {
	start := 0
	if s.cfg.Tenants > 1 {
		if ct, hasCredit := s.tr.(rt.CreditTransport); hasCredit {
			for i, sl := range s.queue {
				if ct.Credits(sl.dest) > 0 {
					start = i
					break
				}
			}
		}
	}
	head := s.queue[start]
	from, dest = head.from, head.dest
	var bytes int64
	freed := 0
	end := start
	for end < len(s.queue) && !fin {
		sl := s.queue[end]
		if sl.dest != dest {
			break
		}
		blocked := false
		for len(sl.blocks) > 0 {
			rb := sl.blocks[0]
			if rb.spilling {
				blocked = true
				break
			}
			if len(taken) > 0 && (len(taken) >= s.cfg.MaxBatchBlocks ||
				(s.cfg.MaxBatchBytes > 0 && bytes+rb.bytes > s.cfg.MaxBatchBytes)) {
				blocked = true
				break
			}
			sl.blocks = sl.blocks[1:]
			taken = append(taken, rb)
			bytes += rb.bytes
			if !rb.spilled {
				freed++
				s.chargeTenantLocked(now, rb.ten, -1)
			}
		}
		if blocked {
			break
		}
		// Slot fully consumed: its disk refs and Fin travel with (or after)
		// its last block, never before.
		disk = append(disk, sl.disk...)
		if sl.meta != nil {
			metas = append(metas, sl.meta)
		}
		if sl.fin {
			fin = true
			from = sl.from
			finBlocks, finDisk = sl.finBlocks, sl.finDisk
		}
		end++
	}
	if end > start {
		s.queue = append(s.queue[:start], s.queue[end:]...)
	}
	if freed > 0 {
		s.setOccLocked(now, s.memBlocks-freed)
		s.space.Broadcast()
	}
	ok = len(taken) > 0 || len(disk) > 0 || fin
	return
}

// forwarderThread drains the queue head, re-reads any spilled blocks, and
// sends re-batched mixed messages to the destination consumers.
func (s *Stager) forwarderThread(c rt.Ctx) {
	for {
		s.lk.Lock(c)
		var taken []*relayBlock
		var disk []rt.DiskRef
		var from, dest int
		var fin, ok bool
		var finBlocks, finDisk int64
		var metas []*Record
		for {
			if s.killed {
				// Crashed: abandon the queue without flushing — the
				// write-ahead journal owns every stranded block and the
				// recovery reader replays it.
				s.forwardDone = true
				s.finished = c.Now()
				s.done.Broadcast()
				s.lk.Unlock(c)
				return
			}
			if len(s.queue) > 0 {
				taken, disk, from, dest, fin, finBlocks, finDisk, metas, ok = s.assembleLocked(c.Now())
				if ok {
					break
				}
			} else if s.recvDone {
				if s.cfg.Journal != nil {
					// Everything was delivered: retire the log's segment
					// files before Wait can observe the drain.
					s.cfg.Journal.close(c)
				}
				s.forwardDone = true
				s.finished = c.Now()
				s.maybeUnleaseLocked()
				s.done.Broadcast()
				s.lk.Unlock(c)
				return
			}
			s.work.Wait(c)
		}
		encodeNow := s.gate != nil && s.gate.Observe(s.memBlocks)
		s.lk.Unlock(c)

		blocks := make([]*block.Block, 0, len(taken))
		var unspillBusy time.Duration
		var unspillErr error
		var lost int64
		for _, rb := range taken {
			if !rb.spilled {
				blocks = append(blocks, rb.b)
				continue
			}
			start := c.Now()
			b, err := s.unspill(c, rb)
			unspillBusy += c.Now() - start
			if err != nil {
				unspillErr = fmt.Errorf("staging: re-reading spilled block %v: %w", rb.id, err)
				// Forward the rest, declaring the drop: the consumer counts
				// Lost against the Fins' declared totals, so the stream
				// still terminates (the data is gone either way — Err marks
				// the run lost).
				lost++
				continue
			}
			blocks = append(blocks, b)
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
			if pp := s.cfg.Pipeline; pp != nil && s.fwdEnc.Stateless() {
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
		s.tr.Send(c, dest, rt.Message{From: from, Dest: dest, Blocks: blocks, Disk: disk,
			Fin: fin, FinBlocks: finBlocks, FinDisk: finDisk, Lost: lost})
		now := c.Now()
		busy := now - start
		if s.cfg.Recorder != nil && len(blocks) > 0 {
			s.cfg.Recorder.Add(s.traceName("forwarder"), "forward", start, start+busy)
		}

		if s.cfg.Journal != nil {
			// Delivery retires the write-ahead records and releases their
			// log space (lost blocks were declared in the message).
			for _, rb := range taken {
				s.cfg.Journal.deliver(c, rb.rec)
			}
			for _, mr := range metas {
				s.cfg.Journal.deliver(c, mr)
			}
		}

		s.lk.Lock(c)
		s.fl.ForwardBusy.AddDur(now, busy)
		s.fl.SpillBusy.AddDur(now, unspillBusy)
		s.fl.MessagesOut.Add(now, 1)
		s.fl.Forwarded.Add(now, int64(len(blocks)))
		s.fl.WireBytes.Add(now, wireBytes)
		if saved := rawBytes - wireBytes; saved > 0 {
			s.fl.SavedBytes.Add(now, saved)
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

// unspill brings a spilled block back into memory. Without a journal the
// block comes from its spill file, which is reclaimed, and is handed on as a
// fresh in-memory block: the consumer must not mistake the stager's private
// spill copy for one that arrived through the file system. In fault mode
// the write-ahead log already holds it; the record stays until delivery.
func (s *Stager) unspill(c rt.Ctx, rb *relayBlock) (*block.Block, error) {
	if rb.rec != nil {
		return s.cfg.Journal.read(c, rb.rec)
	}
	readSize := rb.bytes
	if rb.enc != 0 {
		readSize = rb.encBytes
	}
	b, err := s.fs.ReadBlock(c, rb.id, readSize)
	if err != nil {
		return nil, err
	}
	_ = s.fs.RemoveBlock(c, rb.id)
	b.Offset = rb.offset
	b.OnDisk = false
	if rb.enc != 0 {
		// Restore the reduction stamp on platforms whose spill store keeps
		// no payload (realenv's file header already did this).
		b.Enc = rb.enc
		b.EncBytes = rb.encBytes
		b.Bytes = rb.bytes
	}
	return b, nil
}

// spillerThread overflows the newest in-memory blocks to the spill store
// while occupancy is above the high-water mark: the queue head keeps
// streaming from memory while the tail — the data the consumer will want
// last — rides out the burst on the parallel file system. A failed spill
// disables the thread (data stays in memory; the buffer simply stops
// absorbing past its capacity).
func (s *Stager) spillerThread(c rt.Ctx) {
	for {
		s.lk.Lock(c)
		var victim *relayBlock
		for victim == nil {
			if s.killed {
				s.spillDone = true
				s.done.Broadcast()
				s.lk.Unlock(c)
				return
			}
			if s.memBlocks > s.spillAt {
				victim = s.newestResidentLocked()
			}
			if victim != nil {
				break
			}
			if s.recvDone {
				s.spillDone = true
				s.maybeUnleaseLocked()
				s.done.Broadcast()
				s.lk.Unlock(c)
				return
			}
			s.spillWork.Wait(c)
		}
		victim.spilling = true
		s.lk.Unlock(c)

		// In fault mode the write-ahead copy made at admission already sits
		// in the segment log, so "spilling" is just dropping the in-memory
		// payload — unless that append had failed and memory holds the only
		// copy.
		var err error
		var busy time.Duration
		if s.cfg.Journal != nil {
			if !victim.rec.logged() {
				err = errors.New("the block has no write-ahead copy to fall back on")
			}
		} else {
			if s.spillEnc != nil && victim.b.Enc == 0 {
				// Even once the raised rung engages, shrink the spill I/O
				// itself: the victim rides to the PFS (and later back and
				// onto the wire) encoded. Stateless operators only — the
				// spiller takes blocks out of stream order.
				s.env.CopyDelay(c, victim.b.Bytes)
				if encErr := s.spillEnc.EncodeBlock(victim.b); encErr != nil {
					err = fmt.Errorf("reducing the spill victim: %w", encErr)
				}
			}
			if err == nil {
				start := c.Now()
				err = s.fs.WriteBlock(c, victim.b)
				busy = c.Now() - start
				if s.cfg.Recorder != nil {
					s.cfg.Recorder.Add(s.traceName("spiller"), "spill", start, start+busy)
				}
			}
		}

		s.lk.Lock(c)
		now := c.Now()
		s.fl.SpillBusy.AddDur(now, busy)
		victim.spilling = false
		if err != nil {
			if s.err == nil {
				s.err = fmt.Errorf("staging: spilling block %v: %w", victim.id, err)
			}
			s.spillDone = true
			s.work.Broadcast()
			s.maybeUnleaseLocked()
			s.done.Broadcast()
			s.lk.Unlock(c)
			return
		}
		victim.enc = victim.b.Enc
		victim.encBytes = victim.b.EncBytes
		spillBytes := victim.b.WireBytes()
		victim.b.Release() // recycle the payload: the spill copy is authoritative now
		victim.b = nil
		victim.spilled = true
		if victim.ten != nil {
			// The spill moves the block off the tenant's resident account —
			// the spill-heavy tenant pays the PFS detour, and its spilled
			// meter is the signal the control plane's preemption rule reads.
			s.chargeTenantLocked(now, victim.ten, -1)
			victim.ten.spilled.Add(now, 1)
		}
		s.fl.Spilled.Add(now, 1)
		s.fl.SpilledBytes.Add(now, spillBytes)
		s.setOccLocked(now, s.memBlocks-1)
		s.space.Broadcast()
		s.work.Broadcast() // a forwarder parked on a mid-spill head can move again
		s.lk.Unlock(c)
	}
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
			for j := len(sl.blocks) - 1; j >= 0; j-- {
				rb := sl.blocks[j]
				if rb.ten == ts && !rb.spilled && !rb.spilling {
					return rb
				}
			}
		}
	}
	for i := len(s.queue) - 1; i >= 0; i-- {
		sl := s.queue[i]
		for j := len(sl.blocks) - 1; j >= 0; j-- {
			rb := sl.blocks[j]
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
