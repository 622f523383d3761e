// Package workflow assembles and runs complete coupled
// simulation + analysis workflows on the simulated platform: it builds the
// machine (fabric + PFS), places producer/consumer/staging/storage ranks on
// nodes, models the simulation application's per-step kernels and halo
// exchanges, and drives either one of the baseline transport methods or the
// Zipper runtime end to end, returning the stage times, traces, and network
// counters the paper's figures report.
package workflow

import (
	"fmt"
	"time"

	"zipper/internal/core"
	"zipper/internal/elastic"
	"zipper/internal/fabric"
	"zipper/internal/fault"
	"zipper/internal/flow"
	"zipper/internal/mpi"
	"zipper/internal/pfs"
	"zipper/internal/place"
	"zipper/internal/rt"
	"zipper/internal/rt/simenv"
	"zipper/internal/sim"
	"zipper/internal/staging"
	"zipper/internal/trace"
	"zipper/internal/transport"
)

// Machine describes a target system (Bridges, Stampede2, or a test rig).
type Machine struct {
	Name                 string
	CoresPerNode         int
	LinkBandwidth        float64 // bytes/s per port
	LinkLatency          time.Duration
	NodesPerLeaf         int
	CoreOversubscription float64
	MTU                  int64
	OSTs                 int     // parallel file system object targets
	OSTBandwidth         float64 // bytes/s per OST
	PFSStripeSize        int64   // Lustre stripe size (0 = 1 MiB)
	PFSBackgroundLoad    float64 // share of PFS consumed by other users
	MemBandwidth         float64 // per-process staging-copy bandwidth
	CongestionPenalty    float64 // ingress congestion efficiency loss
}

// Workload describes the coupled application pair per producer rank.
type Workload struct {
	Name  string
	Steps int
	// StepTime is one rank's pure kernel time per step, split into the
	// collision/streaming/update phases by PhaseFrac.
	StepTime  time.Duration
	PhaseFrac [3]float64
	// HaloBytes is exchanged with each ring neighbor during streaming.
	HaloBytes int64
	// BytesPerStep is the data each producer rank outputs per step.
	BytesPerStep int64
	// AnalyzePerByte is the consumer's analysis cost per byte received.
	AnalyzePerByte time.Duration
	// BlockBytes is Zipper's fine-grain block size.
	BlockBytes int64
	// Skew, when non-empty, is a per-producer output multiplier for
	// RunZipper: rank i emits BytesPerStep·Skew[i] per step, the blocks
	// spread evenly across the unchanged kernel time, so Skew[i] scales
	// both the rank's output rate and its total volume. Missing or
	// non-positive entries mean 1. It models divergent producer rates (AMR
	// refinement, load imbalance) — the regime the load-aware placement
	// policies exist for.
	Skew []float64
}

// skew returns the rank's output multiplier.
func (w Workload) skew(rank int) float64 {
	if rank < len(w.Skew) && w.Skew[rank] > 0 {
		return w.Skew[rank]
	}
	return 1
}

// AnalysisPerConsumerStep is one consumer's busy time per step given its
// share of producers.
func (w Workload) AnalysisPerConsumerStep(p, q int) time.Duration {
	share := (p + q - 1) / q
	return time.Duration(share) * time.Duration(w.BytesPerStep) * w.AnalyzePerByte
}

// Spec is a complete experiment configuration.
type Spec struct {
	Machine  Machine
	Workload Workload
	// P and Q are the producer and consumer rank counts. Which consumer a
	// producer's output lands on is the Placement policy's decision: the
	// default rank-affine placement wires producer p permanently to
	// consumer p·Q/P, the load-aware policies re-resolve per batch.
	P, Q int
	// ProducerProcsPerNode / ConsumerProcsPerNode set placement density;
	// zero selects the machine's core count.
	ProducerProcsPerNode int
	ConsumerProcsPerNode int
	// StagingNodes is the node count reserved for staging servers / links.
	StagingNodes int
	// Zipper tunes the Zipper runtime (RunZipper only); Zipper.RoutePolicy
	// selects in-situ, in-transit, or hybrid routing when Stagers ≥ 1.
	Zipper core.Config
	// Stagers is the number of Zipper in-transit stager ranks (RunZipper
	// only). They are placed round-robin on the staging nodes, so a relayed
	// block crosses the fabric twice — the extra hop the wire model charges
	// in-transit configurations. With Elastic enabled it is the reserved
	// endpoint ceiling: endpoints (and their fabric placements on the
	// StagingNodes headroom) exist up front, but only the live pool runs.
	Stagers int
	// StagerBufferBlocks is each stager's in-memory buffer capacity.
	StagerBufferBlocks int
	// Elastic enables and tunes the staging-tier autoscaler (RunZipper
	// only): the pool starts at Elastic.MinStagers and the scaler grows and
	// drains stager ranks at runtime within the Stagers ceiling.
	Elastic elastic.Config
	// Placement selects the placement-plane policy (RunZipper only): how
	// producers resolve their consumer and stager endpoints per drained
	// batch. The zero value (rank-affine) reproduces the fixed assignments
	// of earlier revisions byte-identically; KindLeastOccupancy and
	// KindHashRing run the endpoints behind epoch-versioned directories
	// with counted stream termination.
	Placement place.Kind
	// Fault enables and tunes the survivable data plane (RunZipper only):
	// leases renewed by heartbeats on every pool-managed stager, write-ahead
	// journaling of admitted traffic, and the eviction/replay/respawn
	// monitor. With Fault.Enabled the staging tier always runs pool-managed,
	// even under rank-affine placement.
	Fault fault.Config
	// FaultKillEpoch, when > 0, arms the deterministic kill injector: the
	// first time the stager pool's membership epoch reaches it, the lowest
	// live member's stager is hard-killed (once per run). Under the
	// simulator's virtual clock the crash lands at a bit-for-bit
	// reproducible point in the run.
	FaultKillEpoch int
	// Window is Zipper's per-consumer receive window in messages.
	Window int
	// Trace enables span recording.
	Trace bool
	// Seed drives PFS background-load jitter.
	Seed int64
}

// StageTimes aggregates the pipeline-stage busy times across ranks
// (maximum over ranks, as the model's bottleneck analysis requires).
type StageTimes struct {
	Simulation time.Duration // producer kernel time
	Transfer   time.Duration // producer output/send busy time
	Store      time.Duration // file-system path busy time (spill + preserve)
	Analysis   time.Duration // consumer analysis busy time
}

// Result is one workflow execution's outcome.
type Result struct {
	Method string
	OK     bool
	Fail   string // crash reason when OK is false
	E2E    time.Duration
	Stages StageTimes
	// ProducerStall is the maximum time a producer spent blocked handing
	// data to the transport.
	ProducerStall time.Duration
	// SenderIdle is Zipper's sender-thread wait time (E2E - send busy),
	// reported for the Figure 14 stacked bars.
	SenderIdle time.Duration
	// ProducerWallClock is when the last producer finished handing off its
	// data (runtime threads drained) — the "simulation wall clock time" of
	// Figure 14.
	ProducerWallClock time.Duration
	// XmitWaitProducers sums the XmitWait counter over producer nodes.
	XmitWaitProducers int64
	// BlocksSent/BlocksRelayed/BlocksStolen/Messages aggregate Zipper
	// producer stats; Messages counts mixed messages (including Fins), so
	// Messages/BlocksSent measures how well batching amortizes the
	// per-message overhead. BlocksRelayed counts blocks that traveled the
	// in-transit staging tier.
	BlocksSent, BlocksRelayed, BlocksStolen, Messages int64
	// BytesOnWire totals the payload bytes every network traversal carried
	// (producer sends plus stager forwards — a relayed block crosses twice),
	// at encoded size when in-transit reduction was in effect, and
	// BytesReduced what reduction kept off those traversals. The simulator
	// charges the fabric the same reduced byte counts, so a reduced run's
	// E2E reflects the cheaper transfers.
	BytesOnWire, BytesReduced int64
	// StagerSpills counts blocks the staging tier overflowed to its spill
	// partitions; StagerMaxQueued is the deepest any stager's memory
	// buffer ran.
	StagerSpills, StagerMaxQueued int64
	// StagerRelayed is each stager instance's received-block total (spawn
	// order), and RelayImbalance their max/mean ratio — 1.0 means every
	// stager carried an equal share of the relay traffic, S means one
	// stager carried everything; zero when nothing was relayed. It is the
	// number the load-aware placement policies shrink when producer output
	// rates diverge.
	StagerRelayed  []int64
	RelayImbalance float64
	// ScaleEvents is the elastic scaler's action timeline (grow/drain), and
	// StagerNodeSeconds the summed provisioned lifetime of stager ranks in
	// virtual seconds — the resource cost a fixed pool pays as pool-size ×
	// run-length. Both are populated for fixed pools too (no events; each
	// stager billed to its finish time) so elastic and fixed runs compare on
	// one axis.
	ScaleEvents       []elastic.Event
	StagerNodeSeconds float64
	// BlocksAnalyzed is the consumers' delivered-block total — with no
	// losses it equals the producers' declared output, even across crashes.
	BlocksAnalyzed int64
	// Fault plane (zero/empty with Fault off): the failure detector's
	// eviction count, the blocks its recovery reader re-forwarded from dead
	// stagers' journals, the blocks the consumers saw declared
	// unrecoverable, and the eviction/recovery timeline.
	Evictions      int64
	ReplayedBlocks int64
	BlocksLost     int64
	FailoverEvents []fault.Event
	Rec            *trace.Recorder
}

// rig is a built machine instance.
type rig struct {
	eng       *sim.Engine
	fab       *fabric.Fabric
	fs        *pfs.PFS
	world     *mpi.World
	prodComm  *mpi.Comm
	consComm  *mpi.Comm
	prodNodes []fabric.NodeID
	consNodes []fabric.NodeID
	stageNode []fabric.NodeID
	rec       *trace.Recorder
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// build constructs the machine and communicators for a spec.
func build(spec Spec) *rig {
	m := spec.Machine
	ppn := spec.ProducerProcsPerNode
	if ppn <= 0 {
		ppn = m.CoresPerNode
	}
	cpn := spec.ConsumerProcsPerNode
	if cpn <= 0 {
		cpn = m.CoresPerNode
	}
	nProd := ceilDiv(spec.P, ppn)
	nCons := ceilDiv(spec.Q, cpn)
	nStage := spec.StagingNodes
	if nStage <= 0 {
		nStage = 1
	}
	osts := m.OSTs
	if osts <= 0 {
		osts = 4
	}
	total := nProd + nCons + nStage + osts + 1
	eng := sim.New()
	fab := fabric.New(eng, fabric.Config{
		Nodes:                total,
		NodesPerLeaf:         m.NodesPerLeaf,
		LinkBandwidth:        m.LinkBandwidth,
		LinkLatency:          m.LinkLatency,
		CoreOversubscription: m.CoreOversubscription,
		MTU:                  m.MTU,
		CongestionPenalty:    m.CongestionPenalty,
	})
	var ostNodes []fabric.NodeID
	for i := 0; i < osts; i++ {
		ostNodes = append(ostNodes, fabric.NodeID(nProd+nCons+nStage+i))
	}
	fs := pfs.New(eng, fab, pfs.Config{
		OSTNodes:       ostNodes,
		MDSNode:        fabric.NodeID(total - 1),
		OSTBandwidth:   m.OSTBandwidth,
		StripeSize:     m.PFSStripeSize,
		BackgroundLoad: m.PFSBackgroundLoad,
		Seed:           spec.Seed,
	})
	r := &rig{eng: eng, fab: fab, fs: fs}
	for p := 0; p < spec.P; p++ {
		r.prodNodes = append(r.prodNodes, fabric.NodeID(p/ppn))
	}
	for q := 0; q < spec.Q; q++ {
		r.consNodes = append(r.consNodes, fabric.NodeID(nProd+q/cpn))
	}
	for s := 0; s < nStage; s++ {
		r.stageNode = append(r.stageNode, fabric.NodeID(nProd+nCons+s))
	}
	r.world = mpi.NewWorld(eng, fab, mpi.Config{})
	r.prodComm = r.world.AddRanks(r.prodNodes)
	r.consComm = r.world.AddRanks(r.consNodes)
	if spec.Trace {
		r.rec = trace.NewRecorder()
	}
	return r
}

// phases returns the per-phase durations of one simulation step.
func phases(w Workload) [3]time.Duration {
	f := w.PhaseFrac
	if f[0]+f[1]+f[2] <= 0 {
		f = [3]float64{0.45, 0.35, 0.20} // CL/ST/UD split seen in Figure 6
	}
	var out [3]time.Duration
	for i := range out {
		out[i] = time.Duration(float64(w.StepTime) * f[i])
	}
	return out
}

// simStep models one time step of the producer application: collision
// kernel, streaming with ring halo exchanges, update kernel.
func simStep(r *mpi.Rank, w Workload, rec *trace.Recorder, step int) {
	p := r.Proc()
	ph := phases(w)
	name := fmt.Sprintf("sim.%d", r.Local())
	stepStart := p.Now()
	t0 := p.Now()
	p.Delay(ph[0])
	if rec != nil {
		rec.Add(name, "CL", t0, p.Now())
	}
	t1 := p.Now()
	if size := r.Comm().Size(); size > 1 && w.HaloBytes > 0 {
		right := (r.Local() + 1) % size
		left := (r.Local() + size - 1) % size
		sr := p.Now()
		r.Comm().Sendrecv(r, right, 100+step, w.HaloBytes, nil, left, 100+step)
		r.Comm().Sendrecv(r, left, 200+step, w.HaloBytes, nil, right, 200+step)
		if rec != nil {
			rec.Add(name, "MPI_Sendrecv", sr, p.Now())
		}
	}
	p.Delay(ph[1])
	if rec != nil {
		rec.Add(name, "ST", t1, p.Now())
	}
	t2 := p.Now()
	p.Delay(ph[2])
	if rec != nil {
		rec.Add(name, "UD", t2, p.Now())
		rec.Add(name, "step", stepStart, p.Now())
	}
}

// RunSimOnly measures the simulation application alone: the lower bound the
// paper plots in Figures 16 and 18.
func RunSimOnly(spec Spec) Result {
	r := build(spec)
	w := spec.Workload
	r.prodComm.Launch("sim", func(rank *mpi.Rank) {
		for s := 0; s < w.Steps; s++ {
			simStep(rank, w, r.rec, s)
		}
	})
	if err := r.eng.Run(); err != nil {
		return Result{Method: "Simulation-only", Fail: err.Error()}
	}
	return Result{
		Method: "Simulation-only",
		OK:     true,
		E2E:    r.eng.Now(),
		Stages: StageTimes{Simulation: time.Duration(w.Steps) * w.StepTime},
		Rec:    r.rec,
	}
}

// RunAnalysisOnly measures the analysis application alone (Figure 2's
// "analysis time" bar): every consumer busy-analyzes its share per step with
// data already in memory.
func RunAnalysisOnly(spec Spec) Result {
	r := build(spec)
	w := spec.Workload
	per := w.AnalysisPerConsumerStep(spec.P, spec.Q)
	r.consComm.Launch("ana", func(rank *mpi.Rank) {
		for s := 0; s < w.Steps; s++ {
			rank.Proc().Delay(per)
		}
	})
	if err := r.eng.Run(); err != nil {
		return Result{Method: "Analysis-only", Fail: err.Error()}
	}
	return Result{
		Method: "Analysis-only",
		OK:     true,
		E2E:    r.eng.Now(),
		Stages: StageTimes{Analysis: time.Duration(w.Steps) * per},
		Rec:    r.rec,
	}
}

// RunBaseline executes the workflow with one of the seven baseline coupling
// methods.
func RunBaseline(spec Spec, method transport.Method) Result {
	r := build(spec)
	w := spec.Workload
	pl := &transport.Platform{
		Eng: r.eng, Fab: r.fab, FS: r.fs, World: r.world,
		Prod: r.prodComm, Cons: r.consComm,
		ProdNodes: r.prodNodes, ConsNodes: r.consNodes, StagingNodes: r.stageNode,
		Rec: r.rec, P: spec.P, Q: spec.Q, Steps: w.Steps, BytesPerStep: w.BytesPerStep,
	}
	if err := method.Validate(pl); err != nil {
		return Result{Method: method.Name(), Fail: err.Error()}
	}
	method.Setup(pl)

	putBusy := make([]time.Duration, spec.P)
	anaBusy := make([]time.Duration, spec.Q)
	perStep := w.AnalysisPerConsumerStep(spec.P, spec.Q)

	r.prodComm.Launch("sim", func(rank *mpi.Rank) {
		wr := method.Writer(rank)
		for s := 0; s < w.Steps; s++ {
			simStep(rank, w, r.rec, s)
			t0 := rank.Proc().Now()
			wr.Put(s)
			putBusy[rank.Local()] += rank.Proc().Now() - t0
		}
		wr.Close()
	})
	r.consComm.Launch("ana", func(rank *mpi.Rank) {
		rd := method.Reader(rank)
		for s := 0; s < w.Steps; s++ {
			rd.Get(s)
			t0 := rank.Proc().Now()
			rank.Proc().Delay(perStep)
			anaBusy[rank.Local()] += rank.Proc().Now() - t0
			if r.rec != nil {
				r.rec.Add(fmt.Sprintf("ana.%d", rank.Local()), "analyze", t0, rank.Proc().Now())
			}
			rd.Done(s)
		}
		rd.Close()
	})
	if err := r.eng.Run(); err != nil {
		return Result{Method: method.Name(), Fail: err.Error()}
	}
	res := Result{
		Method: method.Name(),
		OK:     true,
		E2E:    r.eng.Now(),
		Stages: StageTimes{
			Simulation: time.Duration(w.Steps) * w.StepTime,
			Transfer:   maxDur(putBusy),
			Analysis:   maxDur(anaBusy),
		},
		ProducerStall:     maxDur(putBusy), // Put time is transfer + stall for baselines
		XmitWaitProducers: sumXmitWait(r),
		Rec:               r.rec,
	}
	return res
}

// RunZipper executes the workflow on the Zipper runtime.
func RunZipper(spec Spec) Result {
	r := build(spec)
	w := spec.Workload
	window := spec.Window
	if window <= 0 {
		window = 4
	}
	zcfg := spec.Zipper
	zcfg.Recorder = r.rec
	// The staging tier only exists when routing can reach it; with
	// RouteDirect the run is identical to a Stagers: 0 run. A stager with
	// no assigned producer would never see its Fins, so the tier never
	// outnumbers the producers.
	nStage := spec.Stagers
	if zcfg.RoutePolicy == core.RouteDirect {
		nStage = 0
	}
	if nStage > spec.P {
		nStage = spec.P
	}
	endpointNodes := append([]fabric.NodeID{}, r.consNodes...)
	for s := 0; s < nStage; s++ {
		endpointNodes = append(endpointNodes, r.stageNode[s%len(r.stageNode)])
	}
	net := simenv.NewNetwork(r.eng, r.fab, endpointNodes, window)
	store := simenv.NewStore(r.fs, "zipper")

	producers := make([]*core.Producer, spec.P)
	consumers := make([]*core.Consumer, spec.Q)
	var allStagers []*staging.Stager // every stager instance, for stats
	var scaler *elastic.Scaler
	var fixedPool *place.Directory // placement-directed fixed tier (no scaler)
	elasticOn := spec.Elastic.Enabled && nStage > 0
	placed := spec.Placement != place.KindRankAffine
	faultOn := spec.Fault.Enabled && nStage > 0
	var fcfg fault.Config
	if faultOn {
		fcfg = spec.Fault.WithDefaults()
	}
	// Pool-managed tier state shared by the fault plane: every spawned
	// instance with its journal, the pool the leases live in, and the spawn
	// hook the monitor respawns through. All of it is touched only under the
	// engine's one-process-at-a-time scheduling, so no locking is needed.
	var insts []*stagerInst
	var faultPool *place.Directory
	var spawnFn func(slot int) *staging.Stager
	var monitor *fault.Monitor
	for q := 0; q < spec.Q; q++ {
		n := 0
		for p := 0; p < spec.P; p++ {
			if p*spec.Q/spec.P == q {
				n++
			}
		}
		if placed {
			// A placement-resolved consumer can receive from any producer,
			// and every producer Fin-broadcasts to every consumer.
			n = spec.P
		}
		env := simenv.NewEnv(r.eng, r.consNodes[q], spec.Machine.MemBandwidth)
		consumers[q] = core.NewConsumer(env, zcfg, q, n, net.Inbox(q), store)
	}
	if placed {
		// The consumer directory: static membership, policy-driven
		// per-batch resolution fed by the consumer-buffer occupancy gauges.
		cdir := place.New(spec.Placement.New(), func(addr int) *flow.Level {
			return consumers[addr].Level()
		})
		for q := 0; q < spec.Q; q++ {
			cdir.Add(q)
		}
		zcfg.ConsumerDirectory = cdir
	}
	// mkManaged builds one pool-managed stager endpoint on a reserved slot,
	// wiring the fault plane (journal, heartbeat, lease, unlease) when it is
	// on. Both pool-managed tiers — elastic and fixed — spawn through it, so
	// the monitor's respawn path reuses the exact construction.
	mkManaged := func(slot int, slots []*staging.Stager, pool *place.Directory) *staging.Stager {
		env := simenv.NewEnv(r.eng, r.stageNode[slot%len(r.stageNode)], spec.Machine.MemBandwidth)
		scfg := staging.Config{
			BufferBlocks:   spec.StagerBufferBlocks,
			MaxBatchBlocks: zcfg.MaxBatchBlocks,
			MaxBatchBytes:  zcfg.MaxBatchBytes,
			Managed:        true,
			Reduce:         zcfg.Reduce,
			Recorder:       r.rec,
		}
		// A partition of the root store, so a respawned instance's
		// write-ahead log gets segment names of its own.
		spill := store.Partition(fmt.Sprintf("zipper-stage%d", slot))
		in := &stagerInst{slot: slot, spill: spill}
		if faultOn {
			// Each instance gets a fresh write-ahead journal — a respawned
			// slot must not replay its predecessor's records — and a liveness
			// lease renewed by its heartbeat thread; a clean drain releases
			// the lease synchronously, so only a crash ever lapses it.
			addr := spec.Q + slot
			in.journal = staging.NewJournal()
			scfg.Journal = in.journal
			scfg.HeartbeatInterval = fcfg.Heartbeat
			scfg.Heartbeat = func(c rt.Ctx) { pool.Beat(addr, c.Now()) }
			scfg.Unlease = func() { pool.Unlease(addr) }
			pool.Lease(addr, fcfg.LeaseTTL, r.eng.Now())
		}
		st := staging.NewStager(env, scfg, slot, net.Inbox(spec.Q+slot), net, spill)
		in.st = st
		slots[slot] = st
		allStagers = append(allStagers, st)
		insts = append(insts, in)
		return st
	}
	switch {
	case elasticOn:
		// Elastic staging tier: reserve the endpoint ceiling, spawn the
		// starting pool as managed stagers, and let the scaler grow and
		// drain ranks at runtime over the StagingNodes headroom. The pool
		// resolves through the placement policy.
		ecfg := spec.Elastic.WithDefaults(nStage)
		if faultOn {
			// Draining a member that may already be dead is unsound (its
			// Retire would never be consumed); fault mode trades mid-run
			// drains for crash safety.
			ecfg.DisableDrain = true
		}
		slots := make([]*staging.Stager, ecfg.MaxStagers)
		stagerLevel := func(addr int) *flow.Level {
			if st := slots[addr-spec.Q]; st != nil {
				return st.Level()
			}
			return nil
		}
		pool := place.New(spec.Placement.New(), stagerLevel)
		spawn := func(slot int) *staging.Stager { return mkManaged(slot, slots, pool) }
		faultPool, spawnFn = pool, spawn
		var initial []*flow.StagerFlows
		for s := 0; s < ecfg.MinStagers; s++ {
			st := spawn(s)
			pool.Add(spec.Q + s)
			initial = append(initial, st.Flows())
		}
		zcfg.Directory = pool
		zcfg.StagerLevel = stagerLevel
		scalerEnv := simenv.NewEnv(r.eng, r.stageNode[0], spec.Machine.MemBandwidth)
		scaler = elastic.NewScaler(scalerEnv, ecfg, pool,
			&simHost{spawn: spawn, slots: slots, net: net, base: spec.Q}, spec.Q, initial)
		scaler.Start()
	case (placed || faultOn) && nStage > 0:
		// Placement-directed (or fault-protected) fixed tier: the same
		// pool-managed endpoints as the elastic tier over a static
		// membership, no scaler. Producers resolve their stager per drained
		// batch through the placement policy; a janitor retires the
		// endpoints once the producers finish and counted termination
		// completes the consumers' streams from the flushed deliveries. The
		// fault plane needs this shape even under rank-affine placement: an
		// eviction is a membership epoch, and counted Fins are what let
		// replayed blocks land after their relay died.
		slots := make([]*staging.Stager, nStage)
		stagerLevel := func(addr int) *flow.Level {
			if st := slots[addr-spec.Q]; st != nil {
				return st.Level()
			}
			return nil
		}
		fixedPool = place.New(spec.Placement.New(), stagerLevel)
		for s := 0; s < nStage; s++ {
			mkManaged(s, slots, fixedPool)
			fixedPool.Add(spec.Q + s)
		}
		faultPool = fixedPool
		spawnFn = func(slot int) *staging.Stager { return mkManaged(slot, slots, fixedPool) }
		zcfg.Directory = fixedPool
		zcfg.StagerLevel = stagerLevel
	case nStage > 0:
		for s := 0; s < nStage; s++ {
			n := 0
			for p := 0; p < spec.P; p++ {
				if p%nStage == s {
					n++
				}
			}
			env := simenv.NewEnv(r.eng, r.stageNode[s%len(r.stageNode)], spec.Machine.MemBandwidth)
			scfg := staging.Config{
				BufferBlocks:   spec.StagerBufferBlocks,
				MaxBatchBlocks: zcfg.MaxBatchBlocks,
				MaxBatchBytes:  zcfg.MaxBatchBytes,
				Producers:      n,
				Reduce:         zcfg.Reduce,
				Recorder:       r.rec,
			}
			spill := simenv.NewStore(r.fs, fmt.Sprintf("zipper-stage%d", s))
			st := staging.NewStager(env, scfg, s, net.Inbox(spec.Q+s), net, spill)
			allStagers = append(allStagers, st)
		}
		fixed := allStagers
		zcfg.StagerLevel = func(addr int) *flow.Level {
			return fixed[addr-spec.Q].Level()
		}
	}
	for p := 0; p < spec.P; p++ {
		env := simenv.NewEnv(r.eng, r.prodNodes[p], spec.Machine.MemBandwidth)
		stager := core.NoStager
		if nStage > 0 && !elasticOn && !placed {
			stager = spec.Q + p%nStage
		}
		producers[p] = core.NewStagedProducer(env, zcfg, p, p*spec.Q/spec.P, stager, net, store)
	}
	if faultOn && faultPool != nil {
		// The failure detector: sweeps the lease table every heartbeat,
		// evicts lapsed members, and drives the fence → replay → respawn
		// recovery sequence through the simulated host.
		menv := simenv.NewEnv(r.eng, r.stageNode[0], spec.Machine.MemBandwidth)
		monitor = fault.NewMonitor(menv, fcfg, faultPool, &simFaultHost{
			insts: &insts, spawn: spawnFn, net: net, pool: faultPool, scaler: scaler, base: spec.Q,
		})
		monitor.Start()
	}
	prodsDone := false
	if faultOn && spec.FaultKillEpoch > 0 && faultPool != nil {
		// The deterministic kill injector: the first time the pool's
		// membership epoch reaches FaultKillEpoch, hard-kill the lowest live
		// member's stager. Clocked on virtual time, so the same spec crashes
		// at the same instant in every run.
		kenv := simenv.NewEnv(r.eng, r.stageNode[0], spec.Machine.MemBandwidth)
		kenv.Go("fault.injector", func(c rt.Ctx) {
			for !prodsDone {
				if faultPool.Epoch() >= int64(spec.FaultKillEpoch) {
					if members := faultPool.Members(); len(members) > 0 {
						slot := members[0] - spec.Q
						for i := len(insts) - 1; i >= 0; i-- {
							if insts[i].slot == slot {
								if st := insts[i].st; !st.Killed(c) && !st.Drained(c) {
									st.Kill(c)
								}
								break
							}
						}
					}
					return
				}
				c.Sleep(fcfg.Heartbeat)
			}
		})
	}
	if scaler != nil {
		// The janitor closes the loop's lifetime: once every producer has
		// handed off its data, no relay traffic can appear, so the failure
		// detector runs its final forced sweep (replays must land while the
		// consumers are still counting, and no respawn may interleave with
		// the shutdown), then the scaler stops and retires the remaining
		// pool — the flush completes the consumers' counted streams.
		jenv := simenv.NewEnv(r.eng, r.stageNode[0], spec.Machine.MemBandwidth)
		jenv.Go("elastic.janitor", func(c rt.Ctx) {
			for _, p := range producers {
				p.Wait(c)
			}
			prodsDone = true
			if monitor != nil {
				monitor.Stop(c)
			}
			scaler.Stop(c)
		})
	}
	if fixedPool != nil {
		// Same lifetime rule for the pool-managed fixed tier: stop the
		// failure detector, then retire every endpoint the elastic way (out
		// of the membership, quiesce in-flight claims, then the
		// provably-last Retire message) once the producers are done.
		jenv := simenv.NewEnv(r.eng, r.stageNode[0], spec.Machine.MemBandwidth)
		jenv.Go("place.janitor", func(c rt.Ctx) {
			for _, p := range producers {
				p.Wait(c)
			}
			prodsDone = true
			if monitor != nil {
				monitor.Stop(c)
			}
			fixedPool.RetireAll(c, func(addr int) {
				net.Send(c, addr, rt.Message{Retire: true})
			})
		})
	}

	blockBytes := w.BlockBytes
	if blockBytes <= 0 {
		blockBytes = 1 << 20
	}
	nBlocks := int(w.BytesPerStep / blockBytes)
	if nBlocks < 1 {
		nBlocks = 1
	}

	anaBusy := make([]time.Duration, spec.Q)
	r.prodComm.Launch("sim", func(rank *mpi.Rank) {
		env := simenv.NewEnv(r.eng, r.prodNodes[rank.Local()], spec.Machine.MemBandwidth)
		prod := producers[rank.Local()]
		p := rank.Proc()
		c := env.WrapProc(p)
		name := fmt.Sprintf("sim.%d", rank.Local())
		// Workload.Skew scales this rank's per-step output volume with the
		// kernel time unchanged: a skewed rank emits more blocks, faster.
		rankBlocks := int(float64(nBlocks) * w.skew(rank.Local()))
		if rankBlocks < 1 {
			rankBlocks = 1
		}
		perBlock := w.StepTime / time.Duration(rankBlocks)
		for s := 0; s < w.Steps; s++ {
			stepStart := p.Now()
			// Halo exchange at the step boundary, as in the baseline app.
			if size := rank.Comm().Size(); size > 1 && w.HaloBytes > 0 {
				right := (rank.Local() + 1) % size
				left := (rank.Local() + size - 1) % size
				sr := p.Now()
				rank.Comm().Sendrecv(rank, right, 100+s, w.HaloBytes, nil, left, 100+s)
				rank.Comm().Sendrecv(rank, left, 200+s, w.HaloBytes, nil, right, 200+s)
				if r.rec != nil {
					r.rec.Add(name, "MPI_Sendrecv", sr, p.Now())
				}
			}
			// Fine-grain pipelining: each block is handed to the runtime as
			// soon as it is computed, not in an end-of-step burst — this is
			// the data-availability-driven design of §4.1.
			computeStart := p.Now()
			for b := 0; b < rankBlocks; b++ {
				p.Delay(perBlock)
				prod.Write(c, s, int64(b)*blockBytes, nil, blockBytes)
			}
			if r.rec != nil {
				r.rec.Add(name, "compute", computeStart, p.Now())
				r.rec.Add(name, "step", stepStart, p.Now())
			}
		}
		prod.Close(c)
		prod.Wait(c)
	})
	r.consComm.Launch("ana", func(rank *mpi.Rank) {
		env := simenv.NewEnv(r.eng, r.consNodes[rank.Local()], spec.Machine.MemBandwidth)
		cons := consumers[rank.Local()]
		c := env.WrapProc(rank.Proc())
		for {
			blk, ok := cons.Read(c)
			if !ok {
				break
			}
			t0 := rank.Proc().Now()
			rank.Proc().Delay(time.Duration(blk.Bytes) * w.AnalyzePerByte)
			anaBusy[rank.Local()] += rank.Proc().Now() - t0
			if r.rec != nil {
				r.rec.Add(fmt.Sprintf("ana.%d", rank.Local()), "analyze", t0, rank.Proc().Now())
			}
		}
		cons.Wait(c)
	})
	if err := r.eng.Run(); err != nil {
		return Result{Method: "Zipper", Fail: err.Error()}
	}

	res := Result{
		Method: "Zipper",
		OK:     true,
		E2E:    r.eng.Now(),
		Rec:    r.rec,
	}
	var maxSend, maxStall, maxStore time.Duration
	for _, p := range producers {
		st := p.FinalStats()
		res.BlocksSent += st.BlocksSent
		res.BlocksRelayed += st.BlocksRelayed
		res.BlocksStolen += st.BlocksStolen
		res.Messages += st.Messages
		res.BytesOnWire += st.BytesOnWire
		res.BytesReduced += st.BytesReduced
		if st.SendBusy > maxSend {
			maxSend = st.SendBusy
		}
		if st.WriteStall > maxStall {
			maxStall = st.WriteStall
		}
		if st.StealBusy > maxStore {
			maxStore = st.StealBusy
		}
		if st.Finished > res.ProducerWallClock {
			res.ProducerWallClock = st.Finished
		}
	}
	var storeCons time.Duration
	for _, c := range consumers {
		st := c.FinalStats()
		res.BlocksAnalyzed += st.BlocksAnalyzed
		res.BlocksLost += st.BlocksLost
		if st.StoreBusy > storeCons {
			storeCons = st.StoreBusy
		}
	}
	if monitor != nil {
		res.Evictions = monitor.Evictions()
		res.ReplayedBlocks = monitor.ReplayedBlocks()
		res.FailoverEvents = monitor.Events()
	}
	for _, s := range allStagers {
		st := s.FinalStats()
		res.StagerSpills += st.BlocksSpilled
		res.BytesOnWire += st.BytesOnWire
		res.BytesReduced += st.BytesReduced
		res.StagerRelayed = append(res.StagerRelayed, st.BlocksIn)
		if st.MaxQueued > res.StagerMaxQueued {
			res.StagerMaxQueued = st.MaxQueued
		}
		if scaler == nil {
			res.StagerNodeSeconds += st.Finished.Seconds()
		}
	}
	if n := len(res.StagerRelayed); n > 0 {
		var total, peak int64
		for _, v := range res.StagerRelayed {
			total += v
			if v > peak {
				peak = v
			}
		}
		if total > 0 {
			res.RelayImbalance = float64(peak) * float64(n) / float64(total)
		}
	}
	if scaler != nil {
		res.ScaleEvents = scaler.Events()
		res.StagerNodeSeconds = scaler.NodeSeconds()
	}
	res.Stages = StageTimes{
		Simulation: time.Duration(w.Steps) * w.StepTime,
		Transfer:   maxSend,
		Store:      maxStore + storeCons,
		Analysis:   maxDur(anaBusy),
	}
	res.ProducerStall = maxStall
	res.SenderIdle = res.E2E - maxSend
	res.XmitWaitProducers = sumXmitWait(r)
	return res
}

// simHost adapts the simulated workflow wiring to elastic.Host: spawned
// stagers are fresh engine-process sets placed round-robin on the staging
// nodes, and Retire travels the simulated network like any other message.
// All fields are written only under the engine's one-process-at-a-time
// scheduling, so no locking is needed.
type simHost struct {
	spawn func(slot int) *staging.Stager
	slots []*staging.Stager
	net   *simenv.Network
	base  int // transport address of slot 0
}

func (h *simHost) Spawn(c rt.Ctx, slot int) (*flow.StagerFlows, error) {
	return h.spawn(slot).Flows(), nil
}

func (h *simHost) Retire(c rt.Ctx, slot int) {
	h.net.Send(c, h.base+slot, rt.Message{Retire: true})
}

func (h *simHost) Drained(c rt.Ctx, slot int) bool {
	st := h.slots[slot]
	return st == nil || st.Drained(c)
}

// stagerInst tracks one stager endpoint instance and its fault-plane
// attachments for the lifetime of a run. A slot can accumulate several
// instances as the monitor respawns replacements into it; the latest entry
// for a slot is the current occupant.
type stagerInst struct {
	slot           int
	st             *staging.Stager
	journal        *staging.Journal
	spill          rt.BlockStore
	evicted        bool
	replayed, lost int64
}

// simFaultHost adapts the simulated workflow wiring to fault.Host: evicted
// endpoints are fenced and joined in-engine, their journals replayed through
// the simulated network, and replacements spawned with the same builder the
// initial tier used. All fields are written only under the engine's
// one-process-at-a-time scheduling, so no locking is needed.
type simFaultHost struct {
	insts  *[]*stagerInst
	spawn  func(slot int) *staging.Stager
	net    *simenv.Network
	pool   *place.Directory
	scaler *elastic.Scaler
	base   int // transport address of slot 0
}

// latest returns the current (most recently spawned) instance on a slot.
func (h *simFaultHost) latest(slot int) *stagerInst {
	insts := *h.insts
	for i := len(insts) - 1; i >= 0; i-- {
		if insts[i].slot == slot {
			return insts[i]
		}
	}
	return nil
}

func (h *simFaultHost) Dead(c rt.Ctx, addr int) bool {
	in := h.latest(addr - h.base)
	return in != nil && in.st.Killed(c)
}

func (h *simFaultHost) Evict(c rt.Ctx, addr int) {
	in := h.latest(addr - h.base)
	if in == nil {
		return
	}
	if h.scaler != nil {
		h.scaler.Crashed(addr - h.base)
	}
	if !in.st.Killed(c) {
		// Fence: a false-positive eviction must not leave a live occupant
		// flushing blocks the recovery reader is about to replay.
		in.st.Kill(c)
	}
	if in.st.NeedsRetire(c) {
		h.net.Send(c, addr, rt.Message{Retire: true})
	}
	in.st.Wait(c)
	in.evicted = true
}

func (h *simFaultHost) Recover(c rt.Ctx, addr int) (replayed, orphans, lost int64) {
	in := h.latest(addr - h.base)
	if in == nil || in.journal == nil {
		return 0, 0, 0
	}
	replayed, orphans, lost = staging.Replay(c, in.journal, in.spill, h.net)
	in.replayed += replayed
	in.lost += lost
	return replayed, orphans, lost
}

func (h *simFaultHost) Respawn(c rt.Ctx, addr int) bool {
	if h.spawn == nil {
		return false
	}
	st := h.spawn(addr - h.base)
	h.pool.Add(addr)
	if h.scaler != nil {
		h.scaler.Respawned(addr-h.base, st.Flows())
	}
	return true
}

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

func sumXmitWait(r *rig) int64 {
	seen := map[fabric.NodeID]bool{}
	var total int64
	for _, n := range r.prodNodes {
		if !seen[n] {
			seen[n] = true
			total += r.fab.NodeCounters(n).XmitWait
		}
	}
	return total
}
