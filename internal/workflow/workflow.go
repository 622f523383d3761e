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

	"zipper/internal/assembly"
	"zipper/internal/core"
	"zipper/internal/elastic"
	"zipper/internal/fabric"
	"zipper/internal/fault"
	"zipper/internal/mpi"
	"zipper/internal/pfs"
	"zipper/internal/place"
	"zipper/internal/rt"
	"zipper/internal/rt/simenv"
	"zipper/internal/sim"
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
	// of earlier revisions byte-identically; KindLeastOccupancy runs the
	// endpoints behind epoch-versioned directories with counted stream
	// termination.
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
	// DataEnd (Zipper runs) is the end of the run as the data sees it: the
	// later of the last application rank's return and the last stager's
	// drain. E2E is later only if a control thread outlived the data.
	DataEnd time.Duration
	Stages  StageTimes
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
	// number the load-aware placement policy shrinks when producer output
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

// simPlatform is the simulated machine as the assembler sees it: every
// endpoint's threads run on (and charge traffic to) its own fabric node,
// one credit-windowed network carries every message, and the spool is the
// PFS model.
type simPlatform struct {
	r     *rig
	mem   float64
	net   *simenv.Network
	store *simenv.Store
}

// newSimPlatform creates the network's endpoints — `consumers` consumer
// addresses, then `slots` stager addresses placed round-robin on the
// staging nodes, each with a receive window of `window` messages (default
// 4) — and the root store.
func newSimPlatform(r *rig, mem float64, consumers, slots, window int) *simPlatform {
	if window <= 0 {
		window = 4
	}
	nodes := append([]fabric.NodeID{}, r.consNodes[:consumers]...)
	for s := 0; s < slots; s++ {
		nodes = append(nodes, r.stageNode[s%len(r.stageNode)])
	}
	return &simPlatform{r: r, mem: mem,
		net:   simenv.NewNetwork(r.eng, r.fab, nodes, window),
		store: simenv.NewStore(r.fs, "zipper")}
}

// env places the role's endpoint i; the tier's control threads run beside
// its first stager.
func (pf *simPlatform) env(role assembly.Role, i int) *simenv.Env {
	node := pf.r.stageNode[0]
	switch role {
	case assembly.Consumer:
		node = pf.r.consNodes[i]
	case assembly.Producer:
		node = pf.r.prodNodes[i]
	case assembly.Stager:
		node = pf.r.stageNode[i%len(pf.r.stageNode)]
	}
	return simenv.NewEnv(pf.r.eng, node, pf.mem)
}

// Env implements assembly.Platform.
func (pf *simPlatform) Env(role assembly.Role, i int) rt.Env { return pf.env(role, i) }

// Inbox implements assembly.Platform.
func (pf *simPlatform) Inbox(addr int) rt.Inbox { return pf.net.Inbox(addr) }

// Port implements assembly.Platform: the network serves any sender.
func (pf *simPlatform) Port(assembly.Role, int) rt.Transport { return pf.net }

// Partition implements assembly.Platform. The partitions keep the file
// names earlier revisions gave them: the PFS model hashes names onto OSTs.
func (pf *simPlatform) Partition(name string) (rt.BlockStore, error) {
	if name == "" {
		return pf.store, nil
	}
	return pf.store.Partition("zipper-" + name), nil
}

// setup is the context of the code that assembles a run before the engine
// starts: it can read the clock (zero) and must never block.
func (pf *simPlatform) setup() rt.Ctx { return setupCtx{pf.r.eng} }

type setupCtx struct{ eng *sim.Engine }

func (c setupCtx) Now() time.Duration { return c.eng.Now() }
func (c setupCtx) Sleep(time.Duration) {
	panic("workflow: assembling a run must not block")
}

// assembly converts the spec's runtime half to the platform-neutral
// topology the assembler builds.
func (spec Spec) assembly() assembly.Spec {
	return assembly.Spec{
		Producers:          spec.P,
		Consumers:          spec.Q,
		Core:               spec.Zipper,
		Stagers:            spec.Stagers,
		StagerBufferBlocks: spec.StagerBufferBlocks,
		Elastic:            spec.Elastic,
		Placement:          spec.Placement,
		Fault:              spec.Fault,
		Window:             spec.Window,
	}
}

// RunZipper executes the workflow on the Zipper runtime.
func RunZipper(spec Spec) Result { return RunAssembly(spec, spec.assembly()) }

// RunAssembly executes the topology `a` — the value zipper.NewJob would
// assemble on the real machine — on spec's simulated machine, under spec's
// workload. Of spec it reads the machine, the workload, the node layout and
// the experiment controls (FaultKillEpoch, Trace, Seed); the runtime
// configuration is all in a.
func RunAssembly(spec Spec, a assembly.Spec) Result {
	spec.P, spec.Q = a.Producers, a.Consumers
	r := build(spec)
	w := spec.Workload
	a.Core.Recorder = r.rec
	pf := newSimPlatform(r, spec.Machine.MemBandwidth, a.Consumers, a.Slots(), a.Window)
	asm, err := assembly.Assemble(pf.setup(), pf, a)
	if err != nil {
		return Result{Method: "Zipper", Fail: err.Error()}
	}
	producers, consumers, tier := asm.Producers, asm.Consumers, asm.Tier
	// prodsDone is set, and prodsDoneCond broadcast, by the janitor once
	// every producer has handed off its data.
	harness := pf.env(assembly.Control, 0).NewLock("harness")
	prodsDoneCond := harness.NewCond("harness.prodsDone")
	prodsDone := false
	if spec.FaultKillEpoch > 0 && tier != nil && tier.Monitor != nil {
		// The deterministic kill injector: the first time the pool's
		// membership epoch reaches FaultKillEpoch, hard-kill the lowest live
		// member's stager. Clocked on virtual time, so the same spec crashes
		// at the same instant in every run; it looks every heartbeat and
		// leaves the moment the producers are done.
		heartbeat := a.Fault.WithDefaults().Heartbeat
		pf.env(assembly.Control, 0).Go("fault.injector", func(c rt.Ctx) {
			harness.Lock(c)
			for !prodsDone {
				if tier.Pool.Epoch() >= int64(spec.FaultKillEpoch) {
					harness.Unlock(c)
					if members := tier.Pool.Members(); len(members) > 0 {
						tier.Kill(c, members[0]-a.Consumers)
					}
					return
				}
				prodsDoneCond.WaitFor(c, heartbeat)
			}
			harness.Unlock(c)
		})
	}
	if tier != nil && tier.Pool != nil {
		// The janitor closes a pool-managed tier's lifetime: once every
		// producer has handed off its data no relay traffic can appear, and
		// the tier shuts down — the flush completes the consumers' counted
		// streams. (A fixed rank-affine tier ends by itself on its
		// producers' Fins.)
		pf.env(assembly.Control, 0).Go("tier.janitor", func(c rt.Ctx) {
			for _, p := range producers {
				p.Wait(c)
			}
			harness.Lock(c)
			prodsDone = true
			prodsDoneCond.Broadcast()
			harness.Unlock(c)
			tier.Shutdown(c)
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
	var dataEnd time.Duration
	r.prodComm.Launch("sim", func(rank *mpi.Rank) {
		prod := producers[rank.Local()]
		p := rank.Proc()
		c := pf.env(assembly.Producer, rank.Local()).WrapProc(p)
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
		dataEnd = max(dataEnd, p.Now())
	})
	r.consComm.Launch("ana", func(rank *mpi.Rank) {
		cons := consumers[rank.Local()]
		c := pf.env(assembly.Consumer, rank.Local()).WrapProc(rank.Proc())
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
		dataEnd = max(dataEnd, c.Now())
	})
	if err := r.eng.Run(); err != nil {
		return Result{Method: "Zipper", Fail: err.Error()}
	}

	res := Result{
		Method:  "Zipper",
		OK:      true,
		E2E:     r.eng.Now(),
		DataEnd: dataEnd,
		Rec:     r.rec,
	}
	var maxSend, maxStall, maxStore time.Duration
	for _, p := range producers {
		st := p.Stats()
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
		st := c.Stats()
		res.BlocksAnalyzed += st.BlocksAnalyzed
		res.BlocksLost += st.BlocksLost
		if st.StoreBusy > storeCons {
			storeCons = st.StoreBusy
		}
	}
	if tier != nil {
		if m := tier.Monitor; m != nil {
			res.Evictions = m.Evictions()
			res.ReplayedBlocks = m.ReplayedBlocks()
			res.FailoverEvents = m.Events()
		}
		if tier.Scaler != nil {
			res.ScaleEvents = tier.Scaler.Events()
		}
	}
	for _, in := range tier.Instances() {
		st := in.St.Stats(nil)
		res.StagerSpills += st.BlocksSpilled
		res.BytesOnWire += st.BytesOnWire
		res.BytesReduced += st.BytesReduced
		res.StagerRelayed = append(res.StagerRelayed, st.BlocksIn)
		res.DataEnd = max(res.DataEnd, st.Finished)
		if st.MaxQueued > res.StagerMaxQueued {
			res.StagerMaxQueued = st.MaxQueued
		}
	}
	res.RelayImbalance = tier.RelayImbalance()
	res.StagerNodeSeconds = tier.NodeSeconds()
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
