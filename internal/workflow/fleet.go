package workflow

// Multi-job fleet runs on the simulated platform: many producer/consumer
// jobs share one in-transit stager tier under the control plane, clocked
// entirely by virtual time so admission, fair-share reconciles, and
// preemptions land at bit-for-bit reproducible instants. This is the
// harness the multi-tenant acceptance tests and `zippertrace fleet` drive.

import (
	"fmt"
	"time"

	"zipper/internal/assembly"
	"zipper/internal/control"
	"zipper/internal/core"
	"zipper/internal/rt"
)

// FleetJob is one tenant workload in a FleetSpec.
type FleetJob struct {
	Name     string
	Workload Workload
	// P and Q are this job's producer and consumer rank counts.
	P, Q int
	// Quota is the tenant's resource envelope on the shared fleet.
	Quota control.Quota
	// StartAfter delays the job's admission: the tenant joins the running
	// fleet at this virtual instant, and the fair share reconverges.
	StartAfter time.Duration
	// BufferBlocks is each producer's buffer capacity (default 8), and
	// MaxBatchBlocks the drain-batch cap.
	BufferBlocks   int
	MaxBatchBlocks int
	// DisableSteal turns the file-system relief path off for this job.
	DisableSteal bool
}

// FleetSpec is a complete multi-job fleet experiment.
type FleetSpec struct {
	Machine Machine
	Jobs    []FleetJob
	// Stagers is the shared tier's size and StagerBufferBlocks each
	// endpoint's in-memory buffer capacity.
	Stagers            int
	StagerBufferBlocks int
	// StagingNodes is the node count the shared tier is placed on.
	StagingNodes int
	// Window is each endpoint's receive window in messages (default 4).
	Window int
	// Sample, when > 0, records the per-tenant share/occupancy timeline at
	// this virtual period — the zippertrace fleet view's input.
	Sample time.Duration
}

// TenantSample is one tenant's state at a sample instant.
type TenantSample struct {
	Stagers     int  // assigned slice size
	QuotaBlocks int  // total admission cap across the slice
	Resident    int  // blocks resident in shared-stager memory, fleet-wide
	Active      bool // admitted and not yet finished
}

// FleetSample is one instant of the per-tenant timeline.
type FleetSample struct {
	At      time.Duration
	Tenants []TenantSample // indexed by tenant id (admission order)
}

// FleetJobResult is one job's outcome.
type FleetJobResult struct {
	Name   string
	Tenant int           // control-plane tenant id (admission order)
	Start  time.Duration // admission instant
	End    time.Duration // all of the job's streams complete
	// Producer/consumer totals.
	BlocksWritten  int64
	BlocksAnalyzed int64
	BlocksLost     int64
	BlocksSent     int64
	BlocksRelayed  int64
	BlocksStolen   int64
	BlocksSpilled  int64 // the tenant's spills inside the shared tier
	// WriteStall is the job's worst producer stall — the latency number the
	// isolation guarantee is judged on.
	WriteStall time.Duration
	// Preempted counts how often this tenant was the preemption victim.
	Preempted int
}

// FleetResult is one multi-job fleet execution's outcome.
type FleetResult struct {
	OK   bool
	Fail string
	E2E  time.Duration
	Jobs []FleetJobResult
	// Events is the control plane's admit/finish/assign/preempt timeline,
	// and Preemptions its lifetime count.
	Events      []control.Event
	Preemptions int
	// StagerNodeSeconds is the shared tier's provisioned cost (each stager
	// billed to its finish time) — the axis shared fleets are compared to
	// private tiers on. StagerRelayed is each stager's received-block total
	// and StagerSpills the tier-wide overflow count.
	StagerNodeSeconds float64
	StagerRelayed     []int64
	StagerSpills      int64
	// Samples is the per-tenant timeline (empty unless Spec.Sample > 0).
	Samples []FleetSample
}

// RunFleet executes every job in the spec over one shared stager tier on
// the simulated platform. Each job's coordinator sleeps to its StartAfter,
// admits the tenant (the control plane reconciles synchronously, so the
// job's directory is populated before its first block), spawns the job's
// endpoints, and releases its capacity when the streams complete. A janitor
// stops the plane and retires the shared tier once the last job is done.
func RunFleet(spec FleetSpec) FleetResult {
	if len(spec.Jobs) == 0 || spec.Stagers < 1 {
		return FleetResult{Fail: "fleet: need ≥ 1 job and ≥ 1 stager"}
	}
	totP, totQ := 0, 0
	for _, j := range spec.Jobs {
		totP += j.P
		totQ += j.Q
	}
	r := build(Spec{Machine: spec.Machine, P: totP, Q: totQ,
		StagingNodes: spec.StagingNodes})
	pf := newSimPlatform(r, spec.Machine.MemBandwidth, totQ, spec.Stagers, spec.Window)

	// Global rank and consumer-address layout: jobs are packed in spec
	// order, so the tenant of any producer rank is a static table lookup —
	// the stagers' receiver threads resolve it without reaching into the
	// registry. The table is keyed by position in spec.Jobs, which is the
	// tenant id only when the jobs are admitted in spec order (StartAfter
	// can reorder them); golden_test.go pins the runs as they are.
	rankTenant := make([]int, totP)
	prodBase := make([]int, len(spec.Jobs))
	consBase := make([]int, len(spec.Jobs))
	{
		p, q := 0, 0
		for i, j := range spec.Jobs {
			prodBase[i], consBase[i] = p, q
			for k := 0; k < j.P; k++ {
				rankTenant[p+k] = i
			}
			p += j.P
			q += j.Q
		}
	}

	// The shared tier: every stager accounts per tenant, and the control
	// plane splits the buffers among the admitted jobs.
	tier, err := assembly.NewTier(pf.setup(), pf, assembly.Spec{
		Consumers:          totQ,
		Stagers:            spec.Stagers,
		StagerBufferBlocks: spec.StagerBufferBlocks,
		Window:             spec.Window,
		Tenants: &assembly.Tenants{
			Plane: control.Config{MaxTenants: len(spec.Jobs)},
			Of:    func(from int) int { return rankTenant[from%totP] },
		},
	})
	if err != nil {
		return FleetResult{Fail: err.Error()}
	}
	// The tier's stagers all run from the start and for the whole run.
	plane, stagers := tier.Plane, tier.Instances()

	// Shared run state: written only under the engine's one-process-at-a-
	// time scheduling, so no locking is needed. The harness lock exists for
	// allDone, which the last job to finish broadcasts.
	results := make([]FleetJobResult, len(spec.Jobs))
	endpoints := make([]*assembly.Endpoints, len(spec.Jobs))
	harness := pf.env(assembly.Control, 0).NewLock("harness")
	allDone := harness.NewCond("harness.allDone")
	jobsDone := 0
	jobDone := func(c rt.Ctx) {
		harness.Lock(c)
		if jobsDone++; jobsDone == len(spec.Jobs) {
			allDone.Broadcast()
		}
		harness.Unlock(c)
	}

	for i, job := range spec.Jobs {
		i, job := i, job
		w := job.Workload
		blockBytes := w.BlockBytes
		if blockBytes <= 0 {
			blockBytes = 1 << 20
		}
		nBlocks := int(w.BytesPerStep / blockBytes)
		if nBlocks < 1 {
			nBlocks = 1
		}
		pf.env(assembly.Producer, prodBase[i]).Go(fmt.Sprintf("fleet.job%d", i), func(c rt.Ctx) {
			if job.StartAfter > 0 {
				c.Sleep(job.StartAfter)
			}
			tenant, err := tier.Admit(c, control.JobSpec{Name: job.Name, Quota: job.Quota})
			if err != nil {
				results[i] = FleetJobResult{Name: job.Name, Start: c.Now()}
				jobDone(c)
				return
			}
			results[i].Name = job.Name
			results[i].Tenant = tenant.ID()
			results[i].Start = c.Now()
			// Everything relays through the shared tier.
			zcfg := core.Config{
				BufferBlocks:   job.BufferBlocks,
				MaxBatchBlocks: job.MaxBatchBlocks,
				RoutePolicy:    core.RouteStaging,
				DisableSteal:   job.DisableSteal,
			}
			ep := tier.Join(pf, assembly.Spec{Producers: job.P, Consumers: job.Q, Core: zcfg},
				pf.store, consBase[i], prodBase[i], tenant)
			endpoints[i] = ep
			prods, cons := ep.Producers, ep.Consumers
			// Producer ranks: the fine-grain write loop of RunZipper, one
			// engine process per rank.
			for p := 0; p < job.P; p++ {
				p := p
				pf.env(assembly.Producer, prodBase[i]+p).Go(fmt.Sprintf("fleet.job%d.prod%d", i, p), func(c rt.Ctx) {
					prod := prods[p]
					rankBlocks := int(float64(nBlocks) * w.skew(p))
					if rankBlocks < 1 {
						rankBlocks = 1
					}
					perBlock := w.StepTime / time.Duration(rankBlocks)
					for s := 0; s < w.Steps; s++ {
						for b := 0; b < rankBlocks; b++ {
							c.Sleep(perBlock)
							prod.Write(c, s, int64(b)*blockBytes, nil, blockBytes)
						}
					}
					prod.Close(c)
				})
			}
			// Consumer ranks: analyze at AnalyzePerByte.
			for q := 0; q < job.Q; q++ {
				q := q
				pf.env(assembly.Consumer, consBase[i]+q).Go(fmt.Sprintf("fleet.job%d.cons%d", i, q), func(c rt.Ctx) {
					for {
						blk, ok := cons[q].Read(c)
						if !ok {
							break
						}
						c.Sleep(time.Duration(blk.Bytes) * w.AnalyzePerByte)
					}
				})
			}
			// The coordinator doubles as the job's janitor: once every
			// stream completes, release the tenant's capacity so the plane
			// redistributes the slice to the jobs still running.
			for _, prod := range prods {
				prod.Wait(c)
			}
			for _, cn := range cons {
				cn.Wait(c)
			}
			plane.Finish(c, tenant)
			results[i].End = c.Now()
			jobDone(c)
		})
	}

	// The sampler records the per-tenant timeline every Sample until the
	// last job is done — the zippertrace fleet view's input.
	var samples []FleetSample
	var sampler *rt.Loop
	if spec.Sample > 0 {
		sampler = rt.StartLoop(pf.env(assembly.Control, 0), "fleet.sampler", spec.Sample, func(c rt.Ctx) {
			snap := plane.Snapshot()
			sm := FleetSample{At: c.Now(), Tenants: make([]TenantSample, len(spec.Jobs))}
			for _, sn := range snap {
				ts := TenantSample{Stagers: len(sn.Stagers), QuotaBlocks: sn.QuotaBlocks, Active: sn.Active}
				for _, in := range stagers {
					if lv := in.St.TenantLevel(sn.ID); lv != nil {
						q, _ := lv.Get()
						ts.Resident += q
					}
				}
				sm.Tenants[sn.ID] = ts
			}
			samples = append(samples, sm)
		}, nil)
	}

	// The fleet janitor: the moment every job has released its tenant, stop
	// the sampler and shut the shared tier down (the directories are already
	// empty, so each Retire is provably the last message its stager
	// receives).
	pf.env(assembly.Control, 0).Go("fleet.janitor", func(c rt.Ctx) {
		harness.Lock(c)
		for jobsDone < len(spec.Jobs) {
			allDone.Wait(c)
		}
		harness.Unlock(c)
		if sampler != nil {
			sampler.Stop(c)
		}
		tier.Shutdown(c)
	})

	if err := r.eng.Run(); err != nil {
		return FleetResult{Fail: err.Error()}
	}

	res := FleetResult{OK: true, E2E: r.eng.Now(),
		Events: plane.Events(), Preemptions: plane.Preemptions(), Samples: samples}
	snap := plane.Snapshot()
	for i := range spec.Jobs {
		jr := &results[i]
		if endpoints[i] == nil {
			res.Jobs = append(res.Jobs, *jr) // rejected at admission
			continue
		}
		for _, p := range endpoints[i].Producers {
			st := p.Stats()
			jr.BlocksWritten += st.BlocksWritten
			jr.BlocksSent += st.BlocksSent
			jr.BlocksRelayed += st.BlocksRelayed
			jr.BlocksStolen += st.BlocksStolen
			if st.WriteStall > jr.WriteStall {
				jr.WriteStall = st.WriteStall
			}
		}
		for _, cn := range endpoints[i].Consumers {
			st := cn.Stats()
			jr.BlocksAnalyzed += st.BlocksAnalyzed
			jr.BlocksLost += st.BlocksLost
		}
		for _, in := range stagers {
			jr.BlocksSpilled += in.St.TenantSpilled(jr.Tenant)
		}
		for _, sn := range snap {
			if sn.ID == jr.Tenant {
				jr.Preempted = sn.Preempted
			}
		}
		res.Jobs = append(res.Jobs, *jr)
	}
	for _, in := range stagers {
		fs := in.St.Stats(nil)
		res.StagerRelayed = append(res.StagerRelayed, fs.BlocksIn)
		res.StagerSpills += fs.BlocksSpilled
	}
	res.StagerNodeSeconds = tier.NodeSeconds()
	return res
}
