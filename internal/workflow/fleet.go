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
	BlocksStaged   int64 // the tenant's blocks the shared tier admitted
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
	// billed from its spawn to its finish, as every tier shape is) — the
	// axis shared fleets are compared to private tiers on. StagerRelayed is
	// each stager's received-block total and StagerSpills the tier-wide
	// overflow count.
	StagerNodeSeconds float64
	StagerRelayed     []int64
	StagerSpills      int64
	// Samples is the per-tenant timeline (empty unless Spec.Sample > 0).
	Samples []FleetSample
}

// RunFleet executes every job in the spec over one shared stager tier on
// the simulated platform. Each job's coordinator sleeps to its StartAfter,
// joins the tier — which admits the tenant (the control plane reconciles
// synchronously, so the job's directory is populated before its first
// block), registers its ranks and spawns its endpoints — and releases its
// capacity when the streams complete. A janitor
// stops the plane and retires the shared tier once the last job is done.
func RunFleet(spec FleetSpec) FleetResult {
	if len(spec.Jobs) == 0 || spec.Stagers < 1 {
		return FleetResult{Fail: "fleet: need ≥ 1 job and ≥ 1 stager"}
	}
	// Global rank and consumer-address layout: jobs are packed in spec
	// order, whatever order they are admitted in.
	prodBase := make([]int, len(spec.Jobs))
	consBase := make([]int, len(spec.Jobs))
	totP, totQ := 0, 0
	for i, j := range spec.Jobs {
		prodBase[i], consBase[i] = totP, totQ
		totP += j.P
		totQ += j.Q
	}
	r := build(Spec{Machine: spec.Machine, P: totP, Q: totQ,
		StagingNodes: spec.StagingNodes})
	pf := newSimPlatform(r, spec.Machine.MemBandwidth, totQ, spec.Stagers, spec.Window)

	// The shared tier: every stager accounts per tenant, and the control
	// plane splits the buffers among the admitted jobs.
	tier, err := assembly.NewTier(pf.setup(), pf, assembly.Spec{
		Consumers:          totQ,
		Stagers:            spec.Stagers,
		StagerBufferBlocks: spec.StagerBufferBlocks,
		Window:             spec.Window,
		Tenants:            &control.Config{MaxTenants: len(spec.Jobs)},
	})
	if err != nil {
		return FleetResult{Fail: err.Error()}
	}
	plane := tier.Plane

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
		pf.env(assembly.Producer, prodBase[i]).Go(fmt.Sprintf("fleet.job%d", i), func(c rt.Ctx) {
			if job.StartAfter > 0 {
				c.Sleep(job.StartAfter)
			}
			// Everything relays through the shared tier.
			zcfg := core.Config{
				BufferBlocks:   job.BufferBlocks,
				MaxBatchBlocks: job.MaxBatchBlocks,
				RoutePolicy:    core.RouteStaging,
				DisableSteal:   job.DisableSteal,
			}
			ep, tenant, err := tier.Join(c, assembly.Spec{Producers: job.P, Consumers: job.Q, Core: zcfg},
				pf.store, consBase[i], prodBase[i], control.JobSpec{Name: job.Name, Quota: job.Quota})
			results[i].Name, results[i].Start = job.Name, c.Now()
			if err != nil {
				jobDone(c)
				return
			}
			results[i].Tenant = tenant.ID()
			endpoints[i] = ep
			prods, cons := ep.Producers, ep.Consumers
			// Producer ranks: the fine-grain write loop of RunZipper, one
			// engine process per rank.
			for p := 0; p < job.P; p++ {
				p := p
				pf.env(assembly.Producer, prodBase[i]+p).Go(fmt.Sprintf("fleet.job%d.prod%d", i, p), func(c rt.Ctx) {
					for s := 0; s < w.Steps; s++ {
						w.writeStep(c, prods[p], p, s)
					}
					prods[p].Close(c)
				})
			}
			// Consumer ranks: analyze at AnalyzePerByte.
			for q := 0; q < job.Q; q++ {
				q := q
				pf.env(assembly.Consumer, consBase[i]+q).Go(fmt.Sprintf("fleet.job%d.cons%d", i, q), func(c rt.Ctx) {
					w.analyze(c, cons[q], nil, "")
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
				_, _, resident := tier.TenantTotals(sn.ID)
				sm.Tenants[sn.ID] = TenantSample{Stagers: len(sn.Stagers), QuotaBlocks: sn.QuotaBlocks,
					Resident: resident, Active: sn.Active}
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
	snap := plane.Snapshot() // in tenant-id order
	for i, ep := range endpoints {
		if ep == nil {
			continue // rejected at admission
		}
		jr := &results[i]
		ps, cs := sumProducers(ep.Producers), sumConsumers(ep.Consumers)
		jr.BlocksWritten, jr.BlocksSent = ps.BlocksWritten, ps.BlocksSent
		jr.BlocksRelayed, jr.BlocksStolen, jr.WriteStall = ps.BlocksRelayed, ps.BlocksStolen, ps.WriteStall
		jr.BlocksAnalyzed, jr.BlocksLost = cs.BlocksAnalyzed, cs.BlocksLost
		jr.BlocksStaged, jr.BlocksSpilled, _ = tier.TenantTotals(jr.Tenant)
		jr.Preempted = snap[jr.Tenant].Preempted
	}
	res.Jobs = results
	for _, in := range tier.Instances() {
		fs := in.St.Stats(nil)
		res.StagerRelayed = append(res.StagerRelayed, fs.BlocksIn)
		res.StagerSpills += fs.BlocksSpilled
	}
	res.StagerNodeSeconds = tier.NodeSeconds()
	return res
}
