package zipper

// Multi-job control plane: a Fleet is one shared in-transit stager tier that
// many concurrent Jobs multiplex over, with per-tenant admission quotas,
// fair share, and priority preemption (see internal/control). Each
// Submit admits one job as a tenant: the control plane assigns it a slice of
// the fleet through its own epoch-versioned place.Directory, the shared
// stagers account its buffer residency and spills on its own tenant state,
// and the reconcile loop continuously rebalances slices and quotas as jobs
// arrive and finish. A Fleet of one job with no quotas behaves like a plain
// NewJob with the same staging tier — the single tenant holds the whole
// fleet and its quota equals the full buffer, so no admission decision ever
// differs.

import (
	"errors"
	"fmt"
	"sync"

	"zipper/internal/assembly"
	"zipper/internal/control"
	"zipper/internal/core"
	"zipper/internal/rt/realenv"
)

// QuotaConfig is a fleet-submitted job's resource envelope: guaranteed
// stager buffer blocks and preemption priority.
// See the control package for the semantics; NewJob ignores it.
type QuotaConfig = control.Quota

// Priority is a fleet tenant's preemption class.
type Priority = control.Priority

const (
	// PriorityLow marks best-effort batch tenants: first to lose capacity
	// under pressure (the default).
	PriorityLow = control.PriorityLow
	// PriorityNormal is the middle class.
	PriorityNormal = control.PriorityNormal
	// PriorityHigh marks latency-sensitive tenants whose quota pressure
	// triggers preemption of lower classes.
	PriorityHigh = control.PriorityHigh
)

// FleetEvent is one control-plane action on the shared fleet — admit,
// finish, assign, or preempt — reported in FleetStats.Events.
type FleetEvent = control.Event

// FleetConfig configures a shared stager fleet. The shared wire is the
// in-process channel network with a receive window of 4 messages per
// endpoint. The control plane reconciles every 2 ms, and a tenant counts as
// pressured — the trigger for preempting a lower-priority, spill-heavy
// tenant — once it fills 75 % of its quota on any stager of its slice.
type FleetConfig struct {
	// Stagers is the shared in-transit tier's size (≥ 1). Every submitted
	// job relays through a control-plane-assigned slice of these endpoints.
	Stagers int
	// StagerBufferBlocks is each shared stager's in-memory buffer capacity
	// in blocks (default 64). The control plane splits each buffer among
	// the tenants assigned to it.
	StagerBufferBlocks int
	// SpoolDir is the directory standing in for the parallel file system.
	// Required. Stager spill partitions and per-job spool partitions live
	// under it.
	SpoolDir string
	// MaxJobs caps how many jobs the fleet admits over its lifetime
	// (default 4). Tenant ids index pre-sized per-tenant state at every
	// stager, so ids are never reused.
	MaxJobs int
	// MaxConsumers reserves the consumer address space (default
	// 4 × MaxJobs). The wire's endpoint count is fixed at construction;
	// each Submit allocates its job's consumer endpoints from this pool and
	// is rejected once it runs dry.
	MaxConsumers int
	// MaxBatchBlocks bounds the stagers' re-batched forwarded messages
	// (default as in staging.Config).
	MaxBatchBlocks int
}

// fleetWindow is each endpoint's receive window on a fleet's shared wire, in
// messages (see Config.Window).
const fleetWindow = 4

// withDefaults resolves zero fields.
func (cfg FleetConfig) withDefaults() FleetConfig {
	if cfg.StagerBufferBlocks <= 0 {
		cfg.StagerBufferBlocks = 64
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 4
	}
	if cfg.MaxConsumers <= 0 {
		cfg.MaxConsumers = 4 * cfg.MaxJobs
	}
	return cfg
}

// Fleet is one shared stager tier plus the control plane that multiplexes
// submitted jobs over it. Build with NewFleet, admit jobs with Submit, Wait
// each returned Job as usual, and Close once every job has finished.
type Fleet struct {
	cfg  FleetConfig // defaults resolved
	pf   *platform
	tier *assembly.Tier // the shared stagers, their control plane and tenant table

	mu       sync.Mutex
	jobs     []*Job
	nextCons int // next free consumer address in [0, MaxConsumers)
	nextRank int // next free global producer rank
	closed   bool
}

// NewFleet validates the configuration, builds the shared wire and stager
// tier, and starts the control plane's reconcile loop.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Stagers < 1 {
		return nil, &ConfigError{Field: "Stagers",
			Reason: fmt.Sprintf("a fleet is a shared staging tier; it needs Stagers ≥ 1, got %d", cfg.Stagers)}
	}
	if cfg.StagerBufferBlocks < 0 {
		return nil, &ConfigError{Field: "StagerBufferBlocks",
			Reason: fmt.Sprintf("must be ≥ 0 (0 selects the default), got %d", cfg.StagerBufferBlocks)}
	}
	if cfg.SpoolDir == "" {
		return nil, &ConfigError{Field: "SpoolDir",
			Reason: "required: the directory standing in for the parallel file system"}
	}
	if cfg.MaxJobs < 0 {
		return nil, &ConfigError{Field: "MaxJobs",
			Reason: fmt.Sprintf("must be ≥ 0 (0 selects the default), got %d", cfg.MaxJobs)}
	}
	if cfg.MaxConsumers < 0 {
		return nil, &ConfigError{Field: "MaxConsumers",
			Reason: fmt.Sprintf("must be ≥ 0 (0 selects the default), got %d", cfg.MaxConsumers)}
	}
	cfg = cfg.withDefaults()
	pf, err := newPlatform(cfg.SpoolDir, "", fleetWindow, cfg.MaxConsumers+cfg.Stagers, 0, nil)
	if err != nil {
		return nil, err
	}
	f := &Fleet{cfg: cfg, pf: pf}
	// The consumer address space [0, MaxConsumers) comes first, the shared
	// stagers after it.
	f.tier, err = assembly.NewTier(pf.env.Ctx(), pf, assembly.Spec{
		Consumers:          cfg.MaxConsumers,
		Core:               core.Config{MaxBatchBlocks: cfg.MaxBatchBlocks},
		Stagers:            cfg.Stagers,
		StagerBufferBlocks: cfg.StagerBufferBlocks,
		Window:             fleetWindow,
		Tenants:            &control.Config{MaxTenants: cfg.MaxJobs},
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Submit validates cfg, admits it to the control plane as a new tenant
// (Config.Quota is its resource envelope), and builds its producer and
// consumer endpoints over the shared wire. The returned Job is used exactly
// like a NewJob one — Producer/Consumer/Wait/Stats — except that the shared
// staging tier outlives it: its Wait releases the tenant's capacity back to
// the fleet instead of retiring stagers, and its Stats carry no stager
// entries (see FleetStats for the shared tier).
//
// The job's staging tier is the fleet's: Staging.Stagers, Placement,
// Elastic, Fault, Reduce, and TCPAddr must be unset, Window must be 0 or the
// shared wire's 4, and SpoolDir is optional (the job gets its own partition
// of the fleet's). Rejections are *ConfigError values; over-subscribed quotas
// and an exhausted MaxJobs or MaxConsumers reservation are admission
// rejections, not panics.
func (f *Fleet) Submit(cfg Config) (*Job, error) {
	switch {
	case cfg.Staging.Stagers != 0:
		return nil, &ConfigError{Field: "Staging.Stagers",
			Reason: "a fleet job relays through the shared tier; size it with FleetConfig.Stagers"}
	case cfg.Staging.Placement != RankAffine:
		return nil, &ConfigError{Field: "Staging.Placement",
			Reason: "a fleet job's stager placement is the control plane's decision; Placement must be left default"}
	case cfg.Staging.Elastic.Enabled:
		return nil, &ConfigError{Field: "Staging.Elastic",
			Reason: "the shared fleet is fixed-size: its stagers are FleetConfig.Stagers for its whole life"}
	case cfg.Fault.Enabled:
		return nil, &ConfigError{Field: "Fault",
			Reason: "the fault plane protects a private staging tier; it is not available per fleet job"}
	case cfg.Staging.Reduce.Enabled():
		return nil, &ConfigError{Field: "Staging.Reduce",
			Reason: "in-transit reduction is a tier property; it is not available per fleet job"}
	case cfg.TCPAddr != "":
		return nil, &ConfigError{Field: "TCPAddr",
			Reason: "a fleet shares one in-process wire; per-job TCP endpoints are not available"}
	case cfg.Window != 0 && cfg.Window != fleetWindow:
		// The consumer buffer is sized from the window (Config.ConsumerBufferBlocks).
		return nil, &ConfigError{Field: "Window",
			Reason: fmt.Sprintf("a fleet's shared wire has a receive window of %d messages; Window must be 0 or %d", fleetWindow, fleetWindow)}
	}
	// Core validation against the fleet-provided tier shape.
	probe := cfg
	if probe.SpoolDir == "" {
		probe.SpoolDir = f.cfg.SpoolDir
	}
	probe.Staging.Stagers = f.cfg.Stagers
	if err := probe.validate(); err != nil {
		return nil, err
	}

	ctx := f.pf.env.Ctx()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, &ConfigError{Field: "Jobs", Reason: "the fleet is closed"}
	}
	if f.nextCons+cfg.Consumers > f.cfg.MaxConsumers {
		return nil, &ConfigError{Field: "Consumers",
			Reason: fmt.Sprintf("consumer reservation exhausted: %d requested, %d of MaxConsumers %d free",
				cfg.Consumers, f.cfg.MaxConsumers-f.nextCons, f.cfg.MaxConsumers)}
	}
	// The job's spool comes before its admission: a tenant admitted and
	// then abandoned would hold its guaranteed buffer blocks for the
	// fleet's lifetime.
	name := fmt.Sprintf("job%d", len(f.jobs))
	var jobfs *realenv.FileStore
	var err error
	if cfg.SpoolDir == "" {
		jobfs, err = f.pf.fs.Partition(name)
	} else {
		jobfs, err = realenv.NewFileStore(cfg.SpoolDir)
	}
	if err != nil {
		return nil, err
	}
	ep, tenant, err := f.tier.Join(ctx, cfg.spec(), jobfs, f.nextCons, f.nextRank,
		control.JobSpec{Name: name, Quota: cfg.Quota})
	if err != nil {
		var ce *control.ConfigError
		if errors.As(err, &ce) {
			return nil, &ConfigError{Field: ce.Field, Reason: ce.Reason}
		}
		return nil, err
	}
	f.nextCons += cfg.Consumers
	f.nextRank += cfg.Producers
	j := newJob(f.pf, ep)
	j.fleet, j.tenant = f, tenant
	f.jobs = append(f.jobs, j)
	return j, nil
}

// Close stops the control plane — its reconcile loop wakes and exits at
// once — and retires the shared stager tier: each endpoint leaves every
// tenant directory, in-flight claims quiesce, and the provably-last Retire
// message flushes it. When Close returns, no runtime goroutine of the fleet
// is left. Call Close after every submitted job's Wait has returned; it is
// then the analogue of the tier shutdown a private Job performs inside its
// own Wait. Close is idempotent.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	f.tier.Shutdown(f.pf.env.Ctx())
}

// FleetTenantStats is one tenant's view in FleetStats.
type FleetTenantStats struct {
	Name     string
	Priority string
	Active   bool
	// Stagers is the tenant's current slice size and QuotaBlocks its total
	// admission cap across the slice (0 after Finish).
	Stagers     int
	QuotaBlocks int
	// BlocksRelayed / BlocksSpilled are the tenant's lifetime totals across
	// the shared tier.
	BlocksRelayed int64
	BlocksSpilled int64
	// Preempted counts how many times this tenant was the preemption victim.
	Preempted int
}

// FleetStats aggregates the shared tier and the control plane's timeline.
// Stager totals are final only after Close.
type FleetStats struct {
	JobsAdmitted int
	JobsActive   int
	Stagers      []StagerStats
	Tenants      []FleetTenantStats
	// BlocksRelayed / BlocksSpilled are fleet-wide stager totals.
	BlocksRelayed int64
	BlocksSpilled int64
	// StagerNodeSeconds is the shared tier's provisioned cost: each
	// stager from its spawn to its finish, as a private tier bills it,
	// complete after Close. The number the
	// shared fleet is judged on against N private tiers (see
	// TestFleetConsolidationSaving in internal/exp).
	StagerNodeSeconds float64
	// Preemptions is the control plane's lifetime preemption count, and
	// Events its admit/finish/assign/preempt timeline.
	Preemptions int
	Events      []FleetEvent
}

// Stats aggregates the shared stager tier, per-tenant accounting, and the
// control plane's event timeline in one call. May be called mid-run; call
// after Close for final stager totals.
func (f *Fleet) Stats() FleetStats {
	ctx := f.pf.env.Ctx()
	plane, stagers := f.tier.Plane, f.tier.Instances()
	snaps := plane.Snapshot()
	var fs FleetStats
	fs.JobsAdmitted = len(snaps)
	fs.Preemptions = plane.Preemptions()
	fs.Events = plane.Events()
	for _, in := range stagers {
		s := in.St.Stats(ctx)
		fs.Stagers = append(fs.Stagers, stagerStats(s, in.Drained))
		fs.BlocksRelayed += s.BlocksIn
		fs.BlocksSpilled += s.BlocksSpilled
	}
	fs.StagerNodeSeconds = f.tier.NodeSeconds()
	for _, sn := range snaps {
		t := FleetTenantStats{
			Name: sn.Name, Priority: sn.Priority.String(), Active: sn.Active,
			Stagers: len(sn.Stagers), QuotaBlocks: sn.QuotaBlocks, Preempted: sn.Preempted,
		}
		t.BlocksRelayed, t.BlocksSpilled, _ = f.tier.TenantTotals(sn.ID)
		if sn.Active {
			fs.JobsActive++
		}
		fs.Tenants = append(fs.Tenants, t)
	}
	return fs
}
