package zipper

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestFleetValidation(t *testing.T) {
	dir := t.TempDir()
	bad := []struct {
		name string
		cfg  FleetConfig
		want string
	}{
		{"no stagers", FleetConfig{SpoolDir: dir}, "Stagers"},
		{"no spool", FleetConfig{Stagers: 1}, "SpoolDir"},
		{"negative buffer", FleetConfig{Stagers: 1, SpoolDir: dir, StagerBufferBlocks: -1}, "StagerBufferBlocks"},
		{"negative reservation", FleetConfig{Stagers: 1, SpoolDir: dir, MaxJobs: -1}, "MaxJobs"},
		{"negative consumer reservation", FleetConfig{Stagers: 1, SpoolDir: dir, MaxConsumers: -1}, "MaxConsumers"},
	}
	for _, tc := range bad {
		_, err := NewFleet(tc.cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: got %v, want *ConfigError", tc.name, err)
		}
		if ce.Field != tc.want {
			t.Fatalf("%s: rejected field %q, want %q", tc.name, ce.Field, tc.want)
		}
	}
}

func TestFleetSubmitRejections(t *testing.T) {
	fleet, err := NewFleet(FleetConfig{Stagers: 2, StagerBufferBlocks: 8, SpoolDir: t.TempDir(),
		MaxJobs: 2, MaxConsumers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	base := Config{Producers: 1, Consumers: 1, Staging: StagingConfig{RoutePolicy: RouteStaging}}
	bad := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"private tier", func(c *Config) { c.Staging.Stagers = 3 }, "Staging.Stagers"},
		{"placement", func(c *Config) { c.Staging.Placement = LeastOccupancy }, "Staging.Placement"},
		{"elastic", func(c *Config) { c.Staging.Elastic = ElasticConfig{Enabled: true} }, "Staging.Elastic"},
		{"fault", func(c *Config) { c.Fault = FaultConfig{Enabled: true} }, "Fault"},
		{"reduce", func(c *Config) { c.Staging.Reduce = ReduceConfig{Operator: ReduceCompress} }, "Staging.Reduce"},
		{"tcp", func(c *Config) { c.TCPAddr = "127.0.0.1:0" }, "TCPAddr"},
		{"core validation", func(c *Config) { c.Producers = 0 }, "Producers"},
		{"over-subscribed quota", func(c *Config) { c.Quota.BufferBlocks = 17 }, "Quota.BufferBlocks"},
		{"bad priority", func(c *Config) { c.Quota.Priority = Priority(9) }, "Quota.Priority"},
	}
	for _, tc := range bad {
		cfg := base
		tc.mut(&cfg)
		_, err := fleet.Submit(cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: got %v, want *ConfigError", tc.name, err)
		}
		if ce.Field != tc.want {
			t.Fatalf("%s: rejected field %q, want %q", tc.name, ce.Field, tc.want)
		}
	}
	// The consumer reservation runs dry before MaxJobs does here.
	if _, err := fleet.Submit(Config{Producers: 3, Consumers: 3, Staging: StagingConfig{RoutePolicy: RouteStaging}}); err == nil {
		t.Fatal("Submit beyond MaxConsumers succeeded")
	} else if !strings.Contains(err.Error(), "Consumers") {
		t.Fatalf("reservation rejection = %v", err)
	}
}

func TestFleetMaxJobsLifetimeCap(t *testing.T) {
	fleet, err := NewFleet(FleetConfig{Stagers: 1, StagerBufferBlocks: 8, SpoolDir: t.TempDir(),
		MaxJobs: 1, MaxConsumers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	j, err := fleet.Submit(Config{Producers: 1, Consumers: 1, Staging: StagingConfig{RoutePolicy: RouteStaging}})
	if err != nil {
		t.Fatal(err)
	}
	j.Producer(0).Close()
	for {
		if _, ok := j.Consumer(0).Read(); !ok {
			break
		}
	}
	j.Wait()
	// Tenant ids index pre-sized stager state and are never reused: the cap
	// is a lifetime admission ceiling, not a concurrency limit.
	if _, err := fleet.Submit(Config{Producers: 1, Consumers: 1, Staging: StagingConfig{RoutePolicy: RouteStaging}}); err == nil {
		t.Fatal("Submit beyond MaxJobs succeeded")
	}
}

// runFleetWorkload drives one job's producers and consumers to completion
// and returns the analyzed-block count.
func runFleetWorkload(t *testing.T, j *Job, producers, consumers, blocks, payload int) int {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := j.Producer(i)
			for s := 0; s < blocks; s++ {
				data := NewPayload(payload)
				for k := range data {
					data[k] = byte(i ^ s)
				}
				p.Write(s, 0, data)
			}
			p.Close()
		}()
	}
	var mu sync.Mutex
	n := 0
	var cwg sync.WaitGroup
	for q := 0; q < consumers; q++ {
		q := q
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				blk, ok := j.Consumer(q).Read()
				if !ok {
					return
				}
				want := byte((blk.ID.Rank % producers) ^ blk.ID.Step)
				for _, v := range blk.Data {
					if v != want {
						t.Errorf("block %+v corrupted", blk.ID)
						break
					}
				}
				blk.Release()
				mu.Lock()
				n++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cwg.Wait()
	j.Wait()
	return n
}

// TestFleetOfOneMatchesNewJob pins the single-job equivalence the control
// plane must preserve: a Fleet of one job with no quotas makes the same
// channel decisions as a plain NewJob over an identical private tier. With
// one tenant the fair share is the whole fleet and the tenant quota equals
// the full buffer, so no admission or routing decision can differ; the
// count-based invariants below are identical across both runs.
func TestFleetOfOneMatchesNewJob(t *testing.T) {
	const (
		producers = 2
		consumers = 1
		blocks    = 120
		payload   = 128
	)
	cfg := Config{
		Producers: producers, Consumers: consumers,
		Staging: StagingConfig{RoutePolicy: RouteStaging}, DisableSteal: true,
		BufferBlocks: 8, MaxBatchBlocks: 4,
	}

	privCfg := cfg
	privCfg.SpoolDir = t.TempDir()
	privCfg.Staging.Stagers = 2
	privCfg.Staging.BufferBlocks = 16
	priv, err := NewJob(privCfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := runFleetWorkload(t, priv, producers, consumers, blocks, payload); n != producers*blocks {
		t.Fatalf("private job analyzed %d, want %d", n, producers*blocks)
	}
	ps := priv.Stats()

	fleet, err := NewFleet(FleetConfig{Stagers: 2, StagerBufferBlocks: 16, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	job, err := fleet.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := runFleetWorkload(t, job, producers, consumers, blocks, payload); n != producers*blocks {
		t.Fatalf("fleet job analyzed %d, want %d", n, producers*blocks)
	}
	js := job.Stats()
	fleet.Close()
	fs := fleet.Stats()

	// Count-based equivalence: with stealing disabled and RouteStaging, every
	// block relays — both runs must land on identical channel splits.
	type counts struct{ written, sent, relayed, stolen, analyzed, lost int64 }
	pc := counts{ps.BlocksWritten, ps.BlocksSent, ps.BlocksRelayed, ps.BlocksStolen, ps.BlocksAnalyzed, ps.BlocksLost}
	fc := counts{js.BlocksWritten, js.BlocksSent, js.BlocksRelayed, js.BlocksStolen, js.BlocksAnalyzed, js.BlocksLost}
	want := counts{written: producers * blocks, relayed: producers * blocks, analyzed: producers * blocks}
	if pc != want {
		t.Fatalf("private counts %+v, want %+v", pc, want)
	}
	if fc != pc {
		t.Fatalf("fleet counts %+v, private %+v", fc, pc)
	}
	// The fleet job's Stats carry no stager entries — the shared tier's are
	// in FleetStats and must account for exactly this job's relay traffic.
	if len(js.Stagers) != 0 {
		t.Fatalf("fleet job reported %d private stagers", len(js.Stagers))
	}
	if len(fs.Stagers) != 2 || fs.BlocksRelayed != int64(producers*blocks) {
		t.Fatalf("fleet tier: %d stagers, relayed %d", len(fs.Stagers), fs.BlocksRelayed)
	}
	if fs.JobsAdmitted != 1 || fs.JobsActive != 0 || fs.Preemptions != 0 {
		t.Fatalf("fleet lifecycle: %+v", fs)
	}
	if len(fs.Tenants) != 1 || fs.Tenants[0].BlocksRelayed != int64(producers*blocks) ||
		fs.Tenants[0].Preempted != 0 {
		t.Fatalf("tenant accounting: %+v", fs.Tenants)
	}
}

// TestFleetTwoJobsConcurrent runs two jobs over one shared tier end to end
// on the real environment: both complete with every block intact and the
// per-tenant accounting splits the relay traffic exactly.
func TestFleetTwoJobsConcurrent(t *testing.T) {
	const blocks = 80
	fleet, err := NewFleet(FleetConfig{Stagers: 2, StagerBufferBlocks: 16, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Producers: 2, Consumers: 1, Staging: StagingConfig{RoutePolicy: RouteStaging},
		DisableSteal: true, BufferBlocks: 8, MaxBatchBlocks: 4}
	a, err := fleet.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fleet.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	counts := make([]int, 2)
	for i, j := range []*Job{a, b} {
		i, j := i, j
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[i] = runFleetWorkload(t, j, 2, 1, blocks, 64)
		}()
	}
	wg.Wait()
	fleet.Close()
	for i, n := range counts {
		if n != 2*blocks {
			t.Fatalf("job %d analyzed %d, want %d", i, n, 2*blocks)
		}
	}
	fs := fleet.Stats()
	if fs.JobsAdmitted != 2 || fs.JobsActive != 0 {
		t.Fatalf("fleet lifecycle: admitted %d active %d", fs.JobsAdmitted, fs.JobsActive)
	}
	if fs.BlocksRelayed != 2*2*blocks {
		t.Fatalf("tier relayed %d, want %d", fs.BlocksRelayed, 2*2*blocks)
	}
	for i, tn := range fs.Tenants {
		if tn.BlocksRelayed != 2*blocks {
			t.Fatalf("tenant %d relayed %d, want %d", i, tn.BlocksRelayed, 2*blocks)
		}
	}
}
