package zipper

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPlacementValidation: the two policies run, and a value naming neither —
// 2 was consistent hashing in earlier revisions — is a typed rejection, as
// is an operator number past Compress (2 and 3 were delta and stride).
func TestPlacementValidation(t *testing.T) {
	dir := t.TempDir()
	base := Config{Producers: 2, Consumers: 1, SpoolDir: dir}
	bad := []struct {
		field, reason string
		edit          func(*Config)
	}{
		{"Staging.Placement", "unknown(2)", func(c *Config) { c.Staging.Placement = Placement(2) }},
		{"Staging.Placement", "unknown(42)", func(c *Config) { c.Staging.Placement = Placement(42) }},
		{"Staging.Reduce", "unknown(2)", func(c *Config) { c.Staging.Reduce.Operator = ReduceOperator(2) }},
		{"Staging.Reduce", "unknown(3)", func(c *Config) { c.Staging.Reduce.Operator = ReduceOperator(3) }},
	}
	for _, tc := range bad {
		cfg := base
		cfg.Staging.Stagers, cfg.Staging.RoutePolicy = 1, RouteStaging
		tc.edit(&cfg)
		_, err := NewJob(cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field || !strings.Contains(ce.Reason, tc.reason) {
			t.Errorf("%s = %s: got %v, want a *ConfigError on %s naming %s", tc.field, tc.reason, err, tc.field, tc.reason)
		}
	}
	cfg := base
	for _, p := range []Placement{RankAffine, LeastOccupancy} {
		cfg.Staging.Placement = p
		job, err := NewJob(cfg)
		if err != nil {
			t.Fatalf("placement %v rejected: %v", p, err)
		}
		job.Producer(0).Close()
		job.Producer(1).Close()
		for {
			if _, ok := job.Consumer(0).Read(); !ok {
				break
			}
		}
		job.Wait()
	}
	if RankAffine.String() != "rank-affine" || LeastOccupancy.String() != "least-occupancy" {
		t.Fatalf("placement names drifted: %v %v", RankAffine, LeastOccupancy)
	}
}

// drainConsumers reads every consumer to completion, sleeping `analyze` per
// block (a yielding sleep, not a busy-wait, so producers keep the runtime
// saturated even on a single-core box), returning the per-consumer analyzed
// counts.
func drainConsumers(t *testing.T, job *Job, consumers int, analyze time.Duration) []int64 {
	t.Helper()
	counts := make([]int64, consumers)
	var wg sync.WaitGroup
	for q := 0; q < consumers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for {
				blk, ok := job.Consumer(q).Read()
				if !ok {
					return
				}
				counts[q]++
				blk.Release()
				if analyze > 0 {
					time.Sleep(analyze)
				}
			}
		}(q)
	}
	wg.Wait()
	return counts
}

// TestPlacementLeastOccupancyRoundTrip runs the load-aware consumer
// directory on the real platform without a staging tier: counted
// termination (per-destination Fin totals) must deliver every block even
// though the destination is re-resolved per batch, and the skewed producer's
// output must reach both analysis endpoints.
func TestPlacementLeastOccupancyRoundTrip(t *testing.T) {
	const (
		fastBlocks = 600
		slowBlocks = 60
		blockBytes = 4 << 10
	)
	job, err := NewJob(Config{
		Producers: 2, Consumers: 2, SpoolDir: t.TempDir(),
		BufferBlocks: 8, Window: 1, MaxBatchBlocks: 4,
		Staging: StagingConfig{Placement: LeastOccupancy}, DisableSteal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for p, blocks := range []int{fastBlocks, slowBlocks} {
		go func(p, blocks int) {
			prod := job.Producer(p)
			for i := 0; i < blocks; i++ {
				data := NewPayload(blockBytes)
				data[0], data[blockBytes-1] = byte(i), byte(i>>8)
				prod.Write(i, 0, data)
				if p == 1 {
					time.Sleep(100 * time.Microsecond) // the slow producer
				}
			}
			prod.Close()
		}(p, blocks)
	}
	counts := drainConsumers(t, job, 2, 0)
	job.Wait()
	if got := counts[0] + counts[1]; got != fastBlocks+slowBlocks {
		t.Fatalf("analyzed %d blocks, want %d", got, fastBlocks+slowBlocks)
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("least-occupancy starved an analysis endpoint: %v", counts)
	}
	st := job.Stats()
	if st.BlocksAnalyzed != int64(fastBlocks+slowBlocks) {
		t.Fatalf("stats analyzed %d, want %d", st.BlocksAnalyzed, fastBlocks+slowBlocks)
	}
}

// TestPlacementElasticChurn is the realenv churn test: directory placement
// over an elastic pool that grows and drains mid-run. Bursty producers force
// membership epochs to turn over while every batch re-resolves its stager
// and its consumer through the load-aware policy; counted termination must
// land every block regardless of which epoch relayed it. Run under -race in
// CI.
func TestPlacementElasticChurn(t *testing.T) {
	const (
		producers   = 4
		bursts      = 3
		burstBlocks = 150
		blockBytes  = 8 << 10
	)
	job, err := NewJob(Config{
		Producers: producers, Consumers: 2, SpoolDir: t.TempDir(),
		BufferBlocks: 8, Window: 2, MaxBatchBlocks: 4,
		DisableSteal: true,
		Staging: StagingConfig{
			Stagers: 3, BufferBlocks: 32, RoutePolicy: RouteStaging, Placement: LeastOccupancy,
			Elastic: ElasticConfig{
				Enabled: true, MinStagers: 1, MaxStagers: 3,
				Interval: time.Millisecond, Cooldown: 3 * time.Millisecond,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < producers; p++ {
		go func(p int) {
			prod := job.Producer(p)
			i := 0
			for b := 0; b < bursts; b++ {
				if b > 0 {
					time.Sleep(25 * time.Millisecond) // calm between bursts: the pool drains
				}
				for k := 0; k < burstBlocks; k++ {
					data := NewPayload(blockBytes)
					data[0], data[blockBytes-1] = byte(i), byte(i>>8)
					prod.Write(i, 0, data)
					i++
				}
			}
			prod.Close()
		}(p)
	}
	// A 200µs yielding analyze per block keeps the consumers well behind
	// the memory-speed bursts: the tier backlogs (occupancy + spills), the
	// scaler grows, and the calm between bursts lets it drain again.
	counts := drainConsumers(t, job, 2, 200*time.Microsecond)
	job.Wait()

	total := int64(producers) * bursts * burstBlocks
	if got := counts[0] + counts[1]; got != total {
		t.Fatalf("analyzed %d blocks across churn, want %d", got, total)
	}
	st := job.Stats()
	if st.BlocksRelayed != total {
		t.Fatalf("RouteStaging relayed %d of %d blocks", st.BlocksRelayed, total)
	}
	grows := 0
	for _, ev := range st.ScaleEvents {
		if ev.Action == "grow" {
			grows++
		}
	}
	if grows == 0 {
		t.Fatal("the bursts never grew the pool — no membership churn was exercised")
	}
	if st.RelayImbalance <= 0 {
		t.Fatalf("RelayImbalance = %v, want > 0 with relay traffic", st.RelayImbalance)
	}
}
