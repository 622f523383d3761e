package zipper

import (
	"testing"
	"time"
)

// TestElasticConfigValidation pins the rejection of inconsistent elastic
// bounds before any runtime thread starts.
func TestElasticConfigValidation(t *testing.T) {
	dir := t.TempDir()
	base := Config{
		Producers: 4, Consumers: 1, SpoolDir: dir,
		Staging: StagingConfig{Stagers: 4, RoutePolicy: RouteHybrid, Elastic: ElasticConfig{Enabled: true}},
	}
	job, err := NewJob(base)
	if err != nil {
		t.Fatalf("valid elastic config rejected: %v", err)
	}
	// Shut the valid job down: its scaler would otherwise keep ticking, and
	// allocating, under every test that runs after this one.
	for i := 0; i < base.Producers; i++ {
		job.Producer(i).Close()
	}
	job.Wait()
	bad := []struct {
		name string
		mut  func(*Config)
	}{
		{"elastic without stagers", func(c *Config) { c.Staging.Stagers = 0 }},
		{"elastic with RouteDirect", func(c *Config) { c.Staging.RoutePolicy = RouteDirect }},
		{"min above max", func(c *Config) { c.Staging.Elastic.MinStagers = 3; c.Staging.Elastic.MaxStagers = 2 }},
		{"max above ceiling", func(c *Config) { c.Staging.Elastic.MaxStagers = 5 }},
		{"min above ceiling", func(c *Config) { c.Staging.Elastic.MinStagers = 5 }},
		{"bounds above producer-clamped ceiling", func(c *Config) {
			c.Producers = 2 // the tier never outnumbers producers: effective ceiling 2
			c.Staging.Elastic.MinStagers, c.Staging.Elastic.MaxStagers = 4, 4
		}},
		{"negative bounds", func(c *Config) { c.Staging.Elastic.MinStagers = -1 }},
		{"negative interval", func(c *Config) { c.Staging.Elastic.Interval = -time.Millisecond }},
	}
	for _, tc := range bad {
		cfg := base
		tc.mut(&cfg)
		if _, err := NewJob(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
}

// elasticChurnRun drives a bursty workload through an elastic job whose
// scaler is tuned fast enough that the pool grows during every burst and
// drains during every pause — membership changes happen while producers are
// mid-send, which is exactly what the -race run checks. tcpAddr is the job's
// Config.TCPAddr: empty for the in-process wire.
func elasticChurnRun(t *testing.T, tcpAddr string) JobStats {
	t.Helper()
	const (
		producers   = 4
		bursts      = 3
		burstBlocks = 150
		blockBytes  = 8 << 10
		pause       = 100 * time.Millisecond
		analyze     = 50 * time.Microsecond
	)
	job, err := NewJob(Config{
		Producers: producers, Consumers: 1, SpoolDir: t.TempDir(), TCPAddr: tcpAddr,
		BufferBlocks: 16, Window: 2, MaxBatchBlocks: 4,
		DisableSteal: true,
		Staging: StagingConfig{
			Stagers: 4, BufferBlocks: 32, RoutePolicy: RouteStaging,
			Elastic: ElasticConfig{
				Enabled: true, MinStagers: 1, MaxStagers: 4,
				Interval: 500 * time.Microsecond, Cooldown: 2 * time.Millisecond,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var sink byte
		for {
			blk, ok := job.Consumer(0).Read()
			if !ok {
				_ = sink
				return
			}
			sink ^= blk.Data[0]
			for t0 := time.Now(); time.Since(t0) < analyze; {
			}
			blk.Release()
		}
	}()
	for p := 0; p < producers; p++ {
		go func(p int) {
			prod := job.Producer(p)
			i := 0
			for b := 0; b < bursts; b++ {
				if b > 0 {
					time.Sleep(pause)
				}
				for k := 0; k < burstBlocks; k++ {
					data := NewPayload(blockBytes)
					data[0] = byte(i)
					prod.Write(i, 0, data)
					i++
				}
			}
			prod.Close()
		}(p)
	}
	<-done
	job.Wait()
	return job.Stats()
}

// TestElasticJobMembershipChurn is the real-platform stress of the elastic
// tier: pool membership changes while producers are mid-send must lose no
// block, every relayed block must reach the consumer through whatever
// stager held it, and the retired instances must stay visible in the stats.
// It runs on both wires: over TCP every drain's Retire waits on the
// producers' connections.
func TestElasticJobMembershipChurn(t *testing.T) {
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			st := elasticChurnRun(t, w.tcpAddr)
			const total = 4 * 3 * 150
			if st.BlocksAnalyzed != total {
				t.Fatalf("analyzed %d of %d blocks", st.BlocksAnalyzed, total)
			}
			if st.BlocksRelayed != total || st.BlocksSent != 0 {
				t.Fatalf("RouteStaging split wrong: relayed=%d sent=%d want %d/0",
					st.BlocksRelayed, st.BlocksSent, total)
			}
			var in, fwd int64
			for i, sg := range st.Stagers {
				in += sg.BlocksIn
				fwd += sg.BlocksForwarded
				if !sg.Drained {
					t.Errorf("stager instance %d not marked Drained after Wait", i)
				}
			}
			if in != total || fwd != total {
				t.Fatalf("staging tier conservation broken: in=%d forwarded=%d want %d", in, fwd, total)
			}
			var grows, drains int
			for _, ev := range st.ScaleEvents {
				switch ev.Action {
				case "grow":
					grows++
				case "drain":
					drains++
				default:
					t.Fatalf("unknown scale action %q", ev.Action)
				}
				if ev.PoolSize < 1 || ev.PoolSize > 4 {
					t.Fatalf("pool size %d escaped [1,4]", ev.PoolSize)
				}
			}
			if grows == 0 {
				t.Error("the scaler never grew the pool under a saturating burst")
			}
			if drains == 0 {
				t.Error("the scaler never drained the pool during a pause")
			}
			if st.StagerNodeSeconds <= 0 {
				t.Errorf("StagerNodeSeconds = %v, want > 0", st.StagerNodeSeconds)
			}
		})
	}
}

// TestElasticStagerStatsSpillVolume checks the new spill-volume counter: a
// deliberately tiny stager buffer under a pure-relay burst must overflow,
// and the spilled bytes must be the spilled block count times the block
// size.
func TestElasticStagerStatsSpillVolume(t *testing.T) {
	st := elasticChurnRun(t, "")
	var spills, bytes int64
	for _, sg := range st.Stagers {
		spills += sg.BlocksSpilled
		bytes += sg.SpilledBytes
	}
	if spills == 0 {
		t.Skip("no spills this run (scheduler kept the tier ahead); volume check not exercised")
	}
	if bytes != spills*(8<<10) {
		t.Fatalf("SpilledBytes = %d for %d spilled 8KiB blocks, want %d", bytes, spills, spills*(8<<10))
	}
}
