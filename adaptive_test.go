package zipper

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRoutePolicyNames pins the policy names, including the descriptive
// rendering of out-of-range values (which used to read as "in-situ").
func TestRoutePolicyNames(t *testing.T) {
	cases := map[RoutePolicy]string{
		RouteDirect:     "in-situ",
		RouteStaging:    "in-transit",
		RouteHybrid:     "hybrid",
		RouteAdaptive:   "adaptive",
		RoutePolicy(7):  "unknown(7)",
		RoutePolicy(-3): "unknown(-3)",
	}
	for pol, want := range cases {
		if got := pol.String(); got != want {
			t.Errorf("RoutePolicy(%d).String() = %q, want %q", int(pol), got, want)
		}
	}
}

// TestAdaptiveConfigValidation covers the routing knob: RouteAdaptive needs a
// staging tier, and unknown policies are rejected with the descriptive name.
func TestAdaptiveConfigValidation(t *testing.T) {
	dir := t.TempDir()
	base := Config{Producers: 1, Consumers: 1, SpoolDir: dir}

	cfg := base
	cfg.Staging.RoutePolicy = RouteAdaptive
	if _, err := NewJob(cfg); err == nil {
		t.Error("RouteAdaptive without stagers accepted")
	}
	cfg = base
	cfg.Staging.RoutePolicy = RoutePolicy(9)
	if _, err := NewJob(cfg); err == nil || !strings.Contains(err.Error(), "unknown(9)") {
		t.Errorf("unknown policy error %v, want it to name unknown(9)", err)
	}
	cfg = base
	cfg.Staging.Stagers = 1
	cfg.Staging.RoutePolicy = RouteAdaptive
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatalf("legal adaptive config rejected: %v", err)
	}
	job.Producer(0).Close()
	for {
		if _, ok := job.Consumer(0).Read(); !ok {
			break
		}
	}
	job.Wait()
}

// TestJobAdaptiveRoundTrip runs the closed-loop policy, on the controller's
// fixed defaults, end to end on the real platform under a lagging consumer
// (with -race in CI this doubles as
// the concurrency test for the shared flow gauges: producers, stagers, and
// the stats reader all touch them at once). It also covers the new
// observability surface: stager occupancy in StagerStats and live EWMA
// rates in JobStats.
func TestJobAdaptiveRoundTrip(t *testing.T) {
	job, err := NewJob(Config{
		Producers: 2, Consumers: 1, SpoolDir: t.TempDir(),
		Staging:      StagingConfig{Stagers: 1, BufferBlocks: 64, RoutePolicy: RouteAdaptive},
		BufferBlocks: 8, Window: 1, MaxBatchBlocks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 200
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := job.Producer(i)
			for s := 0; s < blocks; s++ {
				data := NewPayload(256)
				for j := range data {
					data[j] = byte(i ^ s)
				}
				p.Write(s, 0, data)
			}
			p.Close()
		}()
	}
	// A stats poller races the runtime threads mid-flight: under -race this
	// proves Job.Stats' live gauges are safe while data moves.
	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := job.Stats()
			if len(st.Stagers) == 1 {
				ss := st.Stagers[0]
				if ss.Queued < 0 || ss.Queued > ss.Capacity {
					t.Errorf("stager occupancy out of range: %d/%d", ss.Queued, ss.Capacity)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	n := 0
	for {
		blk, ok := job.Consumer(0).Read()
		if !ok {
			break
		}
		want := byte(blk.ID.Rank ^ blk.ID.Step)
		for _, v := range blk.Data {
			if v != want {
				t.Fatalf("block %+v corrupted", blk.ID)
			}
		}
		blk.Release()
		n++
		time.Sleep(100 * time.Microsecond) // the lag that engages the controller
	}
	close(stop)
	poller.Wait()
	wg.Wait()
	job.Wait()
	if n != 2*blocks {
		t.Fatalf("analyzed %d blocks, want %d", n, 2*blocks)
	}
	st := job.Stats()
	if st.BlocksSent+st.BlocksRelayed+st.BlocksStolen != st.BlocksWritten {
		t.Fatalf("channel split %d+%d+%d != %d",
			st.BlocksSent, st.BlocksRelayed, st.BlocksStolen, st.BlocksWritten)
	}
	if st.BlocksRelayed == 0 {
		t.Fatal("adaptive routing never engaged the staging tier under a lagging consumer")
	}
	ss := st.Stagers[0]
	if ss.Capacity != 64 {
		t.Fatalf("stager capacity %d, want 64", ss.Capacity)
	}
	if ss.Queued != 0 {
		t.Fatalf("stager still holds %d blocks after drain", ss.Queued)
	}
}

// TestJobAdaptiveArbitratesDisk runs the three-channel election end to end on
// the real platform, on the shape that used to defeat it: bursts into a
// 16-block producer buffer, in front of two roomy ring-connected,
// fault-protected stagers whose relay send is a ring push that returns at
// once. The buffer sits above HighWater for most of every burst, and
// Algorithm 1 alone took that as the order to put three blocks in four
// through file-per-block disk while the stagers idled. With the router
// arbitrating, disk — a thousand times the relay's cost per byte here — keeps
// its exploring steal and its probes; every block is conserved either way.
func TestJobAdaptiveArbitratesDisk(t *testing.T) {
	const (
		producers  = 2
		bursts     = 6
		burst      = 400
		blockBytes = 32 << 10
	)
	job, err := NewJob(Config{
		Producers: producers, Consumers: 1, SpoolDir: t.TempDir(),
		BufferBlocks: 16, Window: 2, MaxBatchBlocks: 8,
		Staging: StagingConfig{Stagers: 2, BufferBlocks: 256, RoutePolicy: RouteAdaptive,
			Placement: LeastOccupancy, RingDepth: 64,
			Elastic: ElasticConfig{Enabled: true, MinStagers: 1, MaxStagers: 2},
			Reduce:  ReduceConfig{Operator: ReduceCompress, OnPressure: true}},
		Fault: FaultConfig{Enabled: true, Heartbeat: 10 * time.Millisecond, LeaseTTL: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := job.Producer(i)
			for s := 0; s < bursts; s++ {
				for b := 0; b < burst; b++ {
					data := NewPayload(blockBytes)
					for j := range data {
						data[j] = byte(i ^ s ^ b)
					}
					p.Write(s, int64(b)*blockBytes, data)
				}
				time.Sleep(20 * time.Millisecond) // the compute phase
			}
			p.Close()
		}()
	}
	seen := make(map[BlockID]bool, producers*bursts*burst)
	for {
		blk, ok := job.Consumer(0).Read()
		if !ok {
			break
		}
		if seen[blk.ID] {
			t.Fatalf("block %+v delivered twice", blk.ID)
		}
		seen[blk.ID] = true
		want := byte(blk.ID.Rank ^ blk.ID.Step ^ int(blk.Offset/blockBytes))
		if len(blk.Data) != blockBytes || blk.Data[0] != want || blk.Data[blockBytes-1] != want {
			t.Fatalf("block %+v corrupted", blk.ID)
		}
		blk.Release()
		for t0 := time.Now(); time.Since(t0) < 50*time.Microsecond; {
			// the analysis, which drains a burst during the compute phase
		}
	}
	wg.Wait()
	job.Wait()
	st := job.Stats()
	if want := int64(producers * bursts * burst); st.BlocksWritten != want || int64(len(seen)) != want {
		t.Fatalf("wrote %d and analyzed %d distinct blocks, want %d", st.BlocksWritten, len(seen), want)
	}
	if st.BlocksSent+st.BlocksRelayed+st.BlocksStolen != st.BlocksWritten {
		t.Fatalf("channel split %d+%d+%d != %d", st.BlocksSent, st.BlocksRelayed, st.BlocksStolen, st.BlocksWritten)
	}
	if len(st.FailoverEvents) != 0 {
		t.Fatalf("a healthy run evicted stagers: %+v", st.FailoverEvents)
	}
	if st.BlocksStolen*5 >= st.BlocksWritten {
		t.Fatalf("%d of %d blocks went through the file system (%d direct, %d relayed), want under a fifth",
			st.BlocksStolen, st.BlocksWritten, st.BlocksSent, st.BlocksRelayed)
	}
	t.Logf("%d direct, %d relayed, %d stolen of %d", st.BlocksSent, st.BlocksRelayed, st.BlocksStolen, st.BlocksWritten)
}
