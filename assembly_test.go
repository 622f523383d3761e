package zipper

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"zipper/internal/workflow"
)

// TestSpecRunsOnBothPlatforms is what having one assembly buys: the
// assembly.Spec that NewJob derives from a Config (Config.spec, the only
// conversion there is) builds the same topology on the real machine and,
// unchanged, on the simulator. One row per tier shape; two are bench
// workload shapes (bench/workload.go), routed RouteStaging with stealing off
// so that the channel split is the same number on a wall clock and on a
// virtual one.
func TestSpecRunsOnBothPlatforms(t *testing.T) {
	const (
		producers = 2
		consumers = 1
		blocks    = 96
		payload   = 256
	)
	quietFault := FaultConfig{Enabled: true, Heartbeat: 10 * time.Millisecond, LeaseTTL: time.Second}
	for _, tc := range []struct {
		name    string
		staging StagingConfig
		window  int
		fault   FaultConfig
	}{
		{name: "no tier", window: 4},
		{name: "fixed", window: 2,
			staging: StagingConfig{Stagers: 1, BufferBlocks: 256, RoutePolicy: RouteStaging}},
		{name: "pool-managed + fault (relay-fault-flood)", window: 4, fault: quietFault,
			staging: StagingConfig{Stagers: 2, BufferBlocks: 256, RoutePolicy: RouteStaging,
				Placement: LeastOccupancy, RingDepth: 64}},
		{name: "elastic + least-occupancy (fullstack-bursty)", window: 2, fault: quietFault,
			staging: StagingConfig{Stagers: 2, BufferBlocks: 256, RoutePolicy: RouteStaging,
				Placement: LeastOccupancy, RingDepth: 64,
				Elastic: ElasticConfig{Enabled: true, MinStagers: 1, MaxStagers: 2},
				Reduce:  ReduceConfig{Operator: ReduceCompress, OnPressure: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Producers: producers, Consumers: consumers, SpoolDir: t.TempDir(),
				BufferBlocks: 16, MaxBatchBlocks: 8, Window: tc.window, DisableSteal: true,
				Staging: tc.staging, Fault: tc.fault,
			}
			const total = producers * blocks
			relayed := int64(total)
			if tc.staging.Stagers == 0 {
				relayed = 0
			}

			job, err := NewJob(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n := runFleetWorkload(t, job, producers, consumers, blocks, payload); n != total {
				t.Fatalf("realenv analyzed %d blocks, want %d", n, total)
			}
			real := job.Stats()

			sim := workflow.RunAssembly(testrig(blocks, payload), cfg.spec())
			if !sim.OK {
				t.Fatalf("simenv run failed: %s", sim.Fail)
			}

			type counts struct{ written, relayed, analyzed, lost int64 }
			want := counts{written: total, relayed: relayed, analyzed: total}
			if got := (counts{real.BlocksWritten, real.BlocksRelayed, real.BlocksAnalyzed, real.BlocksLost}); got != want {
				t.Errorf("realenv %+v, want %+v", got, want)
			}
			simWritten := sim.BlocksSent + sim.BlocksRelayed + sim.BlocksStolen
			if got := (counts{simWritten, sim.BlocksRelayed, sim.BlocksAnalyzed, sim.BlocksLost}); got != want {
				t.Errorf("simenv %+v, want %+v", got, want)
			}
		})
	}
}

// testrig is the simulated machine and application a Config's spec runs on
// in these tests: each producer writes `blocks` blocks of `payload` bytes,
// eight per 4 ms step; the runtime is the Config's.
func testrig(blocks, payload int) workflow.Spec {
	return workflow.Spec{
		Machine: workflow.Machine{
			Name: "testrig", CoresPerNode: 4, LinkBandwidth: 2e9, LinkLatency: 2 * time.Microsecond,
			NodesPerLeaf: 8, MTU: 512 << 10, OSTs: 2, OSTBandwidth: 1e9, MemBandwidth: 10e9,
		},
		Workload: workflow.Workload{
			Steps: blocks / 8, StepTime: 4 * time.Millisecond,
			BytesPerStep: int64(8 * payload), BlockBytes: int64(payload),
			AnalyzePerByte: 2 * time.Nanosecond,
		},
		StagingNodes: 2,
	}
}

// settleGoroutines waits up to `within` for the goroutine count to come back
// down to `want`: closed connections unwind their reader threads
// asynchronously.
func settleGoroutines(t *testing.T, want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running %v later, %d before the call:\n%s",
				runtime.NumGoroutine(), within, want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNewJobErrorLeavesNothingRunning: a spool partition that cannot be
// created fails NewJob after the TCP listener is bound and every producer
// has dialed it. The error must release all of that — no listener, no
// connection, no runtime thread parked on Recv.
func TestNewJobErrorLeavesNothingRunning(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "stage0"), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	job, err := NewJob(Config{
		Producers: 2, Consumers: 1, SpoolDir: dir, TCPAddr: "127.0.0.1:0",
		Staging: StagingConfig{Stagers: 1, RoutePolicy: RouteStaging},
	})
	if err == nil {
		job.Producer(0).Close()
		job.Producer(1).Close()
		job.Wait()
		t.Fatal("NewJob succeeded over a spool whose stage0 partition is a regular file")
	}
	settleGoroutines(t, before, 5*time.Second)
}

// TestFleetSubmitSpoolFailureKeepsGuarantee: a Submit that fails on its
// spool partition must not hold on to the buffer guarantee it asked for —
// the next job asking for the whole fleet is admitted and runs.
func TestFleetSubmitSpoolFailureKeepsGuarantee(t *testing.T) {
	const (
		producers = 2
		consumers = 1
		blocks    = 60
		payload   = 128
	)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job0"), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	fleet, err := NewFleet(FleetConfig{Stagers: 1, StagerBufferBlocks: 16, SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	cfg := Config{
		Producers: producers, Consumers: consumers, BufferBlocks: 8, MaxBatchBlocks: 4, DisableSteal: true,
		Staging: StagingConfig{RoutePolicy: RouteStaging},
		Quota:   QuotaConfig{BufferBlocks: 16}, // the whole fleet
	}
	if _, err := fleet.Submit(cfg); err == nil {
		t.Fatal("Submit succeeded over a fleet spool whose job0 partition is a regular file")
	}
	cfg.SpoolDir = t.TempDir()
	job, err := fleet.Submit(cfg)
	if err != nil {
		t.Fatalf("the failed Submit kept its guarantee: %v", err)
	}
	if n := runFleetWorkload(t, job, producers, consumers, blocks, payload); n != producers*blocks {
		t.Fatalf("analyzed %d blocks, want %d", n, producers*blocks)
	}
	if st := job.Stats(); st.BlocksWritten != producers*blocks || st.BlocksAnalyzed+st.BlocksLost != st.BlocksWritten {
		t.Fatalf("conservation: written %d, analyzed %d, lost %d", st.BlocksWritten, st.BlocksAnalyzed, st.BlocksLost)
	}
}
