package zipper

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"zipper/internal/workflow"
)

// slowControlConfig is a fault-protected elastic job whose controllers tick
// slowly: a 100 ms heartbeat and sweep, a 50 ms scaler. A shutdown that
// waited for any of them to come round would take that long.
func slowControlConfig(dir string) Config {
	return Config{
		Producers: 2, Consumers: 1, SpoolDir: dir,
		BufferBlocks: 16, MaxBatchBlocks: 8, DisableSteal: true,
		Staging: StagingConfig{Stagers: 2, BufferBlocks: 64, RoutePolicy: RouteStaging, Placement: LeastOccupancy,
			Elastic: ElasticConfig{Enabled: true, MinStagers: 1, MaxStagers: 2, Interval: 50 * time.Millisecond}},
		Fault: FaultConfig{Enabled: true, Heartbeat: 100 * time.Millisecond, LeaseTTL: time.Second},
	}
}

// TestJobWaitContext: WaitContext gives up at its deadline while a consumer
// has paused its reads, without abandoning the job — once the consumer
// resumes, Wait completes it, and a second WaitContext agrees.
func TestJobWaitContext(t *testing.T) {
	const blocks = 64
	job, err := NewJob(Config{Producers: 1, Consumers: 1, SpoolDir: t.TempDir(),
		BufferBlocks: 4, Window: 1, DisableSteal: true})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		p := job.Producer(0)
		for s := 0; s < blocks; s++ {
			p.Write(s, 0, NewPayload(256))
		}
		p.Close()
	}()
	resume := make(chan struct{})
	read := make(chan int)
	go func() {
		n := 0
		for {
			if n == blocks/4 {
				<-resume
			}
			blk, ok := job.Consumer(0).Read()
			if !ok {
				break
			}
			blk.Release()
			n++
		}
		read <- n
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := job.WaitContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitContext with the consumer paused = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d >= 100*time.Millisecond {
		t.Fatalf("WaitContext returned %v after a 50ms deadline", d)
	}
	close(resume)
	job.Wait()
	if n := <-read; n != blocks {
		t.Fatalf("consumer read %d blocks, want %d", n, blocks)
	}
	if err := job.Err(); err != nil {
		t.Fatalf("Err after Wait = %v", err)
	}
	if err := job.WaitContext(ctx); err != nil {
		t.Fatalf("WaitContext after Wait = %v, want nil: the job has finished", err)
	}
}

// TestNoGoroutineOutlivesWait: every runtime goroutine of a fault-protected
// elastic job is gone 10 ms after Job.Wait returns, and every one of a
// two-tenant fleet 10 ms after Fleet.Close — heartbeats, the failure
// detector, the scaler and the control plane stop on the shutdown, not on
// their next tick (100 ms and 50 ms away here).
func TestNoGoroutineOutlivesWait(t *testing.T) {
	const (
		producers = 2
		consumers = 1
		blocks    = 200
		payload   = 512
	)
	before := runtime.NumGoroutine()
	job, err := NewJob(slowControlConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if n := runFleetWorkload(t, job, producers, consumers, blocks, payload); n != producers*blocks {
		t.Fatalf("analyzed %d blocks, want %d", n, producers*blocks)
	}
	settleGoroutines(t, before, 10*time.Millisecond) // after Job.Wait

	before = runtime.NumGoroutine()
	fleet, err := NewFleet(FleetConfig{Stagers: 2, StagerBufferBlocks: 32, SpoolDir: t.TempDir(),
		Reconcile: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		j, err := fleet.Submit(Config{Producers: producers, Consumers: consumers, BufferBlocks: 8, MaxBatchBlocks: 4,
			DisableSteal: true, Staging: StagingConfig{RoutePolicy: RouteStaging}})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n := runFleetWorkload(t, j, producers, consumers, blocks, payload); n != producers*blocks {
				t.Errorf("tenant analyzed %d blocks, want %d", n, producers*blocks)
			}
		}()
	}
	wg.Wait()
	fleet.Close()
	settleGoroutines(t, before, 10*time.Millisecond) // after Fleet.Close
}

// TestPromptShutdown: a job whose failure detector sweeps every 100 ms and
// whose scaler ticks every 50 ms still ends when its data does. On the real
// platform Wait returns within 20 ms of the consumer's final Read; on the
// simulator the same Spec's run ends at the instant the last stager drains
// (after the analysis has returned: the Retire crosses the fabric) — no
// control thread is left sleeping past it.
func TestPromptShutdown(t *testing.T) {
	const (
		producers = 2
		blocks    = 96
		payload   = 256
	)
	cfg := slowControlConfig(t.TempDir())

	t.Run("realenv", func(t *testing.T) {
		job, err := NewJob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < producers; i++ {
			go func(p *Producer) {
				for s := 0; s < blocks; s++ {
					p.Write(s, 0, NewPayload(payload))
				}
				p.Close()
			}(job.Producer(i))
		}
		finalRead := make(chan time.Time, 1)
		go func() {
			for {
				blk, ok := job.Consumer(0).Read()
				if !ok {
					finalRead <- time.Now()
					return
				}
				blk.Release()
			}
		}()
		job.Wait()
		waited := time.Now()
		if d := waited.Sub(<-finalRead); d >= 20*time.Millisecond {
			t.Fatalf("Wait returned %v after the consumer's final Read, want < 20ms", d)
		}
		if st := job.Stats(); st.BlocksAnalyzed != producers*blocks || st.Evictions != 0 {
			t.Fatalf("analyzed %d of %d blocks, %d evictions", st.BlocksAnalyzed, producers*blocks, st.Evictions)
		}
	})

	t.Run("simenv", func(t *testing.T) {
		res := workflow.RunAssembly(testrig(blocks, payload), cfg.spec())
		if !res.OK {
			t.Fatalf("simenv run failed: %s", res.Fail)
		}
		if res.BlocksAnalyzed != producers*blocks || res.Evictions != 0 {
			t.Fatalf("analyzed %d of %d blocks, %d evictions", res.BlocksAnalyzed, producers*blocks, res.Evictions)
		}
		if res.E2E != res.DataEnd {
			t.Fatalf("the run ended at %v, %v after the data did: a control thread slept past it",
				res.E2E, res.E2E-res.DataEnd)
		}
	})
}
