package zipper

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestWireValidation pins the typed rejections the wire-path options add:
// reduction needs a reachable staging tier, and pool-managed tiers cannot run
// over TCP.
func TestWireValidation(t *testing.T) {
	dir := t.TempDir()
	bad := []struct {
		name  string
		field string
		cfg   Config
	}{
		{"reduce without stagers", "Staging.Reduce",
			Config{Producers: 1, Consumers: 1, SpoolDir: dir,
				Staging: StagingConfig{Reduce: ReduceConfig{Operator: ReduceCompress}}}},
		{"reduce with RouteDirect", "Staging.Reduce",
			Config{Producers: 2, Consumers: 1, SpoolDir: dir,
				Staging: StagingConfig{Stagers: 1, Reduce: ReduceConfig{Operator: ReduceCompress}}}},
		{"elastic tier over TCP", "TCPAddr",
			Config{Producers: 4, Consumers: 1, SpoolDir: dir, TCPAddr: "127.0.0.1:0",
				Staging: StagingConfig{Stagers: 2, RoutePolicy: RouteStaging,
					Elastic: ElasticConfig{Enabled: true}}}},
		{"fault plane over TCP", "TCPAddr",
			Config{Producers: 4, Consumers: 1, SpoolDir: dir, TCPAddr: "127.0.0.1:0",
				Staging: StagingConfig{Stagers: 2, RoutePolicy: RouteStaging},
				Fault:   FaultConfig{Enabled: true}}},
		{"placement-directed tier over TCP", "TCPAddr",
			Config{Producers: 4, Consumers: 1, SpoolDir: dir, TCPAddr: "127.0.0.1:0",
				Staging: StagingConfig{Stagers: 2, RoutePolicy: RouteStaging,
					Placement: LeastOccupancy}}},
	}
	for _, tc := range bad {
		_, err := NewJob(tc.cfg)
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v is not a *ConfigError", tc.name, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("%s: rejected field %q, want %q", tc.name, ce.Field, tc.field)
		}
	}
}

// TestJobTCPStagedReduced runs a complete job over real TCP sockets with
// producer-side compression through the staging tier: the public-API
// integration of frame v5 (vectored writes, encoded descriptors) plus
// in-transit reduction. Every block must arrive intact and decoded, and the
// byte accounting must show the reduction on both wire legs.
func TestJobTCPStagedReduced(t *testing.T) {
	job, err := NewJob(Config{
		Producers: 2, Consumers: 1, SpoolDir: t.TempDir(),
		TCPAddr: "127.0.0.1:0",
		Staging: StagingConfig{Stagers: 1, BufferBlocks: 16, RoutePolicy: RouteStaging,
			Reduce: ReduceConfig{Operator: ReduceCompress}},
		BufferBlocks: 8, MaxBatchBlocks: 4, DisableSteal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 100
	const blockBytes = 1024
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := job.Producer(i)
			for s := 0; s < blocks; s++ {
				data := NewPayload(blockBytes)
				for j := range data {
					data[j] = byte(i ^ s) // constant per block: compresses hard
				}
				p.Write(s, 0, data)
			}
			p.Close()
		}()
	}
	n := 0
	for {
		blk, ok := job.Consumer(0).Read()
		if !ok {
			break
		}
		if len(blk.Data) != blockBytes {
			t.Fatalf("block %+v arrived with %d bytes, want %d", blk.ID, len(blk.Data), blockBytes)
		}
		want := byte(blk.ID.Rank ^ blk.ID.Step)
		for _, v := range blk.Data {
			if v != want {
				t.Fatalf("block %+v corrupted over the TCP relay", blk.ID)
			}
		}
		blk.Release()
		n++
		time.Sleep(50 * time.Microsecond)
	}
	wg.Wait()
	job.Wait()
	if err := job.Consumer(0).Err(); err != nil {
		t.Fatal(err)
	}
	if n != 2*blocks {
		t.Fatalf("analyzed %d blocks, want %d", n, 2*blocks)
	}
	st := job.Stats()
	if st.BlocksRelayed != 2*blocks || st.BlocksSent != 0 {
		t.Fatalf("channel split sent=%d relayed=%d, want 0/%d", st.BlocksSent, st.BlocksRelayed, 2*blocks)
	}
	raw := int64(2 * blocks * blockBytes)
	// Two wire legs (producer→stager over TCP, stager→consumer loopback),
	// both carrying the encoded payload: compression must at least halve
	// what the two raw legs would cost.
	if 2*st.BytesOnWire > 2*raw {
		t.Fatalf("BytesOnWire=%d, want at most half the %d two raw legs would cost", st.BytesOnWire, 2*raw)
	}
	if st.BytesReduced == 0 {
		t.Fatal("BytesReduced is zero despite compression on a constant payload")
	}
	if st.BytesOnWire+st.BytesReduced != 2*raw {
		t.Fatalf("accounting leak: %d on wire + %d reduced != %d", st.BytesOnWire, st.BytesReduced, 2*raw)
	}
}

// TestJobTCPCompressDecodeAllocs pins the reduce path at no allocations per
// block: a block that is compressed at the producer, framed over TCP, relayed
// and decoded at the consumer must cost the allocator exactly what the same
// trip costs unreduced. The codec works in the encoder's own table and
// scratch and decodes straight into a pooled payload, and the wire hands
// back what it carried — the sender its payloads and headers, the reader
// builds from the job's free list — so the whole trip allocates at most a
// few bytes per block.
func TestJobTCPCompressDecodeAllocs(t *testing.T) {
	const runs = 300
	cycleAllocs := func(op ReduceOperator) (mallocs, bytes float64) {
		job, err := NewJob(Config{
			Producers: 1, Consumers: 1, SpoolDir: t.TempDir(), TCPAddr: "127.0.0.1:0", DisableSteal: true,
			Staging: StagingConfig{Stagers: 1, RoutePolicy: RouteStaging, Reduce: ReduceConfig{Operator: op}},
		})
		if err != nil {
			t.Fatal(err)
		}
		p, c := job.Producer(0), job.Consumer(0)
		step := 0
		cycle := func() {
			data := NewPayload(64 << 10)
			for j := range data {
				data[j] = byte(step + j/64) // the benchmark's plateau field
			}
			p.Write(step, 0, data)
			step++
			blk, ok := c.Read()
			if !ok {
				t.Fatal("stream ended early")
			}
			if len(blk.Data) != 64<<10 || blk.Data[64] != byte(blk.ID.Step+1) {
				t.Fatalf("block %+v did not survive the trip", blk.ID)
			}
			blk.Release()
		}
		for i := 0; i < 20; i++ {
			cycle() // warm the payload pool, the encoder's scratch and the frame scratch
		}
		mallocs = testing.AllocsPerRun(runs, cycle)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			cycle()
		}
		runtime.ReadMemStats(&m1)
		bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / runs
		p.Close()
		if _, ok := c.Read(); ok {
			t.Error("block delivered after Close")
		}
		job.Wait()
		if op != ReduceNone && job.Stats().BytesReduced == 0 {
			t.Error("nothing was reduced")
		}
		return mallocs, bytes
	}
	raw, _ := cycleAllocs(ReduceNone)
	reduced, reducedBytes := cycleAllocs(ReduceCompress)
	t.Logf("per block: %.2f mallocs unreduced; %.2f mallocs, %.1f B compressed", raw, reduced, reducedBytes)
	slack := 0.0
	if raceEnabled {
		// Three more pooled payloads per block (encoded at the sender and
		// at the reader, raw at the decoder), a quarter of them dropped.
		slack = 1
	}
	if reduced > raw+slack {
		t.Errorf("a compressed block allocates %.0f times on its way through, an unreduced one %.0f: the reduce path must add none", reduced, raw)
	}
	// The pool the race detector thins out re-allocates whole payloads, so
	// the byte bound holds without it only.
	if !raceEnabled && reducedBytes > 64 {
		t.Errorf("a compressed block allocates %.0f B on its way through, want ≤ 64", reducedBytes)
	}
}
