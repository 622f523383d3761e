package zipper

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// wires are the two wires a job runs on: the in-process network and real TCP
// sockets on loopback. A test that takes the wire as an input runs on each.
var wires = []struct{ name, tcpAddr string }{{"in-process", ""}, {"tcp", "127.0.0.1:0"}}

// TestWireValidation pins the typed rejections the wire-path options add:
// reduction needs a reachable staging tier. TCP adds none: a tier that
// drains and evicts stagers mid-run is accepted over it, and starts and
// stops cleanly.
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
	job, err := NewJob(Config{Producers: 4, Consumers: 1, SpoolDir: dir, TCPAddr: "127.0.0.1:0",
		Staging: StagingConfig{Stagers: 2, RoutePolicy: RouteStaging, Elastic: ElasticConfig{Enabled: true}},
		Fault:   FaultConfig{Enabled: true}})
	if err != nil {
		t.Fatalf("an elastic, fault-tolerant tier over TCP rejected: %v", err)
	}
	for i := 0; i < 4; i++ {
		job.Producer(i).Close()
	}
	if _, ok := job.Consumer(0).Read(); ok {
		t.Error("a block arrived from producers that wrote none")
	}
	job.Wait()
	if err := job.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestJobTCPPlacedTier runs a TCP job's staging tier under every placement
// and under a fixed and a signal-driven routing policy, and once more elastic
// and fault-tolerant with a stager crashed mid-stream: the relayed blocks land wherever the policy put them, the
// direct Fins declare them, the recovery reader replays what the crash
// stranded, and the control port's fence (every producer connection's
// frames deposited before a Retire goes out) keeps the shutdown sweep's and
// the eviction's Retire from overtaking a frame: Wait runs while the
// consumers still read. Every block must be analysed exactly once, byte for
// byte as written, and none lost.
func TestJobTCPPlacedTier(t *testing.T) {
	const producers, consumers, blocks, blockBytes = 4, 2, 150, 512
	type tier struct {
		placement Placement
		route     RoutePolicy
		fault     bool // elastic and fault-tolerant, slot 0 crashed mid-stream
	}
	var tiers []tier
	for _, placement := range []Placement{RankAffine, LeastOccupancy} {
		for _, route := range []RoutePolicy{RouteStaging, RouteAdaptive} {
			tiers = append(tiers, tier{placement, route, false})
		}
	}
	tiers = append(tiers, tier{LeastOccupancy, RouteStaging, true})
	for _, tr := range tiers {
		placement, route, prefix := tr.placement, tr.route, ""
		if tr.fault {
			prefix = "elastic-fault/"
		}
		t.Run(fmt.Sprintf("%s%v/%v", prefix, placement, route), func(t *testing.T) {
			cfg := Config{
				Producers: producers, Consumers: consumers, SpoolDir: t.TempDir(),
				TCPAddr: "127.0.0.1:0", BufferBlocks: 8, MaxBatchBlocks: 4,
				Staging: StagingConfig{Stagers: 2, BufferBlocks: 32, RoutePolicy: route,
					Placement: placement},
			}
			if tr.fault {
				// The pool starts at one stager and may grow to two.
				cfg.Staging.Elastic = ElasticConfig{Enabled: true, MinStagers: 1}
				cfg.Fault = FaultConfig{Enabled: true, Heartbeat: 2 * time.Millisecond, LeaseTTL: 25 * time.Millisecond}
			}
			job, err := NewJob(cfg)
			if err != nil {
				t.Fatal(err)
			}
			payload := func(rank, step, j int) byte { return byte(rank*31 + step*7 + j) }
			crashed := make(chan bool, 1)
			for i := 0; i < producers; i++ {
				go func(p *Producer) {
					injected := false
					for s := 0; s < blocks; s++ {
						if tr.fault && i == 0 && s == blocks/2 {
							// Mid-stream, so the job is running: Wait's
							// shutdown starts only once every producer
							// has closed. The 2 ms heartbeat makes false
							// positives; a Kill that lands while the
							// detector recovers one waits for the
							// respawn and kills the replacement.
							injected = job.InjectStagerCrash(0)
						}
						data := NewPayload(blockBytes)
						for j := range data {
							data[j] = payload(i, s, j)
						}
						p.Write(s, 0, data)
					}
					if tr.fault && i == 0 {
						crashed <- injected
					}
					p.Close()
				}(job.Producer(i))
			}
			waited := make(chan struct{})
			go func() {
				job.Wait()
				close(waited)
			}()
			var mu sync.Mutex
			seen := map[BlockID]int{}
			var readers sync.WaitGroup
			for q := 0; q < consumers; q++ {
				readers.Add(1)
				go func(c *Consumer) {
					defer readers.Done()
					for {
						blk, ok := c.Read()
						if !ok {
							return
						}
						if len(blk.Data) != blockBytes {
							t.Errorf("block %+v arrived with %d bytes, want %d", blk.ID, len(blk.Data), blockBytes)
						}
						for j, v := range blk.Data {
							if v != payload(blk.ID.Rank, blk.ID.Step, j) {
								t.Errorf("block %+v damaged at byte %d", blk.ID, j)
								break
							}
						}
						mu.Lock()
						seen[blk.ID]++
						mu.Unlock()
						blk.Release()
					}
				}(job.Consumer(q))
			}
			read := make(chan struct{})
			go func() {
				readers.Wait()
				close(read)
			}()
			deadline := time.After(30 * time.Second)
			for _, done := range []chan struct{}{read, waited} {
				select {
				case <-done:
				case <-deadline:
					t.Fatal("a block never arrived: did a Retire overtake its frame?")
				}
			}
			if err := job.Err(); err != nil {
				t.Fatal(err)
			}
			for id, n := range seen {
				if n != 1 {
					t.Errorf("block %+v analysed %d times", id, n)
				}
			}
			st := job.Stats()
			if len(seen) != producers*blocks || st.BlocksAnalyzed != producers*blocks {
				t.Fatalf("%d distinct blocks analysed (%d in all), want %d", len(seen), st.BlocksAnalyzed, producers*blocks)
			}
			// A crash can leave the pool empty for a while, and a producer
			// then sends direct.
			if route == RouteStaging && !tr.fault && st.BlocksRelayed+st.BlocksStolen != producers*blocks {
				t.Fatalf("relayed %d and stole %d of %d blocks under %v", st.BlocksRelayed, st.BlocksStolen, producers*blocks, route)
			}
			if tr.fault {
				if !<-crashed {
					t.Fatal("no stager crash could be injected mid-stream")
				}
				if st.BlocksLost != 0 || st.Evictions < 1 {
					t.Fatalf("BlocksLost = %d and Evictions = %d after a crash, want 0 and ≥ 1", st.BlocksLost, st.Evictions)
				}
				t.Logf("the crash's recovery replayed %d blocks; %d scale events", st.ReplayedBlocks, len(st.ScaleEvents))
			}
		})
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

// TestJobParallelReduceIdentity turns on the parallel reduction pipeline and
// checks the conservation law the reduction accounting has always obeyed:
// every raw payload byte is either carried on the wire or reduced away,
// across both relay legs (producer→stager, stager→consumer).
func TestJobParallelReduceIdentity(t *testing.T) {
	const (
		producers  = 4
		blocks     = 60
		blockBytes = 8 << 10
	)
	job, err := NewJob(Config{
		Producers: producers, Consumers: 1, SpoolDir: t.TempDir(),
		BufferBlocks: 16, Window: 2, MaxBatchBlocks: 8, DisableSteal: true,
		Staging: StagingConfig{
			Stagers: 1, BufferBlocks: producers * blocks,
			RoutePolicy: RouteStaging,
			Reduce:      ReduceConfig{Operator: ReduceCompress, Workers: -1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	delivered := 0
	go func() {
		defer close(done)
		for {
			blk, ok := job.Consumer(0).Read()
			if !ok {
				return
			}
			want := byte((0 / 64) + blk.ID.Step + blk.ID.Rank)
			if blk.Data[0] != want {
				t.Errorf("block %+v did not round-trip through parallel reduction", blk.ID)
			}
			delivered++
			blk.Release()
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			prod := job.Producer(p)
			for i := 0; i < blocks; i++ {
				data := NewPayload(blockBytes)
				for j := range data {
					data[j] = byte((j / 64) + i + p)
				}
				prod.Write(i, 0, data)
			}
			prod.Close()
		}()
	}
	wg.Wait()
	<-done
	job.Wait()
	if delivered != producers*blocks {
		t.Fatalf("delivered %d blocks, want %d", delivered, producers*blocks)
	}
	st := job.Stats()
	raw := 2 * int64(producers*blocks) * int64(blockBytes)
	if st.BytesOnWire+st.BytesReduced != raw {
		t.Fatalf("accounting leak: %d on wire + %d reduced != %d raw",
			st.BytesOnWire, st.BytesReduced, raw)
	}
	if st.BytesReduced == 0 {
		t.Fatal("compressible payload reduced nothing")
	}
}
