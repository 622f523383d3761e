package zipper

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// runRingWorkload drives a deterministic staged workload (every producer
// writes the same byte(i^s)-patterned blocks, everything relays through the
// tier) and returns the delivered payload signature keyed by (rank, step)
// plus the job-wide stats. The signature is what the ring pin compares:
// the transport underneath must not change a single delivered byte.
func runRingWorkload(t *testing.T, mut func(*Config)) (map[[2]int]byte, JobStats) {
	t.Helper()
	cfg := Config{
		Producers: 4, Consumers: 2, SpoolDir: t.TempDir(),
		BufferBlocks: 8, Window: 2, MaxBatchBlocks: 4, DisableSteal: true,
		Staging: StagingConfig{
			Stagers: 2, BufferBlocks: 16, RoutePolicy: RouteStaging,
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 120
	var wg sync.WaitGroup
	for i := 0; i < cfg.Producers; i++ {
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
	var mu sync.Mutex
	got := make(map[[2]int]byte)
	var cwg sync.WaitGroup
	for q := 0; q < cfg.Consumers; q++ {
		q := q
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				blk, ok := job.Consumer(q).Read()
				if !ok {
					return
				}
				want := byte(blk.ID.Rank ^ blk.ID.Step)
				for _, v := range blk.Data {
					if v != want {
						t.Errorf("block %+v corrupted (got %d want %d)", blk.ID, v, want)
						break
					}
				}
				mu.Lock()
				got[[2]int{blk.ID.Rank, blk.ID.Step}] = blk.Data[0]
				mu.Unlock()
				blk.Release()
				time.Sleep(20 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	cwg.Wait()
	job.Wait()
	if len(got) != cfg.Producers*blocks {
		t.Fatalf("delivered %d distinct blocks, want %d", len(got), cfg.Producers*blocks)
	}
	return got, job.Stats()
}

// TestJobRingOffPin is the ring-off pin: RingDepth 0 (the channel transport,
// byte-identical to every job before the ring existed) and RingDepth 64 (the
// SPSC fast path) must deliver exactly the same blocks with the same
// payloads and the same end-to-end accounting. Only the transport under the
// inboxes differs; nothing observable may.
func TestJobRingOffPin(t *testing.T) {
	off, offStats := runRingWorkload(t, nil)
	on, onStats := runRingWorkload(t, func(c *Config) { c.Staging.RingDepth = 64 })
	if len(off) != len(on) {
		t.Fatalf("channel run delivered %d blocks, ring run %d", len(off), len(on))
	}
	for id, v := range off {
		rv, ok := on[id]
		if !ok {
			t.Fatalf("ring run missing block %v", id)
		}
		if rv != v {
			t.Fatalf("block %v payload differs across transports", id)
		}
	}
	for _, tc := range []struct {
		name     string
		off, on  int64
		mustZero bool
	}{
		{"BlocksWritten", offStats.BlocksWritten, onStats.BlocksWritten, false},
		{"BlocksAnalyzed", offStats.BlocksAnalyzed, onStats.BlocksAnalyzed, false},
		{"BlocksSent", offStats.BlocksSent, onStats.BlocksSent, true},
	} {
		if tc.off != tc.on {
			t.Fatalf("%s differs: channel %d, ring %d", tc.name, tc.off, tc.on)
		}
		if tc.mustZero && tc.on != 0 {
			t.Fatalf("%s nonzero (%d) under RouteStaging", tc.name, tc.on)
		}
	}
	if onStats.BlocksRelayed == 0 {
		t.Fatal("ring run relayed nothing; the staged path was not exercised")
	}
}

// TestJobRingTCP runs the same staged workload with the ring transport
// behind the frame-v5 TCP listener: accepted-connection readers and the
// stager loopback forwarders each get their own SPSC lane.
func TestJobRingTCP(t *testing.T) {
	got, st := runRingWorkload(t, func(c *Config) {
		c.TCPAddr = "127.0.0.1:0"
		c.Staging.RingDepth = 64
	})
	if len(got) == 0 {
		t.Fatal("no blocks delivered")
	}
	if st.BlocksSent != 0 {
		t.Fatalf("RouteStaging sent %d blocks direct", st.BlocksSent)
	}
	if st.BlocksRelayed != st.BlocksWritten {
		t.Fatalf("relayed %d of %d written blocks", st.BlocksRelayed, st.BlocksWritten)
	}
}

// TestJobRingParallelReduceIdentity turns on both halves of the fast path —
// the ring transport and the parallel reduction pipeline — and checks the
// conservation law the reduction accounting has always obeyed: every raw
// payload byte is either carried on the wire or reduced away, across both
// relay legs (producer→stager, stager→consumer).
func TestJobRingParallelReduceIdentity(t *testing.T) {
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
			RingDepth:   64,
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

// TestRingDepthValidation pins the config surface: a negative depth is a
// ConfigError naming the field, zero and positive depths are accepted.
func TestRingDepthValidation(t *testing.T) {
	cfg := Config{
		Producers: 1, Consumers: 1, SpoolDir: t.TempDir(),
		Staging: StagingConfig{RingDepth: -1},
	}
	_, err := NewJob(cfg)
	if err == nil {
		t.Fatal("NewJob accepted RingDepth -1")
	}
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "Staging.RingDepth" {
		t.Fatalf("RingDepth -1 error = %v, want ConfigError on Staging.RingDepth", err)
	}
	cfg.Staging.RingDepth = 4
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatalf("NewJob rejected RingDepth 4: %v", err)
	}
	job.Producer(0).Close()
	for {
		if _, ok := job.Consumer(0).Read(); !ok {
			break
		}
	}
	job.Wait()
}

// TestJobRingWindowBoundsInFlight is the regression for the ring lanes that
// ignored Window: RingDepth used to size every lane, so RingDepth: 1024 let
// one sender park 1024 messages × MaxBatchBlocks blocks in front of a stalled
// consumer (over 1 GB at 16 KiB blocks). A lane holds min(RingDepth, Window)
// messages, so what the job can hold in flight is bounded by the buffers the
// Config names. Counted in blocks, not RSS.
func TestJobRingWindowBoundsInFlight(t *testing.T) {
	cfg := Config{
		Producers: 1, Consumers: 1, SpoolDir: t.TempDir(),
		BufferBlocks: 16, ConsumerBufferBlocks: 16, Window: 4, MaxBatchBlocks: 8, DisableSteal: true,
		Staging: StagingConfig{RingDepth: 1024},
	}
	// The lane, plus the message in the receiver's hands.
	stalledConsumerHolds(t, cfg, cfg.Window+1)
}

// TestJobTCPWindowBoundsInFlight is the same regression for the third
// transport. A TCP connection used to be bounded by the kernel's socket
// buffers and the listener's 1 MiB read buffer alone — hundreds of frames of
// small or well-compressed blocks, whatever Window said. A connection now
// holds Window unacknowledged messages beyond what the endpoint holds.
func TestJobTCPWindowBoundsInFlight(t *testing.T) {
	cfg := Config{
		Producers: 1, Consumers: 1, SpoolDir: t.TempDir(), TCPAddr: "127.0.0.1:0",
		BufferBlocks: 16, ConsumerBufferBlocks: 16, Window: 4, MaxBatchBlocks: 8, DisableSteal: true,
	}
	// The connection, then the endpoint: its inbox and the message in the
	// receiver's hands.
	stalledConsumerHolds(t, cfg, cfg.Window+cfg.Window+1)
}

// stalledConsumerHolds writes 4000 blocks at a consumer that reads nothing
// and checks, on every sample until the producer has wedged, that no more
// than laneMsgs messages' worth of blocks sit between the producer's sender
// and the consumer's receiver — and that the whole job holds no more than
// that plus the buffers the Config names. Then it drains the job.
func stalledConsumerHolds(t *testing.T, cfg Config, laneMsgs int) {
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 4000
	go func() {
		p := job.Producer(0)
		for s := 0; s < blocks; s++ {
			p.Write(s, 0, NewPayload(256))
		}
		p.Close()
	}()
	// Sample until no Write has been accepted for 50 ms.
	laneBound := int64(laneMsgs * cfg.MaxBatchBlocks)
	var written int64
	deadline := time.Now().Add(10 * time.Second)
	for quiet := 0; quiet < 50; {
		if time.Now().After(deadline) {
			t.Fatal("the producer never wedged against a stalled consumer")
		}
		st := job.Stats()
		if lane := st.Producers[0].BlocksSent - st.Consumers[0].BlocksReceived; lane > laneBound {
			t.Fatalf("%d blocks in the lane, at most %d fit %d messages × %d blocks",
				lane, laneBound, laneMsgs, cfg.MaxBatchBlocks)
		}
		if st.BlocksWritten == written {
			quiet++
		} else {
			written, quiet = st.BlocksWritten, 0
		}
		time.Sleep(time.Millisecond)
	}
	// Producer buffer + the batch in the sender's hands + lane + consumer buffer.
	held := int64(cfg.BufferBlocks+cfg.MaxBatchBlocks+cfg.ConsumerBufferBlocks) + laneBound
	if written < int64(cfg.BufferBlocks+cfg.ConsumerBufferBlocks) || written > held {
		t.Fatalf("job holds %d blocks in front of a stalled consumer, want between %d and %d",
			written, cfg.BufferBlocks+cfg.ConsumerBufferBlocks, held)
	}
	delivered := 0
	for {
		blk, ok := job.Consumer(0).Read()
		if !ok {
			break
		}
		delivered++
		blk.Release()
	}
	job.Wait()
	if delivered != blocks {
		t.Fatalf("delivered %d blocks, want %d", delivered, blocks)
	}
}
