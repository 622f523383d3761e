package zipper

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"zipper/internal/block"
)

// Public-API halves of the handover tests (internal/core has the rest): the
// routes that need an assembled staging tier, the application's handle on a
// recycled header, and the job-wide error.

// TestTrickleWriteIsDeliveredThroughStagers: one Write, no second Write, no
// Close — through a fixed stager and through a pool-managed one the block
// still reaches Read, because neither the producer nor the stager holds a
// lone block back for company.
func TestTrickleWriteIsDeliveredThroughStagers(t *testing.T) {
	for _, tc := range []struct {
		name      string
		placement Placement
	}{
		{"fixed", RankAffine},
		{"pool", LeastOccupancy},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job, err := NewJob(Config{Producers: 1, Consumers: 1, SpoolDir: t.TempDir(),
				BufferBlocks: 16, MaxBatchBlocks: 8, DisableSteal: true,
				Staging: StagingConfig{Stagers: 1, BufferBlocks: 32, RoutePolicy: RouteStaging, Placement: tc.placement}})
			if err != nil {
				t.Fatal(err)
			}
			p, c := job.Producer(0), job.Consumer(0)
			data := NewPayload(512)
			data[0] = 42
			p.Write(3, 0, data)
			got := make(chan Block, 1)
			go func() {
				if blk, ok := c.Read(); ok {
					got <- blk
				}
			}()
			select {
			case blk := <-got:
				if blk.ID.Step != 3 || len(blk.Data) != 512 || blk.Data[0] != 42 {
					t.Errorf("Read = %+v, want the block of step 3", blk.ID)
				}
				blk.Release()
			case <-time.After(10 * time.Second):
				t.Fatal("the only block written never reached Read")
			}
			p.Close()
			if _, ok := c.Read(); ok {
				t.Error("block delivered after Close")
			}
			job.Wait()
			if st := job.Stats(); st.BlocksRelayed != 1 || st.BlocksAnalyzed != 1 || job.Err() != nil {
				t.Errorf("relayed %d, analyzed %d, err %v; want 1, 1, nil", st.BlocksRelayed, st.BlocksAnalyzed, job.Err())
			}
		})
	}
}

// TestReleaseTwiceAfterHeaderReuse: a released block's header goes back to
// the job and a later Write builds another block in it. Releasing the stale
// handle again, or a copy of it taken before the first Release, must not
// touch that later block: its payload stays where it is and stays its own.
func TestReleaseTwiceAfterHeaderReuse(t *testing.T) {
	job, err := NewJob(Config{Producers: 1, Consumers: 1, SpoolDir: t.TempDir(), DisableSteal: true})
	if err != nil {
		t.Fatal(err)
	}
	p, c := job.Producer(0), job.Consumer(0)
	const size = 2048
	write := func(step int) {
		data := NewPayload(size)
		for i := range data {
			data[i] = byte(step)
		}
		p.Write(step, 0, data)
	}
	write(0)
	stale, ok := c.Read()
	if !ok {
		t.Fatal("stream ended early")
	}
	copied := stale // taken before the release
	stale.Release()

	// Headers travel a batch at a time: keep the stream going until the
	// first block's comes round again.
	var reused Block
	for step := 1; step < 1000 && reused.inner == nil; step++ {
		write(step)
		blk, ok := c.Read()
		if !ok {
			t.Fatal("stream ended early")
		}
		if blk.inner == stale.inner {
			reused = blk
		} else {
			blk.Release()
		}
	}
	if reused.inner == nil {
		t.Fatal("the released header never came back: nothing is recycled")
	}
	stale.Release()
	copied.Release()
	// Had either gone through, the payload is in the pool now and the next
	// taker scribbles on it (the pool is LIFO for one goroutine).
	for i := 0; i < 4; i++ {
		scratch := block.GetPayload(size)
		for j := range scratch {
			scratch[j] = 0xFF
		}
		defer (&block.Block{Data: scratch}).Release()
	}
	if len(reused.Data) != size || reused.inner.Data == nil {
		t.Fatalf("the later block lost its payload to a stale Release (len %d)", len(reused.Data))
	}
	for i, v := range reused.Data {
		if v != byte(reused.ID.Step) {
			t.Fatalf("the later block (step %d) is corrupt at byte %d: %#x", reused.ID.Step, i, v)
		}
	}
	reused.Release()
	reused.Release() // and twice in a row is still nothing
	p.Close()
	if _, ok := c.Read(); ok {
		t.Error("block delivered after Close")
	}
	job.Wait()
	if st := job.Stats(); st.BlocksWritten != st.BlocksAnalyzed {
		t.Errorf("written %d, analyzed %d", st.BlocksWritten, st.BlocksAnalyzed)
	}
}

// failingEncoder is a reduction operator that can encode nothing.
type failingEncoder struct{}

func (failingEncoder) EncodeBlock(b *block.Block) error {
	return fmt.Errorf("block %v: stub operator", b.ID)
}

// TestJobErrReportsSenderEncodeFailure is core's
// TestSenderEncodeFailureSendsUnreduced through the public API: every block
// still arrives, unreduced and intact, Wait returns, and Job.Err is where the
// failure shows — a producer's Err has no other public reader.
func TestJobErrReportsSenderEncodeFailure(t *testing.T) {
	job, err := NewJob(Config{Producers: 1, Consumers: 1, SpoolDir: t.TempDir(),
		BufferBlocks: 8, MaxBatchBlocks: 4, DisableSteal: true,
		Staging: StagingConfig{Stagers: 1, BufferBlocks: 32, RoutePolicy: RouteStaging,
			Reduce: ReduceConfig{Operator: ReduceCompress}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Err(); err != nil {
		t.Fatalf("Err() = %v before anything ran", err)
	}
	p, c := job.Producer(0), job.Consumer(0)
	p.p.SetEncoder(p.ctx, failingEncoder{})
	const blocks = 40
	const blockBytes = 512
	go func() {
		for i := 0; i < blocks; i++ {
			data := NewPayload(blockBytes) // zeros but for a tag: a working operator would shrink it
			clear(data)
			data[blockBytes-1] = byte(i)
			p.Write(i, 0, data)
		}
		p.Close()
	}()
	n := 0
	for {
		blk, ok := c.Read()
		if !ok {
			break
		}
		if len(blk.Data) != blockBytes || blk.Data[blockBytes-1] != byte(blk.ID.Step) {
			t.Fatalf("block %+v did not survive the trip", blk.ID)
		}
		blk.Release()
		n++
	}
	job.Wait()
	if n != blocks {
		t.Fatalf("analyzed %d blocks, want %d", n, blocks)
	}
	if err := job.Err(); err == nil || !strings.Contains(err.Error(), "reducing relayed batch") {
		t.Fatalf("Job.Err() = %v, want the sender's encode failure", err)
	}
	if err := c.Err(); err != nil {
		t.Errorf("Consumer.Err() = %v: the stream itself was sound", err)
	}
	if st := job.Stats(); st.BlocksRelayed != blocks || st.BytesReduced != 0 {
		t.Errorf("relayed %d blocks and saved %d bytes, want %d and none", st.BlocksRelayed, st.BytesReduced, blocks)
	}
}

// TestConsumerBufferHoldsAWindow: a zero ConsumerBufferBlocks sizes the
// consumer buffer to one full receive window, max(16, Window ×
// MaxBatchBlocks), so the receiver and Read hand off once per window rather
// than once per half; the defaults still give 16, and an explicit value is
// kept. A job built by NewJob and one submitted to a Fleet derive the same
// size, and each consumer's Stats report it as its capacity.
func TestConsumerBufferHoldsAWindow(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want int
	}{
		{"window of batches", Config{Window: 4, MaxBatchBlocks: 8}, 32},
		{"defaults", Config{}, 16},
		{"explicit", Config{Window: 4, MaxBatchBlocks: 8, ConsumerBufferBlocks: 24}, 24},
	} {
		if got := tc.cfg.spec().Core.ConsumerBufferBlocks; got != tc.want {
			t.Errorf("%s: ConsumerBufferBlocks %d, want %d", tc.name, got, tc.want)
		}
	}

	const producers, consumers, blocks, payload = 2, 1, 64, 256
	cfg := Config{Producers: producers, Consumers: consumers, SpoolDir: t.TempDir(),
		BufferBlocks: 16, MaxBatchBlocks: 8, DisableSteal: true}
	capacity := func(what string, j *Job) {
		t.Helper()
		if got := j.Consumer(0).Stats().Capacity; got != 32 {
			t.Errorf("%s: a running consumer reports capacity %d, want 32", what, got)
		}
		if n := runFleetWorkload(t, j, producers, consumers, blocks, payload); n != producers*blocks {
			t.Errorf("%s: analyzed %d blocks, want %d", what, n, producers*blocks)
		}
	}
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capacity("NewJob", job)

	fleet, err := NewFleet(FleetConfig{Stagers: 1, StagerBufferBlocks: 32, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	cfg.SpoolDir = ""
	cfg.Staging.RoutePolicy = RouteStaging
	j, err := fleet.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capacity("Fleet.Submit", j)
}
