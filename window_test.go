package zipper

import (
	"testing"
	"time"
)

// TestJobRingWindowBoundsInFlight pins that the ignored RingDepth cannot widen
// what is in flight. It is the regression for the SPSC ring lanes that
// ignored Window: RingDepth used to size every lane, so RingDepth: 1024 let
// one sender park 1024 messages × MaxBatchBlocks blocks in front of a stalled
// consumer (over 1 GB at 16 KiB blocks). An inbox holds Window messages,
// whatever RingDepth says, so what the job can hold in flight is bounded by
// the buffers the Config names. Counted in blocks, not RSS.
func TestJobRingWindowBoundsInFlight(t *testing.T) {
	cfg := Config{
		Producers: 1, Consumers: 1, SpoolDir: t.TempDir(),
		BufferBlocks: 16, ConsumerBufferBlocks: 16, Window: 4, MaxBatchBlocks: 8, DisableSteal: true,
		Staging: StagingConfig{RingDepth: 1024},
	}
	// The inbox, plus the message in the receiver's hands.
	stalledConsumerHolds(t, cfg, cfg.Window+1)
}

// TestJobTCPWindowBoundsInFlight is the same regression for the TCP wire. A TCP connection used to be bounded by the kernel's socket
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
