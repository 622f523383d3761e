package realenv

import (
	"time"

	"zipper/internal/block"
	"zipper/internal/rt"
)

// TransportBenchResult is one transport measurement: a single sender
// pushing `messages` batched messages through a Network into a single
// receiving inbox.
type TransportBenchResult struct {
	NsPerMessage float64 // wall time per Send/Recv pair
	NsPerBlock   float64 // wall time per block carried
}

// BenchTransport measures the intra-node message path end to end: one
// sender thread Sends `messages` messages of blocksPerMsg blocks each
// through a Network into a window of depth messages while the caller
// drains the receiving inbox. The blocks travel by pointer, so the
// measurement is per-message synchronization overhead. It backs bench's
// realenv.chan_ns_per_msg and realenv.ring_ns_per_msg layer metrics; the
// first parameter is ignored, since the channel network is the only
// in-process transport, and is kept only for that caller.
func BenchTransport(_ bool, messages, blocksPerMsg, depth int) TransportBenchResult {
	net := NewNetwork(1, depth)

	m := rt.Message{From: 0}
	for i := 0; i < blocksPerMsg; i++ {
		data := make([]byte, 64)
		for j := range data {
			data[j] = byte(i + j)
		}
		m.Blocks = append(m.Blocks, block.New(block.ID{Rank: 0, Step: 1, Seq: i}, int64(i*64), data))
	}

	// One continuous stream from a single sender: the first tenth
	// warms the channel, the scheduler, and the caches, then the clock runs
	// over the measured remainder.
	warmup := messages / 10
	env := New()
	env.Go("sender", func(c rt.Ctx) {
		for i := 0; i < warmup+messages; i++ {
			net.Send(c, 0, m)
		}
	})
	in := net.Inbox(0)
	c := env.Ctx()
	for i := 0; i < warmup; i++ {
		in.Recv(c)
	}
	start := time.Now()
	for i := 0; i < messages; i++ {
		in.Recv(c)
	}
	elapsed := time.Since(start)
	env.Wait()

	return TransportBenchResult{
		NsPerMessage: float64(elapsed.Nanoseconds()) / float64(messages),
		NsPerBlock:   float64(elapsed.Nanoseconds()) / float64(messages*blocksPerMsg),
	}
}
