package realenv

import (
	"time"

	"zipper/internal/block"
	"zipper/internal/rt"
)

// TransportBenchResult is one transport measurement: a single sender
// pushing `messages` batched messages through a Network port into a
// single receiving inbox.
type TransportBenchResult struct {
	NsPerMessage float64 // wall time per Send/Recv pair
	NsPerBlock   float64 // wall time per block carried
}

// BenchTransport measures the intra-node message path end to end: one
// sender thread Sends `messages` messages of blocksPerMsg blocks each
// through a Network port while the caller drains the receiving inbox.
// ring selects the SPSC ring transport (true) or the classic channel
// network (false); depth is the per-endpoint window in messages for both,
// so the comparison differs only in the transport underneath. The blocks
// travel by pointer on both paths — the measurement is per-message
// synchronization overhead, which is exactly what the ring exists to cut.
// It backs bench's realenv.chan_ns_per_msg and realenv.ring_ns_per_msg
// layer metrics.
func BenchTransport(ring bool, messages, blocksPerMsg, depth int) TransportBenchResult {
	var net *Network
	if ring {
		net = NewRingNetwork(1, depth)
	} else {
		net = NewNetwork(1, depth)
	}

	m := rt.Message{From: 0}
	for i := 0; i < blocksPerMsg; i++ {
		data := make([]byte, 64)
		for j := range data {
			data[j] = byte(i + j)
		}
		m.Blocks = append(m.Blocks, block.New(block.ID{Rank: 0, Step: 1, Seq: i}, int64(i*64), data))
	}

	// One continuous stream through a single sender port: the first tenth
	// warms the lane, the scheduler, and the caches, then the clock runs
	// over the measured remainder.
	warmup := messages / 10
	env := New()
	port := net.Port()
	env.Go("sender", func(c rt.Ctx) {
		for i := 0; i < warmup+messages; i++ {
			port.Send(c, 0, m)
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
