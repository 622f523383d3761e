package realenv

import (
	"net"
	"runtime"
	"time"

	"zipper/internal/block"
	"zipper/internal/rt"
)

// sinkConn swallows writes, so a frame-writer measurement isolates framing
// work (header assembly plus either the bufio copy or the vectored writev)
// from any peer or kernel cost.
type sinkConn struct{ n int64 }

func (c *sinkConn) Write(p []byte) (int, error)      { c.n += int64(len(p)); return len(p), nil }
func (c *sinkConn) Read(p []byte) (int, error)       { return 0, net.ErrClosed }
func (c *sinkConn) Close() error                     { return nil }
func (c *sinkConn) LocalAddr() net.Addr              { return nil }
func (c *sinkConn) RemoteAddr() net.Addr             { return nil }
func (c *sinkConn) SetDeadline(time.Time) error      { return nil }
func (c *sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

// WireBenchResult is one frame-writer measurement over the discard sink.
type WireBenchResult struct {
	NsPerFrame     float64 // wall time per Send
	NsPerBlock     float64 // wall time per block within the frame
	AllocsPerFrame float64 // heap objects per Send at steady state
	BytesPerFrame  int64   // bytes the writer handed the connection per Send
}

// BenchWriteFrame measures the frame-v5 send path: `frames` Sends of a
// message carrying `blocks` payloads of blockBytes each into a discard
// sink. The payload size alone picks the write path: a frame carrying
// 16 KiB or more goes out vectored, a smaller one through the buffered copy.
// It backs bench's realenv.frame_write_ns_per_block layer metric. The fourth
// parameter is ignored; it is kept only for that caller, which passes 0.
func BenchWriteFrame(frames, blocks, blockBytes, _ int) WireBenchResult {
	sink := &sinkConn{}
	tr := newTCPTransport(sink, 0, block.NewRecycler(0))

	m := rt.Message{From: 1, Dest: 2}
	for i := 0; i < blocks; i++ {
		data := make([]byte, blockBytes)
		for j := range data {
			data[j] = byte(i + j)
		}
		m.Blocks = append(m.Blocks, block.New(block.ID{Rank: 1, Step: 1, Seq: i}, int64(i*blockBytes), data))
	}
	// The same message goes out every time, so it is written the way Send
	// writes it but not handed over.
	_ = tr.resend(0, m) // warm the header and iovec scratch
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sink.n = 0
	start := time.Now()
	for i := 0; i < frames; i++ {
		_ = tr.resend(0, m)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	res := WireBenchResult{
		NsPerFrame:     float64(elapsed.Nanoseconds()) / float64(frames),
		NsPerBlock:     float64(elapsed.Nanoseconds()) / float64(frames*blocks),
		AllocsPerFrame: float64(after.Mallocs-before.Mallocs) / float64(frames),
		BytesPerFrame:  sink.n / int64(frames),
	}
	return res
}
