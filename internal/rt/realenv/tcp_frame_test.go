package realenv

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"zipper/internal/block"
	"zipper/internal/rt"
)

// memConn is a net.Conn that captures writes in memory, so frame tests can
// exercise both TCPTransport write paths (buffered copy and vectored)
// without a socket.
type memConn struct{ buf bytes.Buffer }

func (c *memConn) Write(p []byte) (int, error)      { return c.buf.Write(p) }
func (c *memConn) Read(p []byte) (int, error)       { return c.buf.Read(p) }
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return nil }
func (c *memConn) RemoteAddr() net.Addr             { return nil }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// discardConn swallows writes: the deterministic sink for the send-path
// benchmarks, so ns/frame measures framing work, not a peer.
type discardConn struct{ n int64 }

func (c *discardConn) Write(p []byte) (int, error)      { c.n += int64(len(p)); return len(p), nil }
func (c *discardConn) Read(p []byte) (int, error)       { return 0, fmt.Errorf("discard") }
func (c *discardConn) Close() error                     { return nil }
func (c *discardConn) LocalAddr() net.Addr              { return nil }
func (c *discardConn) RemoteAddr() net.Addr             { return nil }
func (c *discardConn) SetDeadline(time.Time) error      { return nil }
func (c *discardConn) SetReadDeadline(time.Time) error  { return nil }
func (c *discardConn) SetWriteDeadline(time.Time) error { return nil }

// frameMessages enumerates every flag/field combination of the v5 frame:
// Fin/Retire flags, declared totals, lost counts, disk refs, block batches
// with every descriptor field exercised (offsets, raw sizes, OnDisk,
// reduction encodings, zero-length payloads).
func frameMessages() []rt.Message {
	mkBlk := func(rank, step, seq int, offset int64, data []byte, onDisk bool, enc uint8, raw int64) *block.Block {
		b := &block.Block{
			ID:     block.ID{Rank: rank, Step: step, Seq: seq},
			Offset: offset, Data: data, OnDisk: onDisk, Enc: enc,
		}
		if data != nil {
			b.Bytes = int64(len(data))
		}
		if enc != 0 {
			b.Bytes = raw
			b.EncBytes = int64(len(data))
		}
		return b
	}
	var ms []rt.Message
	for _, fin := range []bool{false, true} {
		for _, retire := range []bool{false, true} {
			for _, blocks := range [][]*block.Block{
				nil,
				{mkBlk(1, 2, 3, 64, []byte{9, 8, 7}, false, 0, 0)},
				{
					mkBlk(0, 0, 0, 0, nil, false, 0, 0), // zero-length payload
					mkBlk(7, 8, 9, 1024, bytes.Repeat([]byte{0xab}, 600), true, 0, 0),
					mkBlk(7, 8, 10, 2048, []byte{1, 2, 3, 4}, false, 1, 4096), // encoded
				},
			} {
				for _, disk := range [][]rt.DiskRef{
					nil,
					{{ID: block.ID{Rank: 5, Step: 6, Seq: 7}, Bytes: 512}, {ID: block.ID{Rank: 5, Step: 6, Seq: 8}, Bytes: 1 << 20}},
				} {
					m := rt.Message{
						From: 3, Dest: 11, Fin: fin, Retire: retire,
						Blocks: blocks, Disk: disk,
					}
					if fin {
						m.FinBlocks, m.FinDisk, m.Lost = 12345, 67, 2
					}
					ms = append(ms, m)
				}
			}
		}
	}
	return ms
}

// TestFrameV5RoundTrip proves encode→decode is the identity for every
// flag/field combination, on both the buffered-copy and vectored write
// paths.
func TestFrameV5RoundTrip(t *testing.T) {
	for _, vectoredMin := range []int{-1, 1} {
		conn := &memConn{}
		tr := newTCPTransport(conn, 0)
		tr.SetVectoredMin(vectoredMin)
		c := New().Ctx()
		msgs := frameMessages()
		for i, m := range msgs {
			tr.Send(c, i%7, m)
		}
		for i, want := range msgs {
			to, got, err := readFrame(&conn.buf)
			if err != nil {
				t.Fatalf("vectoredMin=%d frame %d: %v", vectoredMin, i, err)
			}
			if to != i%7 {
				t.Fatalf("frame %d: to=%d want %d", i, to, i%7)
			}
			checkMessage(t, i, want, got)
		}
	}
}

func checkMessage(t *testing.T, i int, want, got rt.Message) {
	t.Helper()
	if got.From != want.From || got.Dest != want.Dest ||
		got.Fin != want.Fin || got.Retire != want.Retire ||
		got.FinBlocks != want.FinBlocks || got.FinDisk != want.FinDisk ||
		got.Lost != want.Lost {
		t.Fatalf("frame %d header mismatch:\nwant %+v\ngot  %+v", i, want, got)
	}
	if len(got.Disk) != len(want.Disk) {
		t.Fatalf("frame %d: %d disk refs, want %d", i, len(got.Disk), len(want.Disk))
	}
	for j := range want.Disk {
		if got.Disk[j] != want.Disk[j] {
			t.Fatalf("frame %d disk %d: %+v want %+v", i, j, got.Disk[j], want.Disk[j])
		}
	}
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("frame %d: %d blocks, want %d", i, len(got.Blocks), len(want.Blocks))
	}
	for j, wb := range want.Blocks {
		gb := got.Blocks[j]
		if gb.ID != wb.ID || gb.Offset != wb.Offset || gb.Bytes != wb.Bytes ||
			gb.OnDisk != wb.OnDisk || gb.Enc != wb.Enc {
			t.Fatalf("frame %d block %d descriptor: %+v want %+v", i, j, gb, wb)
		}
		if wb.Enc != 0 && gb.EncBytes != int64(len(wb.Data)) {
			t.Fatalf("frame %d block %d: EncBytes=%d want %d", i, j, gb.EncBytes, len(wb.Data))
		}
		if !bytes.Equal(gb.Data, wb.Data) {
			t.Fatalf("frame %d block %d payload mismatch (%d vs %d bytes)", i, j, len(gb.Data), len(wb.Data))
		}
	}
}

func benchMessage(blocks, blockBytes int) rt.Message {
	m := rt.Message{From: 1, Dest: 2}
	for i := 0; i < blocks; i++ {
		data := make([]byte, blockBytes)
		for j := range data {
			data[j] = byte(i + j)
		}
		m.Blocks = append(m.Blocks, block.New(block.ID{Rank: 1, Step: 1, Seq: i}, int64(i*blockBytes), data))
	}
	return m
}

// TestWriteFrameAllocs pins the steady-state allocation budget of the send
// path: after warm-up, a vectored Send must not allocate more than one
// object per frame (target: zero — header scratch and iovec backing are
// both reused).
func TestWriteFrameAllocs(t *testing.T) {
	tr := newTCPTransport(&discardConn{}, 0)
	c := New().Ctx()
	m := benchMessage(16, 64<<10)
	tr.Send(c, 0, m) // warm up the scratch buffers
	avg := testing.AllocsPerRun(100, func() { tr.Send(c, 0, m) })
	if avg > 1 {
		t.Fatalf("vectored Send allocates %.1f objects/frame, want ≤1", avg)
	}
}

// BenchmarkWriteFrame measures the two send paths over a discard sink so
// the numbers isolate framing cost: header assembly plus either the bufio
// memcpy (copy) or iovec assembly (vectored). The committed BENCH_wire.json
// gates the vectored path at ≥20% lower ns/block on this workload.
func BenchmarkWriteFrame(b *testing.B) {
	for _, bench := range []struct {
		name        string
		vectoredMin int
	}{
		{"copy", -1},
		{"vectored", 1},
	} {
		b.Run(bench.name, func(b *testing.B) {
			tr := newTCPTransport(&discardConn{}, 0)
			tr.SetVectoredMin(bench.vectoredMin)
			c := New().Ctx()
			m := benchMessage(16, 256<<10)
			b.SetBytes(m.PayloadBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Send(c, 0, m)
			}
		})
	}
}

// wireCompressFrame is the frame wire-compress puts on the socket: a batch of
// eight blocks whose 64 KiB payloads the codec took down to ≈ 1.4 KB each.
func wireCompressFrame() []byte {
	m := benchMessage(8, 1400)
	for _, b := range m.Blocks {
		b.Bytes, b.Enc = 64<<10, 1
	}
	conn := &memConn{}
	newTCPTransport(conn, 0).Send(New().Ctx(), 0, m)
	return conn.buf.Bytes()
}

// readFrames decodes the same frame over and over through one frameReader,
// the way a connection's reader does, and recycles the payloads.
func readFrames(tb testing.TB, frame []byte) func() {
	src := bytes.NewReader(frame)
	fr := frameReader{r: src}
	return func() {
		src.Reset(frame)
		_, m, err := fr.next()
		if err != nil || len(m.Blocks) != 8 {
			tb.Fatalf("decoded %d blocks: %v", len(m.Blocks), err)
		}
		for _, b := range m.Blocks {
			b.Release()
		}
	}
}

// TestReadFrameAllocs pins what a received frame allocates: its blocks and
// the slice that holds them, nine objects. The header and the descriptor
// table are parsed out of the reader's scratch and the payloads come from the
// pool — which under the race detector drops a quarter of what it is handed,
// hence the slack; a reader that allocates per field is at eighty.
func TestReadFrameAllocs(t *testing.T) {
	next := readFrames(t, wireCompressFrame())
	next() // warm up the scratch and the payload pool
	if avg := testing.AllocsPerRun(100, next); avg > 12 {
		t.Fatalf("reading an 8-block frame allocates %.0f objects, want 9", avg)
	}
}

func BenchmarkReadFrame(b *testing.B) {
	frame := wireCompressFrame()
	next := readFrames(b, frame)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
}
