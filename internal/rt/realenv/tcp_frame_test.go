package realenv

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"zipper/internal/block"
	"zipper/internal/core"
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

// frameMessageSets returns frameMessages twice, keyed by the write path the
// payload size sends it down: as built, where every frame carries less than
// defaultVectoredMin and takes the buffered copy, and with every non-empty
// payload grown past defaultVectoredMin, so every frame that carries data
// goes out vectored. It fails t if either premise does not hold.
func frameMessageSets(t *testing.T) map[string][]rt.Message {
	t.Helper()
	grown := frameMessages()
	for _, m := range grown {
		for _, b := range m.Blocks {
			// Messages share blocks, so grow each one once.
			if n := len(b.Data); n > 0 && n <= defaultVectoredMin {
				b.Data = bytes.Repeat(b.Data, defaultVectoredMin/n+1)
				if b.Enc != 0 {
					b.EncBytes = int64(len(b.Data))
					b.Bytes += b.EncBytes
				} else {
					b.Bytes = int64(len(b.Data))
				}
			}
		}
	}
	sets := map[string][]rt.Message{"copy": frameMessages(), "vectored": grown}
	for path, ms := range sets {
		for i, m := range ms {
			var payload int
			for _, b := range m.Blocks {
				payload += len(b.Data)
			}
			if vectored := payload >= defaultVectoredMin; payload > 0 && vectored != (path == "vectored") {
				t.Fatalf("%s frame %d carries %d payload bytes", path, i, payload)
			}
		}
	}
	return sets
}

// TestFrameV5RoundTrip proves encode→decode is the identity for every
// flag/field combination, on both the buffered-copy and vectored write
// paths.
func TestFrameV5RoundTrip(t *testing.T) {
	for path, msgs := range frameMessageSets(t) {
		conn := &memConn{}
		tr := newTCPTransport(conn, 0, block.NewRecycler(0))
		for i, m := range msgs {
			// Messages share blocks, and the check below compares against
			// them: write each without handing it over.
			if err := tr.resend(i%7, m); err != nil {
				t.Fatal(err)
			}
		}
		for i, want := range msgs {
			to, got, err := readFrame(&conn.buf)
			if err != nil {
				t.Fatalf("%s frame %d: %v", path, i, err)
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

// TestWriteFrameAllocs pins the steady-state allocation budget of the frame
// writer: after warm-up, a vectored frame allocates nothing — the header
// scratch, the iovec backing and the write's cursor over it are all reused.
// The one message goes out again and again, so it is not handed over.
func TestWriteFrameAllocs(t *testing.T) {
	tr := newTCPTransport(&discardConn{}, 0, block.NewRecycler(0))
	m := benchMessage(16, 64<<10)
	_ = tr.resend(0, m) // warm up the scratch buffers
	avg := testing.AllocsPerRun(100, func() { _ = tr.resend(0, m) })
	if avg > 0 {
		t.Fatalf("a vectored frame allocates %.1f objects, want none", avg)
	}
}

// BenchmarkWriteFrame measures the two send paths over a discard sink so
// the numbers isolate framing cost: header assembly plus either the bufio
// memcpy or iovec assembly. The frames sit on either side of the 16 KiB
// defaultVectoredMin, so the 4 KiB row takes the copy and the 256 KiB row
// the vectored write; the vectored path's allocations are pinned by
// TestWriteFrameAllocs.
func BenchmarkWriteFrame(b *testing.B) {
	for _, bench := range []struct {
		name              string
		blocks, blockSize int
	}{
		{"copy-4KiB", 4, 1 << 10},
		{"vectored-256KiB", 16, 16 << 10},
	} {
		b.Run(bench.name, func(b *testing.B) {
			tr := newTCPTransport(&discardConn{}, 0, block.NewRecycler(0))
			m := benchMessage(bench.blocks, bench.blockSize)
			b.SetBytes(m.PayloadBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = tr.resend(0, m)
			}
		})
	}
}

// TestTCPSendRecyclesSenderBlocks pins Send's half of the one ownership
// rule: a sent message is the transport's. Once the frame is on the wire
// the payloads are back in the pool, the headers are retired — their
// generation advanced — and back in the free list together with the block
// list, so core.Consumer.ReleaseBlock through the generation taken before
// the Send leaves the header's next payload alone. A consumer's release
// through the current generation retires the header with a payload of at
// most block.CarryMax bytes still on it; the Headers call that hands the
// header out again releases that payload, once, and a larger payload goes
// back to the pool at the release.
func TestTCPSendRecyclesSenderBlocks(t *testing.T) {
	rec := block.NewRecycler(0)
	conn := &memConn{}
	tr := newTCPTransport(conn, 0, rec)
	headers := rec.Headers(nil) // exactly one batch: the Send fills one back
	m := rt.Message{From: 1, Dest: 2, Blocks: rec.Slice()}
	gens := map[*block.Block]uint32{}
	payloads := map[*byte]bool{}
	for i, b := range headers {
		b.ID, b.Offset, b.Bytes, b.Data = block.ID{Rank: 1, Seq: i}, 0, 4096, block.GetPayload(4096)
		gens[b] = b.Gen()
		payloads[&b.Data[0]] = true
		m.Blocks = append(m.Blocks, b)
	}
	list := &m.Blocks[:1][0]
	tr.Send(New().Ctx(), 0, m)

	for b, gen := range gens {
		if b.Data != nil || b.Gen() != gen+1 {
			t.Fatalf("block %v after Send: %d payload bytes, generation %d, want none and %d", b.ID, len(b.Data), b.Gen(), gen+1)
		}
	}
	back := 0
	for range payloads {
		if p := block.GetPayload(4096); payloads[&p[0]] {
			back++
		}
	}
	// The race detector's pool drops a quarter of what it is handed.
	if back == 0 || (!raceEnabled && back != len(payloads)) {
		t.Errorf("%d of %d payloads came back out of the pool", back, len(payloads))
	}
	reused := rec.Headers(nil)
	for _, b := range reused {
		if _, ok := gens[b]; !ok {
			t.Fatal("the free list handed out a header the Send did not retire")
		}
	}
	if len(reused) != len(headers) {
		t.Fatalf("%d headers back in the free list, want %d", len(reused), len(headers))
	}
	if s := rec.Slice(); &s[:1][0] != list {
		t.Error("the message's block list did not go back to the free list")
	}

	if _, got, err := readFrame(&conn.buf); err != nil || len(got.Blocks) != len(headers) {
		t.Fatalf("the frame carried %d blocks (%v), want %d", len(got.Blocks), err, len(headers))
	}

	// The header comes back as another block; a consumer that still holds
	// the pre-Send handle releases it through the consumer's generation
	// guard, and only the current generation gets through.
	env, net := New(), NewNetwork(1, 1)
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cons := core.NewConsumer(env, core.Config{Recycler: rec}, 0, 1, net.Inbox(0), fs)
	x := env.Ctx()
	b := reused[0]
	b.Data = block.GetPayload(4096)
	cons.ReleaseBlock(x, b, gens[b])
	if b.Data == nil {
		t.Error("a release through the generation taken before the Send freed the header's next payload")
	}
	// Released through the current generation, a whole batch of 4 KiB blocks
	// goes back to the free list with its payloads on.
	carried := map[*byte]bool{}
	for _, b := range reused {
		if b.Data == nil {
			b.Data = block.GetPayload(4096)
		}
		carried[&b.Data[0]] = true
		gen := b.Gen()
		cons.ReleaseBlock(x, b, gen)
		if b.Data == nil || b.Gen() != gen+1 {
			t.Fatalf("block %v after its release: %d payload bytes, generation %d, want 4096 and %d", b.ID, len(b.Data), b.Gen(), gen+1)
		}
	}
	out := rec.Headers(nil)
	for _, b := range out {
		if _, ok := gens[b]; !ok || b.Data != nil {
			t.Fatalf("Headers handed out a header the release did not retire, or with its payload still on (%d bytes)", len(b.Data))
		}
	}
	seen := map[*byte]int{}
	for range 2 * len(carried) {
		if p := block.GetPayload(4096); carried[&p[0]] {
			seen[&p[0]]++
		}
	}
	for _, n := range seen {
		if n != 1 {
			t.Fatalf("a carried payload came out of the pool %d times", n)
		}
	}
	if len(seen) == 0 || (!raceEnabled && len(seen) != len(carried)) {
		t.Errorf("%d of %d carried payloads came back out of the pool", len(seen), len(carried))
	}
	big := out[0]
	big.Data = block.GetPayload(block.CarryMax + 1)
	cons.ReleaseBlock(x, big, big.Gen())
	if big.Data != nil {
		t.Error("a payload above block.CarryMax stayed on its retired header")
	}
	net.Port().Send(x, 0, rt.Message{Fin: true})
	cons.Wait(x)
}

// wireCompressFrame is the frame wire-compress puts on the socket: a batch of
// eight blocks whose 64 KiB payloads the codec took down to ≈ 1.4 KB each.
func wireCompressFrame() []byte {
	m := benchMessage(8, 1400)
	for _, b := range m.Blocks {
		b.Bytes, b.Enc = 64<<10, 1
	}
	conn := &memConn{}
	newTCPTransport(conn, 0, block.NewRecycler(0)).Send(New().Ctx(), 0, m)
	return conn.buf.Bytes()
}

// readFrames decodes the same frame over and over through one frameReader,
// the way a connection's reader does, and hands what it decoded back the way
// a consumer does: the payloads to the pool, the headers retired and the
// block list to the reader's free list.
func readFrames(tb testing.TB, frame []byte) func() {
	src := bytes.NewReader(frame)
	rec := block.NewRecycler(0)
	fr := frameReader{r: src, rec: rec}
	spent := rec.Slice()
	return func() {
		src.Reset(frame)
		_, m, err := fr.next()
		if err != nil || len(m.Blocks) != 8 {
			tb.Fatalf("decoded %d blocks: %v", len(m.Blocks), err)
		}
		for _, b := range m.Blocks {
			b.Release()
			b.Retire()
			if spent = append(spent, b); len(spent) == cap(spent) {
				spent = rec.PutHeaders(spent)
			}
		}
		rec.PutSlice(m.Blocks)
	}
}

// TestReadFrameAllocs pins what a received frame allocates once the free
// lists are warm: nothing. The header and the descriptor table are parsed
// out of the reader's scratch, the blocks and their list come from the
// recycler and the payloads from the pool — which under the race detector
// drops a quarter of what it is handed, two of the frame's eight payloads on
// average, hence the slack there. A reader that allocates per block is at
// nine, one that allocates per field at eighty.
func TestReadFrameAllocs(t *testing.T) {
	next := readFrames(t, wireCompressFrame())
	for i := 0; i < 4; i++ {
		next() // warm up the scratch, the free lists and the payload pool
	}
	want := 0.0
	if raceEnabled {
		want = 4
	}
	if avg := testing.AllocsPerRun(100, next); avg > want {
		t.Fatalf("reading an 8-block frame allocates %.2f objects, want ≤ %.0f", avg, want)
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
