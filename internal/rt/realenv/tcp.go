package realenv

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"zipper/internal/block"
	"zipper/internal/rt"
)

// TCP transport: the real-mode network path for running the producer and
// consumer applications as separate OS processes, mirroring the paper's two
// independently launched MPI applications. The consumer side listens; every
// producer process dials in and streams framed mixed messages. Receive
// windows are per-endpoint buffered queues; when a window fills, the reader
// goroutine stops draining its connection and stops acknowledging, and the
// sender parks once Window messages are unacknowledged — the same stall the
// in-memory path produces, at the same depth.
// In-transit stagers run as goroutines inside the listening process: the
// listener's endpoint space is consumers followed by stagers, and a stager
// forwards to consumer inboxes through the listener's Loopback transport.

// frame layout (little endian):
//
//	u32 magic | u32 flags | i64 to | i64 from | i64 dest
//	i64 finBlocks | i64 finDisk | i64 lost
//	i64 nDisk | nDisk × (i64 rank | i64 step | i64 seq | i64 bytes)
//	i64 nBlocks | nBlocks × (i64 rank | i64 step | i64 seq | i64 offset |
//	                         i64 bytes | i64 onDisk | i64 enc | i64 dataLen)
//	payload bytes of every block, concatenated in descriptor order
//
// Version 2 of the frame carries a batch of data blocks so one socket write
// (and one read on the far side) moves a whole drained batch; version 3 adds
// the relay destination so a frame can address a stager endpoint while
// naming the consumer the data is ultimately for; version 4 adds the Fin's
// declared delivery totals (counted stream termination for the elastic
// staging tier), the relay's Lost count, and the Retire flag that drains a
// pool-managed stager. Version 5 reorganizes the layout for zero-copy
// sends: all descriptors are contiguous up front and the payloads are
// concatenated at the end, so the sender can issue the whole frame as one
// vectored write — [header | payload₁ | payload₂ | …] — straight from the
// pooled block payloads, no intermediate copy. v5 also adds the per-block
// `enc` word carrying the in-transit reduction operator (block.Enc), with
// dataLen then holding the encoded payload size while `bytes` stays the
// raw size. Version 6 keeps that layout and adds a reverse stream on the same
// connection: the listener's reader writes back a u32 count of messages it
// has deposited in their destination inbox, and the sender parks while
// Window messages are unacknowledged. Socket buffers plus the reader's 1 MiB
// bufio used to be the only bound — over a thousand encoded blocks a
// connection, more the better the data compressed — so a connection now
// holds a window of messages like a channel inbox, and Config.Window means
// the same on both wires. The magic moved with it: a v5 peer would neither
// read nor write acknowledgements, and fails at the first frame instead.
//
// A Retire must reach a stager after every frame of a quiesced claim, and a
// Send returns once its frame is written, not deposited. Fence closes that
// gap: it returns once the listener has acknowledged every message sent on
// the connection before it, so a Retire sent after fencing every connection
// arrives last.
const (
	frameMagic  = 0x5a495036 // "ZIP6"
	flagFin     = 1 << 0
	flagRetire  = 1 << 1
	maxFrameLen = 1 << 31
	maxBatchLen = 1 << 20 // sanity cap on per-frame block and disk-ref counts

	// defaultVectoredMin is the aggregate payload size at which Send
	// switches from the buffered-copy path to one vectored write. Below it
	// a single bufio copy+flush is cheaper than pinning iovecs; above it
	// the memcpy into the 1 MiB bufio buffer dominates.
	defaultVectoredMin = 16 << 10

	// payloadChunk bounds the eager allocation for one claimed payload
	// length: a reader first proves the wire can deliver this much before
	// allocating the full claimed size, so a corrupt or adversarial
	// descriptor costs at most one chunk, not maxFrameLen.
	payloadChunk = 4 << 20
)

// TCPListener is the consumer-side endpoint set, hosted behind the accept
// loop: each accepted connection's reader delivers into the shared Network.
type TCPListener struct {
	ln     net.Listener
	eps    *Network
	rec    *block.Recycler // what the connection readers build messages from
	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
}

// ListenTCP starts the consumer-side endpoint set on addr (use
// "127.0.0.1:0" for tests) with one window-deep channel inbox per endpoint.
// `endpoints` counts consumers plus any stager goroutines the caller will
// run in this process (stager inboxes follow the consumer inboxes). The
// connection readers build every received block header and block list from
// rec, the job's free list, which the consumers refill.
func ListenTCP(addr string, endpoints, window int, rec *block.Recycler) (*TCPListener, error) {
	if endpoints < 1 {
		return nil, fmt.Errorf("realenv: need ≥1 endpoint, got %d", endpoints)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("realenv: listen: %w", err)
	}
	l := &TCPListener{ln: ln, eps: NewNetwork(endpoints, window), rec: rec}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the listening address to hand to producer processes.
func (l *TCPListener) Addr() string { return l.ln.Addr().String() }

// Inbox returns endpoint i's receive side.
func (l *TCPListener) Inbox(i int) rt.Inbox { return l.eps.Inbox(i) }

// Loopback returns a transport that delivers straight into this listener's
// endpoint set — the path a stager goroutine running in the listening
// process uses to forward relayed frames to its consumers. Safe from any
// thread.
func (l *TCPListener) Loopback() rt.Transport { return l.eps }

// Close stops accepting; established connections drain until their peers
// close.
func (l *TCPListener) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

func (l *TCPListener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			defer conn.Close()
			endpoints := len(l.eps.inboxes)
			r := bufio.NewReaderSize(conn, 1<<20)
			frames := frameReader{r: r, rec: l.rec}
			var ack [4]byte
			deposited := uint32(0) // messages not yet acknowledged
			for {
				to, m, err := frames.next()
				if err != nil {
					return // EOF or peer failure: connection done
				}
				if to < 0 || to >= endpoints {
					return // corrupt target: drop the connection
				}
				l.eps.Send(nil, to, m)
				// Acknowledge what sits in an inbox, never what merely
				// arrived. Counts coalesce while more frames are already
				// buffered, and always go out before a read that can block
				// on the sender — which may be parked on this very count.
				if deposited++; r.Buffered() == 0 {
					binary.LittleEndian.PutUint32(ack[:], deposited)
					// A dead sender shows up as the next read's error; what
					// it sent before dying is still delivered.
					_, _ = conn.Write(ack[:])
					deposited = 0
				}
			}
		}()
	}
}

// TCPTransport is the producer-side sender over one connection. The frame
// header is assembled into a per-transport scratch buffer and large frames
// go out as one vectored write over [header, payload₁, payload₂, …], so a
// steady-state Send performs zero allocations and never copies payload
// bytes. What a Send has put on the wire goes back where the next blocks
// come from: the payloads to the pool, the headers and the block list to
// the job's free list.
type TCPTransport struct {
	mu    sync.Mutex // serializes senders: one frame on the wire at a time
	w     *bufio.Writer
	c     net.Conn
	hdr   []byte      // reusable frame-header scratch
	vecs  [][]byte    // reusable backing for the vectored write
	nb    net.Buffers // the write's cursor over vecs, kept here so it is not allocated
	rec   *block.Recycler
	spent []*block.Block // retired headers, handed to rec a batch at a time

	// The send window: Send parks while `window` messages are
	// unacknowledged. 0 means unbounded and no acknowledgement reader — for
	// transports over sinks and pipes that never answer.
	window  int
	ackMu   sync.Mutex
	ackCv   *sync.Cond    // a parked sender or Fence waits here, on ackMu
	sent    int64         // messages sent on the connection
	acked   int64         // messages the listener has deposited
	dead    error         // why the acknowledgement reader stopped
	ackDone chan struct{} // closed when it has; nil with window 0
}

// DialTCP connects a producer process to the consumer-side listener. window
// is the connection's send window in messages (at least 1), as for ListenTCP:
// the sender parks while that many messages have not reached their inbox.
// Sent headers and block lists go back to rec, the job's free list.
func DialTCP(addr string, window int, rec *block.Recycler) (*TCPTransport, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("realenv: dial %s: %w", addr, err)
	}
	if window < 1 {
		window = 1
	}
	return newTCPTransport(c, window, rec), nil
}

func newTCPTransport(c net.Conn, window int, rec *block.Recycler) *TCPTransport {
	t := &TCPTransport{
		w:      bufio.NewWriterSize(c, 1<<20),
		c:      c,
		window: window,
		rec:    rec,
		spent:  rec.Slice(),
	}
	if window > 0 {
		t.ackCv = sync.NewCond(&t.ackMu)
		t.ackDone = make(chan struct{})
		go t.ackLoop()
	}
	return t
}

// ackLoop reads the listener's acknowledgement counts and reopens the window
// by each. Any failure of the stream — the peer gone, the connection closed,
// a count that acknowledges more than was sent — ends it and wakes a parked
// sender into Send's failure path.
func (t *TCPTransport) ackLoop() {
	defer close(t.ackDone)
	var buf [4]byte
	for {
		_, err := io.ReadFull(t.c, buf[:])
		n := int64(binary.LittleEndian.Uint32(buf[:]))
		t.ackMu.Lock()
		if err == nil && (n == 0 || n > t.sent-t.acked) {
			err = fmt.Errorf("peer acknowledged %d of %d messages in flight", n, t.sent-t.acked)
		}
		if err != nil {
			t.dead = fmt.Errorf("acknowledgement stream: %w", err)
		} else {
			t.acked += n
		}
		t.ackCv.Broadcast()
		t.ackMu.Unlock()
		if err != nil {
			return
		}
	}
}

// acquire takes one message's worth of the send window, parking while the
// window is closed. Callers hold t.mu, so at most one sender waits.
func (t *TCPTransport) acquire() error {
	if t.window == 0 {
		return nil
	}
	t.ackMu.Lock()
	defer t.ackMu.Unlock()
	for t.sent-t.acked >= int64(t.window) && t.dead == nil {
		t.ackCv.Wait()
	}
	if t.dead != nil {
		return t.dead
	}
	t.sent++
	return nil
}

// Fence returns once the listener has acknowledged every message sent on the
// connection before the call, each then in its destination inbox, or once the
// connection has failed. Safe from any thread, concurrently with Send. A
// transport without a window counts no messages and returns at once.
func (t *TCPTransport) Fence() {
	t.ackMu.Lock()
	defer t.ackMu.Unlock()
	for sent := t.sent; t.acked < sent && t.dead == nil; {
		t.ackCv.Wait()
	}
}

// Credits reports the free part of the connection's send window: how many
// messages Send takes before it parks. The window is the connection's, so
// the answer is the same for every endpoint behind it.
func (t *TCPTransport) Credits(to int) int {
	if t.window == 0 {
		return math.MaxInt
	}
	t.ackMu.Lock()
	defer t.ackMu.Unlock()
	return t.window - int(t.sent-t.acked)
}

// Send frames and writes the message. It is safe for concurrent use by the
// sender threads of multiple producers sharing the connection. Like every
// rt.Transport it takes the message over: the bytes are on the wire when it
// returns, so the payloads go back to the pool and the headers, retired, go
// back to the job's free list with the block list.
func (t *TCPTransport) Send(c rt.Ctx, to int, m rt.Message) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.writeFrame(to, m); err != nil {
		panic(fmt.Sprintf("realenv: tcp send: %v", err))
	}
	for _, b := range m.Blocks {
		b.Release()
		b.Retire()
		if t.spent = append(t.spent, b); len(t.spent) == cap(t.spent) {
			t.spent = t.rec.PutHeaders(t.spent)
		}
	}
	t.rec.PutSlice(m.Blocks)
}

// resend writes m as Send does but leaves it with the caller, so the same
// message can go out again: the frame-writer measurement sends one message
// over and over.
func (t *TCPTransport) resend(to int, m rt.Message) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.writeFrame(to, m)
}

// Close shuts the connection down; the consumer side sees EOF after the
// final frame. With a send window it closes the write side first and lets
// the listener read to that EOF and hang up: closing a socket that still
// holds unread acknowledgements resets the connection, and a reset discards
// whatever frames the kernel had not yet delivered. So once Close returns,
// every message sent on the connection is in its destination inbox. Closing
// again is harmless.
func (t *TCPTransport) Close() error {
	if t.ackDone == nil {
		return t.c.Close()
	}
	if hc, ok := t.c.(interface{ CloseWrite() error }); ok && hc.CloseWrite() == nil {
		<-t.ackDone
	}
	err := t.c.Close()
	<-t.ackDone
	return err
}

// writeFrame takes a message's worth of the send window, assembles the v5
// header into the transport's scratch buffer and writes the frame: small
// frames are copied through the bufio writer (one write syscall after
// Flush), large frames go out as one vectored write whose iovecs point
// straight at the pooled block payloads. Callers hold t.mu.
func (t *TCPTransport) writeFrame(to int, m rt.Message) error {
	if err := t.acquire(); err != nil {
		return err
	}
	var flags uint32
	if m.Fin {
		flags |= flagFin
	}
	if m.Retire {
		flags |= flagRetire
	}
	hdr := t.hdr[:0]
	hdr = binary.LittleEndian.AppendUint32(hdr, frameMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, flags)
	hdr = appendI64(hdr, int64(to), int64(m.From), int64(m.Dest))
	hdr = appendI64(hdr, m.FinBlocks, m.FinDisk, m.Lost)
	hdr = appendI64(hdr, int64(len(m.Disk)))
	for _, d := range m.Disk {
		hdr = appendI64(hdr, int64(d.ID.Rank), int64(d.ID.Step), int64(d.ID.Seq), d.Bytes)
	}
	hdr = appendI64(hdr, int64(len(m.Blocks)))
	var payload int64
	for _, b := range m.Blocks {
		onDisk := int64(0)
		if b.OnDisk {
			onDisk = 1
		}
		hdr = appendI64(hdr, int64(b.ID.Rank), int64(b.ID.Step), int64(b.ID.Seq),
			b.Offset, b.Bytes, onDisk, int64(b.Enc), int64(len(b.Data)))
		payload += int64(len(b.Data))
	}
	t.hdr = hdr // keep the grown scratch for the next frame

	if payload >= defaultVectoredMin {
		// Vectored path: nothing is buffered (Send always leaves the bufio
		// writer flushed), so the whole frame — header segment plus every
		// payload in place — leaves in one writev.
		if err := t.w.Flush(); err != nil {
			return err
		}
		vecs := append(t.vecs[:0], hdr)
		for _, b := range m.Blocks {
			if len(b.Data) > 0 {
				vecs = append(vecs, b.Data)
			}
		}
		t.vecs = vecs // keep the grown backing for the next frame
		t.nb = vecs
		_, err := t.nb.WriteTo(t.c)
		for i := range vecs {
			vecs[i] = nil // drop payload references until the next frame
		}
		return err
	}

	// Buffered-copy path: small frames amortize into one copied write.
	if _, err := t.w.Write(hdr); err != nil {
		return err
	}
	for _, b := range m.Blocks {
		if len(b.Data) == 0 {
			continue
		}
		if _, err := t.w.Write(b.Data); err != nil {
			return err
		}
	}
	return t.w.Flush()
}

func appendI64(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// readPayload returns a pooled payload of length n filled from r. Claimed
// lengths beyond payloadChunk are proven against the wire chunk-first, so
// a corrupt descriptor cannot force an allocation larger than one chunk
// plus what the peer actually delivered.
func readPayload(r io.Reader, n int64) ([]byte, error) {
	if n <= payloadChunk {
		buf := block.GetPayload(int(n))
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	head := block.GetPayload(payloadChunk)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, err
	}
	buf := block.GetPayload(int(n))
	copy(buf, head)
	(&block.Block{Data: head}).Release()
	if _, err := io.ReadFull(r, buf[payloadChunk:]); err != nil {
		return nil, err
	}
	return buf, nil
}

// Frame layout sizes: the fixed header runs from the magic through nDisk,
// then come the disk refs, the nBlocks word and the block descriptors.
const (
	frameFixedLen = 4 + 4 + 7*8
	diskRefLen    = 4 * 8
	blockDescLen  = 8 * 8
	// tableChunk is how much of a descriptor table is read at once: every
	// frame a sender builds fits one chunk, and a corrupt count costs the
	// reader's scratch one chunk, not maxBatchLen descriptors.
	tableChunk = 64 << 10
)

// frameReader decodes frames off one connection. It owns the scratch the
// header and the descriptor tables are read into — one io.ReadFull each,
// parsed from the slice — and builds what it hands on from the job's free
// lists: block headers and the block list from rec, payloads from the pool.
// A steady-state frame whose receiver recycles allocates nothing.
type frameReader struct {
	r     io.Reader
	rec   *block.Recycler
	stock []*block.Block // headers drawn from rec, not yet handed on
	buf   []byte         // header and descriptor-table scratch, at most tableChunk
	lens  []int64        // each block's payload length, until the payloads are read
}

// fill reads the next n bytes (n ≤ tableChunk) into the scratch.
func (fr *frameReader) fill(n int) ([]byte, error) {
	if cap(fr.buf) < n {
		fr.buf = make([]byte, max(n, 4<<10))
	}
	buf := fr.buf[:n]
	_, err := io.ReadFull(fr.r, buf)
	return buf, err
}

// i64At reads descriptor word i of a table row.
func i64At(row []byte, i int) int64 { return int64(binary.LittleEndian.Uint64(row[8*i:])) }

// readFrame decodes one frame with a scratch and a free list of its own; a
// connection's reader keeps a frameReader and calls next.
func readFrame(r io.Reader) (int, rt.Message, error) {
	return (&frameReader{r: r, rec: block.NewRecycler(0)}).next()
}

func (fr *frameReader) next() (int, rt.Message, error) {
	var m rt.Message
	hdr, err := fr.fill(frameFixedLen)
	if err != nil {
		return 0, m, err
	}
	if magic := binary.LittleEndian.Uint32(hdr); magic != frameMagic {
		return 0, m, fmt.Errorf("realenv: bad frame magic %#x", magic)
	}
	flags := binary.LittleEndian.Uint32(hdr[4:])
	words := hdr[8:]
	to := i64At(words, 0)
	m.From = int(i64At(words, 1))
	m.Dest = int(i64At(words, 2))
	m.Fin = flags&flagFin != 0
	m.Retire = flags&flagRetire != 0
	m.FinBlocks = i64At(words, 3)
	m.FinDisk = i64At(words, 4)
	m.Lost = i64At(words, 5)
	nDisk := i64At(words, 6)
	if nDisk < 0 || nDisk > maxBatchLen {
		return 0, m, fmt.Errorf("realenv: bad disk-ref count %d", nDisk)
	}
	for left := int(nDisk); left > 0; {
		rows := min(left, tableChunk/diskRefLen)
		table, err := fr.fill(rows * diskRefLen)
		if err != nil {
			return 0, m, err
		}
		if m.Disk == nil {
			m.Disk = make([]rt.DiskRef, 0, rows)
		}
		for ; len(table) > 0; table = table[diskRefLen:] {
			m.Disk = append(m.Disk, rt.DiskRef{
				ID:    block.ID{Rank: int(i64At(table, 0)), Step: int(i64At(table, 1)), Seq: int(i64At(table, 2))},
				Bytes: i64At(table, 3),
			})
		}
		left -= rows
	}
	word, err := fr.fill(8)
	if err != nil {
		return 0, m, err
	}
	nBlocks := i64At(word, 0)
	if nBlocks < 0 || nBlocks > maxBatchLen {
		return 0, m, fmt.Errorf("realenv: bad block count %d", nBlocks)
	}
	// Pass 1: the contiguous descriptor table. A corrupt header must not
	// demand unbounded allocation, so descriptors are validated (and the
	// aggregate payload capped) before any payload byte is read.
	lens := fr.lens[:0]
	var frameData int64
	for left := int(nBlocks); left > 0; {
		rows := min(left, tableChunk/blockDescLen)
		table, err := fr.fill(rows * blockDescLen)
		if err != nil {
			return 0, m, err
		}
		if m.Blocks == nil {
			m.Blocks = fr.rec.Slice()
		}
		for ; len(table) > 0; table = table[blockDescLen:] {
			enc, dataLen := i64At(table, 6), i64At(table, 7)
			if dataLen < 0 || dataLen > maxFrameLen {
				return 0, m, fmt.Errorf("realenv: bad block data length %d", dataLen)
			}
			if frameData += dataLen; frameData > maxFrameLen {
				return 0, m, fmt.Errorf("realenv: frame payload exceeds %d bytes", int64(maxFrameLen))
			}
			if enc < 0 || enc > 255 {
				return 0, m, fmt.Errorf("realenv: bad block encoding %d", enc)
			}
			var blk *block.Block
			blk, fr.stock = fr.rec.Take(fr.stock)
			blk.ID = block.ID{Rank: int(i64At(table, 0)), Step: int(i64At(table, 1)), Seq: int(i64At(table, 2))}
			blk.Offset, blk.Bytes, blk.Data = i64At(table, 3), i64At(table, 4), nil
			blk.OnDisk, blk.Enc, blk.EncBytes = i64At(table, 5) == 1, uint8(enc), 0
			if blk.Enc != 0 {
				blk.EncBytes = dataLen
			}
			m.Blocks = append(m.Blocks, blk)
			lens = append(lens, dataLen)
		}
		left -= rows
	}
	fr.lens = lens // keep the grown scratch for the next frame
	// Pass 2: the concatenated payloads, in descriptor order.
	for i, blk := range m.Blocks {
		if lens[i] == 0 {
			continue
		}
		// Pooled payload: the consumer releases it after analysis, so
		// steady-state TCP receive allocates nothing for data.
		if blk.Data, err = readPayload(fr.r, lens[i]); err != nil {
			return 0, m, err
		}
	}
	return int(to), m, nil
}

var _ rt.Transport = (*TCPTransport)(nil)
