package realenv

import (
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"zipper/internal/block"
	"zipper/internal/core"
	"zipper/internal/place"
	"zipper/internal/rt"
	"zipper/internal/staging"
)

func TestClockAndThreads(t *testing.T) {
	env := New()
	c := env.Ctx()
	t0 := c.Now()
	var ran bool
	env.Go("worker", func(tc rt.Ctx) {
		tc.Sleep(5 * time.Millisecond)
		ran = true
	})
	env.Wait()
	if !ran {
		t.Fatal("thread did not run")
	}
	if c.Now() <= t0 {
		t.Fatal("clock did not advance")
	}
}

func TestLockAndCond(t *testing.T) {
	env := New()
	lk := env.NewLock("l")
	cond := lk.NewCond("c")
	c := env.Ctx()
	ready := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		lk.Lock(c)
		for !ready {
			cond.Wait(c)
		}
		lk.Unlock(c)
	}()
	time.Sleep(time.Millisecond)
	lk.Lock(c)
	ready = true
	cond.Broadcast()
	lk.Unlock(c)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("cond wait never woke")
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New().Ctx()
	b := block.New(block.ID{Rank: 1, Step: 2, Seq: 3}, 4096, []byte("hello zipper"))
	if err := fs.WriteBlock(c, b); err != nil {
		t.Fatal(err)
	}
	if b.OnDisk {
		t.Fatal("WriteBlock marked the caller's block OnDisk: the application may be reading it")
	}
	got, err := fs.ReadBlock(c, b.ID, b.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != "hello zipper" || got.Offset != 4096 || !got.OnDisk {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if err := fs.RemoveBlock(c, b.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadBlock(c, b.ID, b.Bytes); err == nil {
		t.Fatal("read after remove succeeded")
	}
}

func TestFileStoreDetectsCorruption(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New().Ctx()
	b := block.New(block.ID{Rank: 0, Step: 0, Seq: 0}, 0, []byte("precious data"))
	if err := fs.WriteBlock(c, b); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte on disk.
	path := fs.path(b.ID)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadBlock(c, b.ID, b.Bytes); err == nil {
		t.Fatal("corrupted block passed the checksum")
	}
	// Truncation is also detected.
	if err := os.WriteFile(path, raw[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadBlock(c, b.ID, b.Bytes); err == nil {
		t.Fatal("truncated block accepted")
	}
}

func TestNetworkBackpressure(t *testing.T) {
	n := NewNetwork(1, 1)
	c := New().Ctx()
	n.Send(c, 0, rt.Message{From: 1}) // fills the window
	blocked := make(chan struct{})
	go func() {
		n.Send(c, 0, rt.Message{From: 2}) // must block
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("second send did not block on a full window")
	case <-time.After(20 * time.Millisecond):
	}
	if m, ok := n.Inbox(0).Recv(c); !ok || m.From != 1 {
		t.Fatalf("recv = %+v, %v", m, ok)
	}
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("send did not unblock after drain")
	}
}

func TestTCPFrameRoundTrip(t *testing.T) {
	ln, err := ListenTCP("127.0.0.1:0", 2, 4, block.NewRecycler(0))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tr, err := DialTCP(ln.Addr(), 2, block.NewRecycler(0))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := New().Ctx()

	blk := block.New(block.ID{Rank: 3, Step: 14, Seq: 15}, 926, []byte{1, 2, 3, 4, 5})
	blk2 := block.New(block.ID{Rank: 3, Step: 14, Seq: 16}, 931, []byte{6, 7, 8})
	tr.Send(c, 1, rt.Message{
		From:   3,
		Dest:   1,
		Blocks: []*block.Block{blk, blk2},
		Disk: []rt.DiskRef{
			{ID: block.ID{Rank: 3, Step: 13, Seq: 9}, Bytes: 512},
		},
	})
	tr.Send(c, 0, rt.Message{From: 3, Fin: true})

	m, ok := ln.Inbox(1).Recv(c)
	if !ok {
		t.Fatal("no message")
	}
	if m.From != 3 || m.Dest != 1 || len(m.Blocks) != 2 || m.Blocks[0].ID != blk.ID || m.Blocks[0].Offset != 926 {
		t.Fatalf("frame mismatch: %+v", m)
	}
	if string(m.Blocks[0].Data) != "\x01\x02\x03\x04\x05" || string(m.Blocks[1].Data) != "\x06\x07\x08" {
		t.Fatalf("payload mismatch: %v %v", m.Blocks[0].Data, m.Blocks[1].Data)
	}
	if m.Blocks[1].ID != blk2.ID || m.Blocks[1].Bytes != 3 {
		t.Fatalf("second batched block mismatch: %+v", m.Blocks[1])
	}
	if len(m.Disk) != 1 || m.Disk[0].Bytes != 512 || m.Disk[0].ID.Seq != 9 {
		t.Fatalf("disk refs mismatch: %+v", m.Disk)
	}
	fin, ok := ln.Inbox(0).Recv(c)
	if !ok || !fin.Fin || len(fin.Blocks) != 0 {
		t.Fatalf("fin mismatch: %+v", fin)
	}
}

// TestTCPCloseFencesDelivery pins Close's half-close: once
// TCPTransport.Close has returned, every message sent on the connection is
// already in its destination inbox — a drain that never blocks finds them
// all, in order — where a reset would have discarded what the kernel still
// held. The connection's window is smaller than the stream, so the sender
// also parks on acknowledgements on the way.
func TestTCPCloseFencesDelivery(t *testing.T) {
	const msgs, endpoints = 40, 2
	ln, err := ListenTCP("127.0.0.1:0", endpoints, msgs, block.NewRecycler(0))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tr, err := DialTCP(ln.Addr(), 4, block.NewRecycler(0))
	if err != nil {
		t.Fatal(err)
	}
	c := New().Ctx()
	for seq := 0; seq < msgs; seq++ {
		data := block.GetPayload(64)
		data[0] = byte(seq)
		b := block.New(block.ID{Rank: 0, Seq: seq}, 0, data)
		tr.Send(c, seq%endpoints, rt.Message{From: 0, Dest: seq % endpoints, Blocks: []*block.Block{b}})
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	got := 0
	for to := 0; to < endpoints; to++ {
		in := ln.Inbox(to).(inbox)
		for next, drained := to, false; !drained; {
			select {
			case m := <-in:
				if b := m.Blocks[0]; b.ID.Seq != next || b.Data[0] != byte(next) {
					t.Fatalf("endpoint %d got block %v, want seq %d", to, b.ID, next)
				}
				next += endpoints
				got++
			default:
				drained = true
			}
		}
	}
	if got != msgs {
		t.Fatalf("%d of %d messages were in their inbox when Close returned", got, msgs)
	}
}

// TestTCPFenceDeposits pins the Retire fence of a TCP job: once
// TCPTransport.Fence has returned, every message sent on the connection
// before it is already in its destination inbox — a drain that never blocks
// finds them all, in order — while the connection stays open for more. The
// window is smaller than the stream, so the sender also parks on
// acknowledgements on the way. On a failed connection, and on a transport
// without a window, Fence returns at once.
func TestTCPFenceDeposits(t *testing.T) {
	const msgs, endpoints = 40, 2
	ln, err := ListenTCP("127.0.0.1:0", endpoints, msgs, block.NewRecycler(0))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tr, err := DialTCP(ln.Addr(), 4, block.NewRecycler(0))
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := New().Ctx()
	send := func(seq int) {
		// Frames long enough to be on the wire for a while after Send.
		data := block.GetPayload(64 << 10)
		data[0] = byte(seq)
		b := block.New(block.ID{Rank: 0, Seq: seq}, 0, data)
		tr.Send(c, seq%endpoints, rt.Message{From: 0, Dest: seq % endpoints, Blocks: []*block.Block{b}})
	}
	next := []int{0, 1} // the next sequence number each endpoint expects
	drain := func(sent int) {
		t.Helper()
		for to, in := range []inbox{ln.Inbox(0).(inbox), ln.Inbox(1).(inbox)} {
			for drained := false; !drained; {
				select {
				case m := <-in:
					if b := m.Blocks[0]; b.ID.Seq != next[to] || b.Data[0] != byte(next[to]) {
						t.Fatalf("endpoint %d got block %v, want seq %d", to, b.ID, next[to])
					}
					next[to] += endpoints
				default:
					drained = true
				}
			}
		}
		if got := next[0]/endpoints + next[1]/endpoints; got != sent {
			t.Fatalf("%d of %d messages were in their inbox when Fence returned", got, sent)
		}
	}
	for seq := 0; seq < msgs; seq++ {
		send(seq)
	}
	tr.Fence()
	drain(msgs)
	// The connection is still open: the next fence covers what follows.
	for seq := msgs; seq < 2*msgs; seq++ {
		send(seq)
	}
	tr.Fence()
	drain(2 * msgs)

	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// A peer that reads a frame and hangs up without acknowledging it.
	near, far := net.Pipe()
	failed := newTCPTransport(near, 4, block.NewRecycler(0))
	go func() {
		_, _, _ = readFrame(far)
		far.Close()
	}()
	failed.Send(c, 0, msg(0, 0))
	failed.Fence() // returns once the acknowledgement stream has failed
	_ = failed.Close()
	sink := newTCPTransport(&discardConn{}, 0, block.NewRecycler(0))
	sink.Send(c, 0, msg(0, 0))
	sink.Fence() // no window: no acknowledgement ever comes
}

// TestTCPWorkflow runs the full Zipper core over the TCP transport: the
// producer and consumer sides share nothing but the socket and the spool
// directory, as two separate OS processes would.
func TestTCPWorkflow(t *testing.T) {
	dir := t.TempDir()
	// Each side has its own free list, as two processes would.
	consRec, prodRec := block.NewRecycler(0), block.NewRecycler(0)
	ln, err := ListenTCP("127.0.0.1:0", 1, 2, consRec)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	consEnv := New()
	consFS, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cons := core.NewConsumer(consEnv, core.Config{Recycler: consRec}, 0, 1, ln.Inbox(0), consFS)

	prodEnv := New()
	prodFS, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := DialTCP(ln.Addr(), 2, prodRec)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	prod := core.NewProducer(prodEnv, core.Config{BufferBlocks: 4, HighWater: 2, Recycler: prodRec}, 0, 0, tr, prodFS)

	const n = 25
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := prodEnv.Ctx()
		for s := 0; s < n; s++ {
			prod.Write(c, s, int64(s), []byte{byte(s), byte(s + 1)}, 2)
		}
		prod.Close(c)
		prod.Wait(c)
	}()

	c := consEnv.Ctx()
	got := map[int]byte{}
	for {
		b, ok := cons.Read(c)
		if !ok {
			break
		}
		got[b.ID.Step] = b.Data[0]
		time.Sleep(time.Millisecond) // slow consumer: force spills over TCP refs
	}
	wg.Wait()
	cons.Wait(c)
	if err := cons.Err(c); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("received %d blocks, want %d", len(got), n)
	}
	for s, v := range got {
		if v != byte(s) {
			t.Fatalf("step %d payload %d", s, v)
		}
	}
}

func TestTCPValidation(t *testing.T) {
	if _, err := ListenTCP("127.0.0.1:0", 0, 1, block.NewRecycler(0)); err == nil {
		t.Fatal("zero consumers accepted")
	}
	if _, err := DialTCP("127.0.0.1:1", 1, block.NewRecycler(0)); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// TestTCPStagedWorkflow runs the in-transit tier over the TCP frame: the
// producer process dials in and relays everything through a stager that
// lives as goroutines inside the listening (consumer-side) process,
// forwarding to the consumer through the listener's loopback transport. The
// stager is retired as soon as the producer is done, while the consumer lags
// behind, once the producer's connection is fenced: every frame is in the
// stager's inbox before the Retire, and the connection stays open until the
// stager is done.
func TestTCPStagedWorkflow(t *testing.T) {
	dir := t.TempDir()
	// Endpoint space: consumer 0, stager at address 1. Each side has its own
	// free list, as two processes would.
	consRec, prodRec := block.NewRecycler(0), block.NewRecycler(0)
	ln, err := ListenTCP("127.0.0.1:0", 2, 2, consRec)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	consEnv := New()
	consFS, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cons := core.NewConsumer(consEnv, core.Config{Recycler: consRec}, 0, 1, ln.Inbox(0), consFS)
	spill, err := consFS.Partition("stage0")
	if err != nil {
		t.Fatal(err)
	}
	stage := staging.NewStager(consEnv, staging.Config{BufferBlocks: 8, Managed: true, Recycler: consRec},
		0, ln.Inbox(1), ln.Loopback(), spill)

	prodEnv := New()
	prodFS, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := DialTCP(ln.Addr(), 2, prodRec)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	pool := place.New(place.RankAffine(), nil)
	pool.Add(1)
	prod := core.NewProducer(prodEnv,
		core.Config{BufferBlocks: 8, DisableSteal: true, RoutePolicy: core.RouteStaging,
			Directory: pool, Recycler: prodRec},
		0, 0, tr, prodFS)

	const n = 60
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := prodEnv.Ctx()
		for s := 0; s < n; s++ {
			// Blocks long enough that a written frame spends a while on
			// the wire, where a Retire could overtake it.
			data := make([]byte, 64<<10)
			data[0] = byte(s)
			prod.Write(c, s, int64(s), data, int64(len(data)))
		}
		prod.Close(c)
		prod.Wait(c)
		pool.RetireAll(c, func(addr int) {
			tr.Fence()
			ln.Loopback().Send(c, addr, rt.Message{Retire: true})
		})
	}()
	read := make(chan int)
	go func() {
		c := consEnv.Ctx()
		seq := 0
		for {
			b, ok := cons.Read(c)
			if !ok {
				break
			}
			if b.ID.Seq != seq || b.Data[0] != byte(b.ID.Step) {
				t.Errorf("relay over TCP broke block %v (seq want %d)", b.ID, seq)
			}
			seq++
			time.Sleep(500 * time.Microsecond) // lag: drive the stager past high water
		}
		read <- seq
	}()

	wg.Wait()
	c := consEnv.Ctx()
	stage.Wait(c)
	if in := stage.Stats(c).BlocksIn; in != n {
		t.Fatalf("the stager admitted %d of %d blocks: its Retire overtook a frame", in, n)
	}
	seq := <-read
	cons.Wait(c)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cons.Err(c); err != nil {
		t.Fatal(err)
	}
	if err := stage.Err(c); err != nil {
		t.Fatal(err)
	}
	if seq != n {
		t.Fatalf("received %d blocks, want %d", seq, n)
	}
	ps := prod.Stats()
	if ps.BlocksRelayed != n || ps.BlocksSent != 0 {
		t.Fatalf("relay accounting: relayed=%d sent=%d", ps.BlocksRelayed, ps.BlocksSent)
	}
	st := stage.Stats(c)
	if st.BlocksIn != n || st.BlocksForwarded != n {
		t.Fatalf("stager moved %d/%d blocks, want %d", st.BlocksIn, st.BlocksForwarded, n)
	}
	if st.BlocksSpilled == 0 {
		t.Fatal("stager never spilled despite 8-block buffer and slow consumer")
	}
}
