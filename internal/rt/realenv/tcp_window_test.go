package realenv

import (
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zipper/internal/block"
	"zipper/internal/rt"
)

// TestTCPWindowParksSender is TestRingWindowParksSender for the third
// transport: with nothing received, a connection carries its send window of
// messages past what the inbox holds and not one more, however much room the
// socket buffers have, and delivery reopens it message by message.
func TestTCPWindowParksSender(t *testing.T) {
	const window, inboxCap, total = 3, 1, 600
	ln, err := ListenTCP("127.0.0.1:0", 1, inboxCap)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tr, err := DialTCP(ln.Addr(), window)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if got := tr.Credits(0); got != window {
		t.Fatalf("fresh connection reports %d credits, want %d", got, window)
	}
	env := New()
	var completed atomic.Int64
	filled := make(chan struct{}) // closed once `window` sends have completed
	env.Go("sender", func(c rt.Ctx) {
		for i := 0; i < total; i++ {
			if cr := tr.Credits(0); cr < 0 || cr > window {
				t.Errorf("before send %d the connection reports %d credits, window %d", i, cr, window)
			}
			tr.Send(c, 0, msg(0, i))
			if completed.Add(1) == window {
				close(filled)
			}
		}
	})
	<-filled
	time.Sleep(20 * time.Millisecond) // a sender bounded only by socket buffers would run on
	// The inbox may have taken one message out of the window before the
	// reader blocked on the next; nothing else can have moved.
	if got := completed.Load(); got > window+inboxCap {
		t.Fatalf("%d sends completed with nothing received, window %d over an inbox of %d", got, window, inboxCap)
	}
	in, c := ln.Inbox(0), env.Ctx()
	for i := 0; i < total; i++ {
		m, _ := in.Recv(c)
		if got := msgSeq(m); got != i {
			t.Fatalf("message %d arrived with seq %d", i, got)
		}
		if ahead := completed.Load() - int64(i+1); ahead > window+inboxCap {
			t.Fatalf("%d messages undelivered, window %d over an inbox of %d", ahead, window, inboxCap)
		}
	}
	env.Wait()
	// Every message is in the application's hands, so every one is
	// acknowledged, or about to be.
	for deadline := time.Now().Add(5 * time.Second); tr.Credits(0) != window; {
		if time.Now().After(deadline) {
			t.Fatalf("%d credits after everything was delivered, want %d", tr.Credits(0), window)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPWindowOnePingPong runs the tightest window there is: every frame
// needs the acknowledgement of the one before it, so a listener that held an
// acknowledgement back across a read that blocks would stop the stream dead.
// Two senders share the connection, and payloads from nothing to several
// socket reads long leave the reader's buffer at every kind of boundary.
func TestTCPWindowOnePingPong(t *testing.T) {
	const senders, each = 2, 5000
	ln, err := ListenTCP("127.0.0.1:0", senders, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tr, err := DialTCP(ln.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sizes := []int{0, 3, 1 << 10, 70 << 10}
	payload := make([]byte, sizes[len(sizes)-1])
	env := New()
	for s := 0; s < senders; s++ {
		s := s
		env.Go("sender", func(c rt.Ctx) {
			for i := 0; i < each; i++ {
				m := msg(s, i)
				if n := sizes[(i+s)%len(sizes)]; n > 0 {
					m.Blocks[0].Data, m.Blocks[0].Bytes = payload[:n], int64(n)
				}
				tr.Send(c, s, m)
			}
		})
		env.Go("receiver", func(c rt.Ctx) {
			for i := 0; i < each; i++ {
				m, _ := ln.Inbox(s).Recv(c)
				if m.From != s || msgSeq(m) != i || len(m.Blocks[0].Data) != sizes[(i+s)%len(sizes)] {
					t.Errorf("endpoint %d message %d: from %d seq %d with %d bytes", s, i, m.From, msgSeq(m), len(m.Blocks[0].Data))
					return
				}
				m.Blocks[0].Release()
			}
		})
	}
	done := make(chan struct{})
	go func() { env.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("the stream stopped: a frame and its acknowledgement are waiting on each other")
	}
}

// ackingPeer is the listener's half of the protocol over a pipe: it reads
// frames, hands them over, and acknowledges `per` at a time.
func ackingPeer(conn net.Conn, per int, got chan<- rt.Message) {
	defer close(got)
	var ack [4]byte
	for n := 1; ; n++ {
		_, m, err := readFrame(conn)
		if err != nil {
			return
		}
		got <- m
		if n%per == 0 {
			binary.LittleEndian.PutUint32(ack[:], uint32(per))
			if _, err := conn.Write(ack[:]); err != nil {
				return
			}
		}
	}
}

// TestFrameAckedRoundTrip covers the windowed mode of newTCPTransport the
// way TestFrameV5RoundTrip covers the unbounded one: every frame shape, on
// both write paths, against a peer that acknowledges two messages at a time
// — so the sender parks on every other Send and a coalesced count reopens
// the whole window.
func TestFrameAckedRoundTrip(t *testing.T) {
	for _, vectoredMin := range []int{-1, 1} {
		near, far := net.Pipe()
		tr := newTCPTransport(near, 2)
		tr.SetVectoredMin(vectoredMin)
		got := make(chan rt.Message)
		go ackingPeer(far, 2, got)
		msgs := frameMessages()
		go func() {
			c := New().Ctx()
			for i, m := range msgs {
				tr.Send(c, i%7, m)
			}
		}()
		for i, want := range msgs {
			checkMessage(t, i, want, <-got)
		}
		for deadline := time.Now().Add(5 * time.Second); tr.Credits(0) != 2; {
			if time.Now().After(deadline) {
				t.Fatalf("vectoredMin=%d: %d credits after every frame was acknowledged, want 2", vectoredMin, tr.Credits(0))
			}
			time.Sleep(time.Millisecond)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if _, ok := <-got; ok {
			t.Fatal("a frame arrived after Close")
		}
	}
}

// TestTCPDeadConnectionWakesParkedSender: a sender parked on a closed window
// must not outlive its connection. The peer takes one message, never
// acknowledges it and hangs up; the Send parked behind it has to end the way
// a failed write does.
func TestTCPDeadConnectionWakesParkedSender(t *testing.T) {
	near, far := net.Pipe()
	tr := newTCPTransport(near, 1)
	defer tr.Close()
	failed := make(chan any, 1)
	go func() {
		defer func() { failed <- recover() }()
		c := New().Ctx()
		tr.Send(c, 0, msg(0, 0))
		tr.Send(c, 0, msg(0, 1)) // parks: the window is 1
	}()
	if _, _, err := readFrame(far); err != nil {
		t.Fatal(err)
	}
	for tr.Credits(0) != 0 {
		time.Sleep(time.Millisecond)
	}
	far.Close()
	select {
	case r := <-failed:
		if s, _ := r.(string); !strings.Contains(s, "realenv: tcp send") {
			t.Fatalf("parked Send ended with %v, want the tcp send failure", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the parked sender outlived its connection")
	}
}

// TestTCPCloseDeliversWhatWasSent: Close right behind the last Send, with
// the receiver not yet reading, must lose nothing — the listener reads to
// the sender's EOF before either side hangs up.
func TestTCPCloseDeliversWhatWasSent(t *testing.T) {
	const window, total = 4, 4
	ln, err := ListenTCP("127.0.0.1:0", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tr, err := DialTCP(ln.Addr(), window)
	if err != nil {
		t.Fatal(err)
	}
	c := New().Ctx()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			m := msg(0, i)
			m.Blocks[0].Data, m.Blocks[0].Bytes = block.GetPayload(256<<10), 256<<10
			tr.Send(c, 0, m)
		}
		if err := tr.Close(); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // let Close get ahead of the receiver
	for i := 0; i < total; i++ {
		m, _ := ln.Inbox(0).Recv(c)
		if msgSeq(m) != i || len(m.Blocks[0].Data) != 256<<10 {
			t.Fatalf("message %d arrived as seq %d with %d bytes", i, msgSeq(m), len(m.Blocks[0].Data))
		}
	}
	wg.Wait()
}
