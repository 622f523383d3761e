package realenv

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zipper/internal/block"
	"zipper/internal/rt"
)

// msg stamps a (sender, sequence) pair into a message so receivers can
// verify per-sender FIFO delivery and loss-free accounting.
func msg(sender, seq int) rt.Message {
	return rt.Message{From: sender, Blocks: []*block.Block{
		{ID: block.ID{Rank: sender, Step: seq}},
	}}
}

func msgSeq(m rt.Message) int { return m.Blocks[0].ID.Step }

func TestRingPushPopWraparound(t *testing.T) {
	r := newRing(3) // four slots, but the window is what push enforces
	if r.capacity() != 3 || len(r.buf) != 4 {
		t.Fatalf("capacity = %d over %d slots, want the window 3 over 4 slots", r.capacity(), len(r.buf))
	}
	next := 0 // next sequence to push
	seen := 0 // next sequence expected out
	// Push/pop in ragged runs far past capacity so the cursors wrap.
	for round := 0; round < 50; round++ {
		for r.push(msg(0, next)) {
			next++
		}
		if r.free() != 0 {
			t.Fatalf("round %d: push refused with %d free slots", round, r.free())
		}
		for i := 0; i < 1+round%3; i++ {
			m, ok := r.pop()
			if !ok {
				t.Fatalf("round %d: nothing to pop after filling", round)
			}
			if got := msgSeq(m); got != seen {
				t.Fatalf("round %d: popped seq %d, want %d", round, got, seen)
			}
			seen++
		}
	}
	// Drain the tail and confirm the ring reports empty.
	for {
		m, ok := r.pop()
		if !ok {
			break
		}
		if got := msgSeq(m); got != seen {
			t.Fatalf("drain: popped seq %d, want %d", got, seen)
		}
		seen++
	}
	if seen != next {
		t.Fatalf("popped %d messages, pushed %d", seen, next)
	}
	if r.occupancy() != 0 || r.free() != r.capacity() {
		t.Fatalf("drained ring reports occupancy %d free %d", r.occupancy(), r.free())
	}
}

func TestRingNetworkDelivers(t *testing.T) {
	env := New()
	net := NewRingNetwork(2, 8)
	const total = 1000
	port := net.Port()
	env.Go("sender", func(c rt.Ctx) {
		for i := 0; i < total; i++ {
			port.Send(c, 1, msg(0, i))
		}
	})
	in := net.Inbox(1)
	c := env.Ctx()
	for i := 0; i < total; i++ {
		m, ok := in.Recv(c)
		if !ok {
			t.Fatalf("inbox closed at %d", i)
		}
		if got := msgSeq(m); got != i {
			t.Fatalf("message %d arrived with seq %d", i, got)
		}
	}
	env.Wait()
}

// TestRingRetireHeldBack pins the drain-protocol guarantee the ring inbox
// restores: a Retire popped from one lane is delivered only after every
// other lane has drained empty, so "Retire arrives last" holds across
// per-sender lanes exactly as it did on the single channel FIFO.
func TestRingRetireHeldBack(t *testing.T) {
	net := NewRingNetwork(1, 16)
	c := New().Ctx()
	data := net.Port()
	for i := 0; i < 5; i++ {
		data.Send(c, 0, msg(7, i))
	}
	// The control-path Retire lands on a different lane; a naive
	// round-robin drain could surface it before the data lane.
	net.Send(c, 0, rt.Message{Retire: true})
	in := net.Inbox(0)
	for i := 0; i < 5; i++ {
		m, _ := in.Recv(c)
		if m.Retire {
			t.Fatalf("Retire delivered at position %d, before the data lane drained", i)
		}
		if got := msgSeq(m); got != i {
			t.Fatalf("data message %d out of order (seq %d)", i, got)
		}
	}
	m, _ := in.Recv(c)
	if !m.Retire {
		t.Fatalf("sixth delivery is not the Retire: %+v", m)
	}
}

// TestTransportBackpressure is the satellite -race hammer: concurrent
// Send/Recv/Credits on both the channel and ring endpoint sets, asserting
// zero message loss, per-sender FIFO order, and sane credit accounting
// (never negative, never above the window, back to full after drain).
func TestTransportBackpressure(t *testing.T) {
	const (
		senders  = 4
		perSend  = 2000
		depth    = 8
		endpoint = 0
	)
	for _, tc := range []struct {
		name string
		net  *Network
	}{
		{"channel", NewNetwork(2, depth)},
		{"ring", NewRingNetwork(2, depth)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := New()
			for s := 0; s < senders; s++ {
				s := s
				port := tc.net.Port()
				env.Go(fmt.Sprintf("sender%d", s), func(c rt.Ctx) {
					for i := 0; i < perSend; i++ {
						port.Send(c, endpoint, msg(s, i))
						if cr := port.Credits(endpoint); cr < 0 || cr > depth {
							panic(fmt.Sprintf("sender %d: credits %d outside [0,%d]", s, cr, depth))
						}
					}
				})
			}
			var polls atomic.Int64
			stop := make(chan struct{})
			var pollWG sync.WaitGroup
			pollWG.Add(1)
			go func() {
				defer pollWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if cr := tc.net.Credits(endpoint); cr < 0 || cr > depth {
						panic(fmt.Sprintf("shared credits %d outside [0,%d]", cr, depth))
					}
					polls.Add(1)
				}
			}()
			in := tc.net.Inbox(endpoint)
			c := env.Ctx()
			lastSeq := make([]int, senders)
			for i := range lastSeq {
				lastSeq[i] = -1
			}
			for got := 0; got < senders*perSend; got++ {
				m, ok := in.Recv(c)
				if !ok {
					t.Fatalf("inbox closed after %d messages", got)
				}
				if seq := msgSeq(m); seq != lastSeq[m.From]+1 {
					t.Fatalf("sender %d: seq %d after %d (per-sender FIFO broken)", m.From, seq, lastSeq[m.From])
				} else {
					lastSeq[m.From] = seq
				}
			}
			env.Wait()
			close(stop)
			pollWG.Wait()
			if polls.Load() == 0 {
				t.Fatal("credit poller never ran")
			}
			// Everything delivered and acknowledged: the window is whole again.
			if cr := tc.net.Credits(endpoint); cr != depth {
				t.Fatalf("post-drain credits = %d, want the full window %d", cr, depth)
			}
		})
	}
}

// TestRingFullParksAndWakes forces the slow path: a depth-2 ring with a
// deliberately slow consumer makes the producer park on the notFull gate
// and the consumer park on notEmpty, in both orders.
func TestRingFullParksAndWakes(t *testing.T) {
	env := New()
	net := NewRingNetwork(1, 2)
	const total = 5000
	port := net.Port()
	env.Go("sender", func(c rt.Ctx) {
		for i := 0; i < total; i++ {
			port.Send(c, 0, msg(0, i))
		}
	})
	in := net.Inbox(0)
	c := env.Ctx()
	for i := 0; i < total; i++ {
		m, _ := in.Recv(c)
		if got := msgSeq(m); got != i {
			t.Fatalf("message %d arrived with seq %d", i, got)
		}
	}
	env.Wait()
}

// TestRingWindowParksSender pins the one window rule on the ring transport:
// a lane built for a window of 4 (what a RingDepth: 64, Window: 4 job asks
// for) takes exactly 4 undelivered messages and parks the sender on the
// fifth, the sender never gets more than 4 ahead of the receiver, and
// neither the sender's port nor the shared handle ever reports more than 4
// credits.
func TestRingWindowParksSender(t *testing.T) {
	const window, total = 4, 2000
	env := New()
	net := NewRingNetwork(1, window)
	port := net.Port()
	if got := port.Credits(0); got != window {
		t.Fatalf("fresh lane reports %d credits, want %d", got, window)
	}
	var completed atomic.Int64
	filled := make(chan struct{}) // closed once `window` sends have completed
	env.Go("sender", func(c rt.Ctx) {
		for i := 0; i < total; i++ {
			if cr := port.Credits(0); cr < 0 || cr > window {
				t.Errorf("before send %d the port reports %d credits, window %d", i, cr, window)
			}
			port.Send(c, 0, msg(0, i))
			if completed.Add(1) == window {
				close(filled)
			}
		}
	})
	<-filled
	if got := net.Credits(0); got != 0 {
		t.Fatalf("%d credits left after %d undelivered messages", got, window)
	}
	time.Sleep(20 * time.Millisecond) // a sender that ignored the window would run on
	if got := completed.Load(); got != window {
		t.Fatalf("%d sends completed with nothing delivered, window %d", got, window)
	}
	in, c := net.Inbox(0), env.Ctx()
	for i := 0; i < total; i++ {
		m, _ := in.Recv(c)
		if got := msgSeq(m); got != i {
			t.Fatalf("message %d arrived with seq %d", i, got)
		}
		if ahead := completed.Load() - int64(i+1); ahead > window {
			t.Fatalf("%d messages undelivered, window %d", ahead, window)
		}
		if cr := net.Credits(0); cr < 0 || cr > window {
			t.Fatalf("shared handle reports %d credits, window %d", cr, window)
		}
	}
	env.Wait()
}
