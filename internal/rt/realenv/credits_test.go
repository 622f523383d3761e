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

// TestTransportsReportWindowCredit holds every transport handle the platform
// hands out to the rt.Transport contract's Credits: a fresh handle reports
// the whole window, a flood held up by a slow receiver never reads outside
// [0, window] and does run the window dry, and once the receiver has drained
// everything the window is whole again. Credits is read on the sending thread
// only, as the producer and the stager read it.
func TestTransportsReportWindowCredit(t *testing.T) {
	const window, total = 3, 60
	listen := func(t *testing.T) *TCPListener {
		t.Helper()
		ln, err := ListenTCP("127.0.0.1:0", 1, window, block.NewRecycler(0))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return ln
	}
	for _, tc := range []struct {
		name string
		// open returns the handle under test and the inbox it delivers to.
		open func(t *testing.T) (rt.Transport, rt.Inbox)
	}{
		{"channel", func(*testing.T) (rt.Transport, rt.Inbox) {
			n := NewNetwork(1, window)
			return n, n.Inbox(0)
		}},
		{"channel port", func(*testing.T) (rt.Transport, rt.Inbox) {
			n := NewNetwork(1, window)
			return n.Port(), n.Inbox(0)
		}},
		{"tcp", func(t *testing.T) (rt.Transport, rt.Inbox) {
			ln := listen(t)
			tr, err := DialTCP(ln.Addr(), window, block.NewRecycler(0))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tr.Close() }) // runs before the listener's Close
			return tr, ln.Inbox(0)
		}},
		{"loopback", func(t *testing.T) (rt.Transport, rt.Inbox) {
			ln := listen(t)
			return ln.Loopback(), ln.Inbox(0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, in := tc.open(t)
			if got := tr.Credits(0); got != window {
				t.Fatalf("fresh handle reports %d credits, want %d", got, window)
			}
			env := New()
			dry := make(chan struct{}) // closed once the sender reads 0 credits
			bad := make(chan int, 1)   // the first reading outside [0, window]
			env.Go("sender", func(c rt.Ctx) {
				ranDry := false
				for i := 0; i < total; i++ {
					cr := tr.Credits(0)
					if cr < 0 || cr > window {
						select {
						case bad <- cr:
						default:
						}
					}
					if cr == 0 && !ranDry {
						close(dry)
						ranDry = true
					}
					tr.Send(c, 0, msg(0, i))
				}
			})
			// The receiver takes nothing until the flood has run the window
			// dry, then drains it slowly.
			select {
			case <-dry:
			case <-time.After(5 * time.Second):
				t.Fatal("the window never ran dry with nothing received")
			}
			c := env.Ctx()
			for i := 0; i < total; i++ {
				m, ok := in.Recv(c)
				if !ok {
					t.Fatalf("inbox closed after %d messages", i)
				}
				if got := msgSeq(m); got != i {
					t.Fatalf("message %d arrived with seq %d", i, got)
				}
				time.Sleep(20 * time.Microsecond)
			}
			env.Wait()
			select {
			case cr := <-bad:
				t.Fatalf("the sender read %d credits, window %d", cr, window)
			default:
			}
			// Everything is in the receiver's hands; over TCP the last
			// acknowledgements may still be on their way.
			for deadline := time.Now().Add(5 * time.Second); tr.Credits(0) != window; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d credits after everything was received, want %d", tr.Credits(0), window)
				}
			}
		})
	}
}

// TestTransportBackpressure is the -race hammer: concurrent Send/Recv/Credits
// on the channel network, asserting zero message loss, per-sender FIFO
// order, and sane credit accounting (never negative, never above the window,
// back to full after drain).
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
