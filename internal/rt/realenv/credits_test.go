package realenv

import (
	"testing"
	"time"

	"zipper/internal/block"
	"zipper/internal/rt"
)

// TestTransportsReportWindowCredit holds every transport handle the platform
// hands out to the rt.Transport contract's Credits: a fresh handle reports
// the whole window, a flood held up by a slow receiver never reads outside
// [0, window] and does run the window dry, and once the receiver has drained
// everything the window is whole again. Credits is read on the sending thread
// only, as the producer and the stager read it (a ring port is that thread's
// own lane).
func TestTransportsReportWindowCredit(t *testing.T) {
	const window, total = 3, 60
	listen := func(t *testing.T, ring bool) *TCPListener {
		t.Helper()
		ln, err := ListenTCP("127.0.0.1:0", 1, window, block.NewRecycler(0))
		if ring {
			ln, err = ListenTCPRing("127.0.0.1:0", 1, window, block.NewRecycler(0))
		}
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
		{"ring", func(*testing.T) (rt.Transport, rt.Inbox) {
			n := NewRingNetwork(1, window)
			return n, n.Inbox(0)
		}},
		{"ring port", func(*testing.T) (rt.Transport, rt.Inbox) {
			n := NewRingNetwork(1, window)
			return n.Port(), n.Inbox(0)
		}},
		{"tcp", func(t *testing.T) (rt.Transport, rt.Inbox) {
			ln := listen(t, false)
			tr, err := DialTCP(ln.Addr(), window, block.NewRecycler(0))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tr.Close() }) // runs before the listener's Close
			return tr, ln.Inbox(0)
		}},
		{"loopback", func(t *testing.T) (rt.Transport, rt.Inbox) {
			ln := listen(t, false)
			return ln.Loopback(), ln.Inbox(0)
		}},
		{"loopback port", func(t *testing.T) (rt.Transport, rt.Inbox) {
			ln := listen(t, false)
			return ln.LoopbackPort(), ln.Inbox(0)
		}},
		{"ring loopback", func(t *testing.T) (rt.Transport, rt.Inbox) {
			ln := listen(t, true)
			return ln.Loopback(), ln.Inbox(0)
		}},
		{"ring loopback port", func(t *testing.T) (rt.Transport, rt.Inbox) {
			ln := listen(t, true)
			return ln.LoopbackPort(), ln.Inbox(0)
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
