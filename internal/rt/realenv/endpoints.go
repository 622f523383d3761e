package realenv

import (
	"sync"
	"sync/atomic"

	"zipper/internal/rt"
)

// endpointSet is the one shape behind every realenv message path: N receive
// endpoints with window-credit accounting and per-sender port minting.
// Network wraps a set directly; TCPListener hosts one behind its accepted
// connections and hands ports to the connection readers and the in-process
// stager loopback. Two implementations exist — buffered Go channels (the
// pinned default, byte-identical to earlier revisions) and pairwise SPSC
// rings (the intra-node fast path).
type endpointSet interface {
	// Send delivers m to endpoint `to`, blocking while its window is full.
	// Safe for any number of concurrent senders.
	Send(c rt.Ctx, to int, m rt.Message)
	// Credits reports how many more messages endpoint `to` can accept.
	Credits(to int) int
	// Inbox returns endpoint i's receive side (one consuming thread each).
	Inbox(i int) rt.Inbox
	// Port returns a transport handle for ONE sending thread — the hot
	// path. Ring sets mint a private SPSC lane per port; channel sets are
	// multi-producer-safe already and return the shared set.
	Port() rt.Transport
	// Endpoints reports the endpoint count, for address validation.
	Endpoints() int
}

// chanEndpoints is the channel-backed endpoint set: one buffered channel per
// endpoint, capacity = receive window. This is the inbox/Credits logic that
// previously lived copied into both Network and TCPListener.
type chanEndpoints struct {
	inboxes []chan rt.Message
}

func newChanEndpoints(endpoints, window int) *chanEndpoints {
	if window < 1 {
		window = 1
	}
	s := &chanEndpoints{}
	for i := 0; i < endpoints; i++ {
		s.inboxes = append(s.inboxes, make(chan rt.Message, window))
	}
	return s
}

func (s *chanEndpoints) Send(c rt.Ctx, to int, m rt.Message) { s.inboxes[to] <- m }

func (s *chanEndpoints) Credits(to int) int {
	return cap(s.inboxes[to]) - len(s.inboxes[to])
}

func (s *chanEndpoints) Inbox(i int) rt.Inbox { return inbox(s.inboxes[i]) }

// Port on a channel set is the set itself: channel sends are already safe
// from any thread and carry no per-sender state to isolate.
func (s *chanEndpoints) Port() rt.Transport { return s }

func (s *chanEndpoints) Endpoints() int { return len(s.inboxes) }

type inbox chan rt.Message

func (b inbox) Recv(c rt.Ctx) (rt.Message, bool) {
	m, ok := <-b
	return m, ok
}

// ringEndpoints is the ring-backed endpoint set: each endpoint holds one
// SPSC ring per registered sender port, created lazily on the port's first
// send to that endpoint, so every hot sender owns a private wait-free lane.
//
// Senders without a port (the scaler's and monitor's Retire control
// messages, journal replay, Fleet teardown) go through Send, which funnels
// into one mutex-serialized control port — rare traffic, identical
// semantics.
//
// Ordering: each lane preserves its sender's FIFO, which is the only order
// the runtime relies on between data messages (a producer's Fin trails its
// blocks on the same lane; cross-sender order was never defined — the
// channel path interleaved senders arbitrarily too). The one cross-sender
// guarantee the drain protocols need — "Retire arrives last" — is restored
// at the receiver: a popped Retire is held back until every other lane has
// drained empty, which is sound because Retire is only sent after the
// membership quiesce proves all data for this endpoint is already deposited.
type ringEndpoints struct {
	depth int // each lane's send window in messages
	eps   []*ringEndpoint

	ctlMu sync.Mutex
	ctl   rt.Transport // lazily built shared control port, guarded by ctlMu
}

func newRingEndpoints(endpoints, depth int) *ringEndpoints {
	n := &ringEndpoints{depth: depth}
	for i := 0; i < endpoints; i++ {
		n.eps = append(n.eps, &ringEndpoint{notEmpty: newGate()})
	}
	return n
}

// senderRing is one sender's private lane into one endpoint.
type senderRing struct {
	r       *ring
	notFull *gate // the lane's sender parks here; the receiver wakes it
}

// ringEndpoint is one receive endpoint: the lane list plus the single
// consuming thread's drain state.
type ringEndpoint struct {
	regMu    sync.Mutex                    // serializes lane registration
	lanes    atomic.Pointer[[]*senderRing] // copy-on-write lane list
	notEmpty *gate

	// Receiver-thread-owned state (exactly one consumer per endpoint, the
	// same contract the channel inboxes have):
	cur    *senderRing // lane with the claimed batch being consumed
	curN   int         // claimed batch size
	curI   int         // next claimed index to take
	retire *rt.Message // held-back Retire: delivered once all lanes drain
	scan   int         // round-robin lane cursor, for drain fairness
}

// burstCap bounds how many messages Recv claims from one lane at a time,
// so a hot sender cannot starve its peers and an unreleased claim cannot
// shrink the sender's visible window by more than this.
const burstCap = 64

func (ep *ringEndpoint) loadLanes() []*senderRing {
	if p := ep.lanes.Load(); p != nil {
		return *p
	}
	return nil
}

// register adds a new sender lane. Lanes are only ever appended — a port
// lives as long as its sending thread — and the list is copy-on-write so
// the receiver and credit probes iterate it without a lock.
func (ep *ringEndpoint) register(depth int) *senderRing {
	sr := &senderRing{r: newRing(depth), notFull: newGate()}
	ep.regMu.Lock()
	next := append(append([]*senderRing(nil), ep.loadLanes()...), sr)
	ep.lanes.Store(&next)
	ep.regMu.Unlock()
	return sr
}

func (ep *ringEndpoint) anyLaneReady() bool {
	for _, sr := range ep.loadLanes() {
		if sr.r.occupancy() > 0 {
			return true
		}
	}
	return false
}

// selectLane claims a batch from the next lane with queued traffic,
// round-robin from the last selection point. Reports false when every lane
// is empty.
func (ep *ringEndpoint) selectLane() bool {
	lanes := ep.loadLanes()
	n := len(lanes)
	for i := 0; i < n; i++ {
		sr := lanes[(ep.scan+i)%n]
		if k := sr.r.claim(); k > 0 {
			if k > burstCap {
				k = burstCap
			}
			ep.cur, ep.curN, ep.curI = sr, k, 0
			ep.scan = (ep.scan + i + 1) % n
			return true
		}
	}
	return false
}

// finish releases the current claim back to its lane and wakes the lane's
// sender if it is parked on a full ring.
func (ep *ringEndpoint) finish() {
	ep.cur.r.release(ep.curN)
	ep.cur.notFull.wake()
	ep.cur = nil
}

// Recv implements rt.Inbox for the endpoint's single consuming thread. It
// consumes straight from the claimed lane's ring slots — one message copy
// and zero atomics per message, with the claim's refresh/publish amortized
// across the batch — rotating lanes every burstCap messages for
// cross-sender fairness, and parking on the notEmpty gate only when every
// lane is empty. Whenever Recv parks, delivers the held-back Retire, or
// probes lanes, every claim has been released, so occupancy-derived state
// (credits, anyLaneReady) agrees with what the consumer has actually taken.
func (ep *ringEndpoint) Recv(c rt.Ctx) (rt.Message, bool) {
	for {
		if ep.cur != nil {
			m := ep.cur.r.take(ep.curI)
			if ep.curI++; ep.curI == ep.curN {
				ep.finish()
			}
			if m.Retire && ep.retire == nil {
				r := m
				ep.retire = &r
				continue
			}
			return m, true
		}
		if ep.selectLane() {
			continue
		}
		if ep.retire != nil && !ep.anyLaneReady() {
			// Every lane is drained: the held-back Retire is now provably
			// the last delivery, exactly as on the single-FIFO channel path.
			m := *ep.retire
			ep.retire = nil
			return m, true
		}
		ep.notEmpty.sleep(ep.anyLaneReady)
	}
}

// ringPort is one sending thread's transport handle: a private SPSC lane
// per destination endpoint, created on first send. Not safe for concurrent
// use — that is the point; mint one per sender.
type ringPort struct {
	n     *ringEndpoints
	lanes []*senderRing // indexed by endpoint
}

func (p *ringPort) Send(c rt.Ctx, to int, m rt.Message) {
	sr := p.lanes[to]
	if sr == nil {
		sr = p.n.eps[to].register(p.n.depth)
		p.lanes[to] = sr
	}
	for !sr.r.push(m) {
		sr.notFull.sleep(func() bool { return sr.r.free() > 0 })
	}
	p.n.eps[to].notEmpty.wake()
}

// Credits reports this sender's remaining window into `to`: the free slots
// of its own lane. That is the faithful ring analogue of the channel cap−len
// credit — the signal the hybrid and adaptive routers poll before electing
// the relay — scoped to the one sender whose router is asking.
func (p *ringPort) Credits(to int) int {
	if sr := p.lanes[to]; sr != nil {
		return sr.r.free()
	}
	return p.n.depth
}

func (n *ringEndpoints) Port() rt.Transport {
	return &ringPort{n: n, lanes: make([]*senderRing, len(n.eps))}
}

// Send is the portless slow path: all unported senders share one
// mutex-serialized control port.
func (n *ringEndpoints) Send(c rt.Ctx, to int, m rt.Message) {
	n.ctlMu.Lock()
	if n.ctl == nil {
		n.ctl = n.Port()
	}
	n.ctl.Send(c, to, m)
	n.ctlMu.Unlock()
}

// Credits on the shared handle is the most congested lane's window — the
// conservative aggregate a portless prober gets.
func (n *ringEndpoints) Credits(to int) int {
	min := n.depth
	for _, sr := range n.eps[to].loadLanes() {
		if f := sr.r.free(); f < min {
			min = f
		}
	}
	return min
}

func (n *ringEndpoints) Inbox(i int) rt.Inbox { return n.eps[i] }

func (n *ringEndpoints) Endpoints() int { return len(n.eps) }

var (
	_ endpointSet  = (*chanEndpoints)(nil)
	_ endpointSet  = (*ringEndpoints)(nil)
	_ rt.Transport = (*ringPort)(nil)
	_ rt.Inbox     = (*ringEndpoint)(nil)
)
