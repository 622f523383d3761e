// Package simenv implements the rt platform on the discrete-event simulator:
// runtime threads are engine processes pinned to a fabric node, the network
// path is a credit-windowed message channel over the fabric model, and the
// block store is backed by the parallel-file-system model. Running the
// unchanged Zipper core on this platform replays the paper's cluster-scale
// experiments in virtual time.
package simenv

import (
	"fmt"
	"time"

	"zipper/internal/block"
	"zipper/internal/fabric"
	"zipper/internal/pfs"
	"zipper/internal/rt"
	"zipper/internal/sim"
)

// Env is a per-rank platform handle: threads it spawns run on (and charge
// traffic to) the given fabric node.
type Env struct {
	Eng  *sim.Engine
	Node fabric.NodeID
	// MemBandwidth models staging copies for CopyDelay; zero selects
	// 10 GB/s.
	MemBandwidth float64
}

// NewEnv returns a platform handle for one rank.
func NewEnv(e *sim.Engine, node fabric.NodeID, memBW float64) *Env {
	if memBW <= 0 {
		memBW = 10e9
	}
	return &Env{Eng: e, Node: node, MemBandwidth: memBW}
}

// Ctx is the simulated thread context. It carries the owning node so the
// network and store implementations know where traffic originates.
type Ctx struct {
	P    *sim.Proc
	Node fabric.NodeID
}

// Now reports virtual time.
func (c *Ctx) Now() time.Duration { return c.P.Now() }

// Sleep advances virtual time.
func (c *Ctx) Sleep(d time.Duration) { c.P.Delay(d) }

// WrapProc builds a context for an existing engine process (an application
// rank) running on the environment's node.
func (e *Env) WrapProc(p *sim.Proc) *Ctx { return &Ctx{P: p, Node: e.Node} }

// Go spawns an engine process on the environment's node.
func (e *Env) Go(name string, fn func(rt.Ctx)) {
	node := e.Node
	e.Eng.Spawn(name, func(p *sim.Proc) {
		fn(&Ctx{P: p, Node: node})
	})
}

// CopyDelay charges bytes at the modelled memory bandwidth.
func (e *Env) CopyDelay(c rt.Ctx, bytes int64) {
	if bytes <= 0 {
		return
	}
	c.Sleep(time.Duration(float64(bytes) / e.MemBandwidth * float64(time.Second)))
}

// NewLock creates an engine-backed lock.
func (e *Env) NewLock(name string) rt.Lock {
	return &lock{mu: sim.NewMutex(e.Eng, name)}
}

type lock struct{ mu *sim.Mutex }

func proc(c rt.Ctx) *Ctx {
	sc, ok := c.(*Ctx)
	if !ok {
		panic(fmt.Sprintf("simenv: foreign context %T used with simulated primitive", c))
	}
	return sc
}

func (l *lock) Lock(c rt.Ctx)   { l.mu.Lock(proc(c).P) }
func (l *lock) Unlock(c rt.Ctx) { l.mu.Unlock(proc(c).P) }
func (l *lock) NewCond(name string) rt.Cond {
	return &cond{c: sim.NewCond(l.mu, name)}
}

type cond struct{ c *sim.Cond }

func (c *cond) Wait(x rt.Ctx) { c.c.Wait(proc(x).P) }
func (c *cond) Signal()       { c.c.Signal() }
func (c *cond) Broadcast()    { c.c.Broadcast() }

func (c *cond) WaitFor(x rt.Ctx, d time.Duration) { c.c.WaitFor(proc(x).P, d) }

// messageOverhead is the wire header charged per mixed message (it includes
// the descriptor of the first data block), diskIDWireBytes the per-entry cost
// of the on-disk ID list, and blockWireBytes the descriptor of each batched
// block beyond the first. A single-block message therefore costs exactly what
// the unbatched protocol charged, and batching amortizes messageOverhead
// across the whole batch.
const (
	messageOverhead = 64
	diskIDWireBytes = 24
	blockWireBytes  = 48
)

func wireBytes(m rt.Message) int64 {
	// WireBytes (not PayloadBytes): a block carrying a reduction encoding
	// charges its encoded size, so in-transit reduction is cheaper in
	// virtual time exactly as it is on a real wire.
	n := int64(messageOverhead) + diskIDWireBytes*int64(len(m.Disk)) + m.WireBytes()
	if extra := len(m.Blocks) - 1; extra > 0 {
		n += blockWireBytes * int64(extra)
	}
	return n
}

// Network is the simulated low-latency message path with per-endpoint
// receive windows. A sender that exhausts a window stalls, and the stall is
// credited to its node's XmitWait counter — the paper's congestion proxy.
// Endpoints are consumers followed by any in-transit stagers; a message
// relayed through a stager crosses the fabric twice (producer node → staging
// node → consumer node), which is exactly how the wire model charges the
// extra hop.
type Network struct {
	fab     *fabric.Fabric
	inboxes []*inbox
}

type inbox struct {
	node    fabric.NodeID
	credits *sim.Semaphore
	store   *sim.Store[rt.Message]
}

// NewNetwork creates endpoints on the given nodes (consumers first, then
// stagers) with a window-message receive window each.
func NewNetwork(e *sim.Engine, fab *fabric.Fabric, endpointNodes []fabric.NodeID, window int) *Network {
	if window < 1 {
		window = 1
	}
	n := &Network{fab: fab}
	for i, node := range endpointNodes {
		n.inboxes = append(n.inboxes, &inbox{
			node:    node,
			credits: sim.NewSemaphore(e, fmt.Sprintf("znet.%d.credits", i), window),
			store:   sim.NewStore[rt.Message](e, fmt.Sprintf("znet.%d.inbox", i), 0),
		})
	}
	return n
}

// Send acquires a window credit, transfers the message over the fabric, and
// deposits it in the consumer's inbox. Waiting for exhausted credits is
// "data ready but cannot transmit" — it accrues XmitWait.
func (n *Network) Send(c rt.Ctx, to int, m rt.Message) {
	sc := proc(c)
	ib := n.inboxes[to]
	waitStart := sc.P.Now()
	ib.credits.Acquire(sc.P)
	n.fab.AddXmitWait(sc.Node, sc.P.Now()-waitStart)
	n.fab.Send(sc.P, sc.Node, ib.node, wireBytes(m))
	ib.store.Put(sc.P, m)
}

// Credits reports endpoint `to`'s remaining window permits without sending
// — the hybrid routing policy's direct-path backpressure signal.
func (n *Network) Credits(to int) int { return n.inboxes[to].credits.Available() }

// Inbox returns endpoint i's receive side.
func (n *Network) Inbox(i int) rt.Inbox { return recvBox{n.inboxes[i]} }

type recvBox struct{ ib *inbox }

// Recv takes the next message and releases its window credit.
func (r recvBox) Recv(c rt.Ctx) (rt.Message, bool) {
	sc := proc(c)
	m, ok := r.ib.store.Get(sc.P)
	if ok {
		r.ib.credits.Release()
	}
	return m, ok
}

// Store adapts the PFS model to the rt.BlockStore interface. The client node
// for each operation comes from the calling thread's context, so one Store
// serves all ranks.
type Store struct {
	FS *pfs.PFS
	// Prefix namespaces this workflow's spill files.
	Prefix string
	// logs numbers the write-ahead logs opened under the root store, so
	// every log's segments get names of their own (and, the numbering being
	// per run, the same names on every run).
	logs *int
}

// NewStore wraps a simulated parallel file system.
func NewStore(fs *pfs.PFS, prefix string) *Store {
	return &Store{FS: fs, Prefix: prefix, logs: new(int)}
}

// Partition returns a store over the same file system under another prefix
// — a stager's private spill partition.
func (s *Store) Partition(prefix string) *Store {
	return &Store{FS: s.FS, Prefix: prefix, logs: s.logs}
}

func (s *Store) name(id block.ID) string { return s.Prefix + "/" + id.String() }

// WriteBlock spills the block to the PFS model. A block carrying a
// reduction encoding charges its encoded size: spilling never re-inflates,
// matching the real store.
func (s *Store) WriteBlock(c rt.Ctx, b *block.Block) error {
	sc := proc(c)
	s.FS.Write(sc.P, sc.Node, s.name(b.ID), 0, b.WireBytes())
	return nil
}

// ReadBlock loads a spilled block's size and identity (contents are
// symbolic in simulation) and marks it OnDisk: it arrived through the file
// system.
func (s *Store) ReadBlock(c rt.Ctx, id block.ID, bytes int64) (*block.Block, error) {
	sc := proc(c)
	s.FS.Read(sc.P, sc.Node, s.name(id), 0, bytes)
	b := block.NewSized(id, 0, bytes)
	b.OnDisk = true
	return b, nil
}

// RemoveBlock is metadata-only in the simulated store.
func (s *Store) RemoveBlock(c rt.Ctx, id block.ID) error { return nil }

// OpenLog starts a new write-ahead log under this store's prefix.
func (s *Store) OpenLog() rt.BlockLog {
	*s.logs++
	return &segLog{fs: s.FS, prefix: fmt.Sprintf("%s/wal-%d", s.Prefix, *s.logs)}
}

// segLog is the simulated rt.BlockLog: the same segment bookkeeping as the
// real platform's, charged to the PFS model — an append is one write of the
// batch's headers and wire bytes at the segment's tail (the first write to
// a segment also pays the metadata server for the create), a read one read
// of the record. Contents are symbolic, so Read rebuilds only the size.
// The engine runs one process at a time, so no locking is needed.
type segLog struct {
	fs     *pfs.PFS
	prefix string
	tab    rt.Segments
}

func (l *segLog) segName(seg int) string { return fmt.Sprintf("%s-%d.seg", l.prefix, seg) }

func (l *segLog) Append(c rt.Ctx, blocks []*block.Block, refs []rt.LogRef) error {
	if len(blocks) == 0 {
		return nil
	}
	var total int64
	for _, b := range blocks {
		total += rt.RecordHeaderBytes + b.WireBytes()
	}
	seg, off := l.tab.Reserve(len(blocks), total)
	for i, b := range blocks {
		refs[i] = rt.LogRef{Seg: seg, Off: off, Len: b.WireBytes()}
		off += rt.RecordHeaderBytes + b.WireBytes()
	}
	sc := proc(c)
	l.fs.Write(sc.P, sc.Node, l.segName(seg), refs[0].Off, total)
	return nil
}

func (l *segLog) Read(c rt.Ctx, id block.ID, ref rt.LogRef) (*block.Block, error) {
	if !l.tab.Holds(ref) {
		return nil, fmt.Errorf("simenv: log record of %v: segment %d holds no such record", id, ref.Seg)
	}
	sc := proc(c)
	l.fs.Read(sc.P, sc.Node, l.segName(ref.Seg), ref.Off, rt.RecordHeaderBytes+ref.Len)
	return block.NewSized(id, 0, ref.Len), nil
}

func (l *segLog) Release(c rt.Ctx, ref rt.LogRef) { l.tab.Release(ref.Seg) }

// Close forgets the segments; unlinking is metadata-only in the model.
func (l *segLog) Close(c rt.Ctx) { l.tab = rt.Segments{} }

var (
	_ rt.Env             = (*Env)(nil)
	_ rt.CreditTransport = (*Network)(nil)
	_ rt.LogStore        = (*Store)(nil)
)
