package block

import (
	"sync"
	"sync/atomic"
)

// Header recycling. A block's header (the Block struct) and the []*Block a
// message carries are as short-lived as its payload and far more numerous
// than anything else the hot path allocates, so a job recycles them too —
// through a Recycler its endpoints share, a batch at a time: the consumer
// collects the headers its application releases and hands them in by the
// slice, a producer draws its next headers a slice at a time, and the slices
// themselves go round as message block lists. One lock visit moves a whole
// batch, so nothing is paid per block.
//
// A recycled header is a different block the next time round, and a stale
// reference to it (a copy of the application's handle, taken before the
// release) must not be able to release the new block's payload: Retire
// advances the header's generation, and whoever holds a reference across a
// release compares generations before acting on it.

const (
	// recyclerBatch is the least slice capacity a Recycler deals in: what
	// one lock visit moves.
	recyclerBatch = 16
	// recyclerMaxBatch caps the slice capacity: a configuration whose
	// messages carry more blocks than this allocates their lists.
	recyclerMaxBatch = 256
	// recyclerDepth bounds each of a Recycler's two stacks, in slices. A job
	// has a few hundred headers in flight at most; what a burst leaves
	// beyond the bound goes to the collector.
	recyclerDepth = 32
)

// Recycler is one job's free list of spent block headers and empty block
// slices. All methods are safe for concurrent use.
type Recycler struct {
	batch int

	mu    sync.Mutex
	spent [][]*Block // full batches of retired headers
	empty [][]*Block // slices of capacity ≥ batch holding nothing
}

// NewRecycler returns a free list for a job whose messages carry up to
// msgBlocks blocks: its slices hold that many, within the two bounds above.
func NewRecycler(msgBlocks int) *Recycler {
	return &Recycler{batch: min(max(msgBlocks, recyclerBatch), recyclerMaxBatch)}
}

// Slice returns an empty slice of at least the batch capacity: a message's
// block list, or a batch of spent headers in the making.
func (r *Recycler) Slice() []*Block {
	r.mu.Lock()
	s := pop(&r.empty)
	r.mu.Unlock()
	return r.orNew(s)
}

// orNew is s, or a new empty slice when the stack had none.
func (r *Recycler) orNew(s []*Block) []*Block {
	if s == nil {
		s = make([]*Block, 0, r.batch)
	}
	return s
}

// PutSlice takes back a slice whose blocks have moved on. Slices too small
// to serve Slice again are dropped.
func (r *Recycler) PutSlice(s []*Block) {
	if cap(s) < r.batch {
		return
	}
	clear(s)
	r.mu.Lock()
	push(&r.empty, s[:0])
	r.mu.Unlock()
}

// Headers returns a batch of headers to build blocks in, taking the
// caller's used-up batch in exchange. Recycled headers keep the generation
// Retire left them at; when none are waiting the batch is freshly allocated,
// in one piece.
func (r *Recycler) Headers(used []*Block) []*Block {
	r.mu.Lock()
	s := pop(&r.spent)
	if s != nil && cap(used) >= r.batch {
		push(&r.empty, used[:0])
	}
	r.mu.Unlock()
	if s != nil {
		return s
	}
	return freshHeaders(used, r.batch)
}

// freshHeaders allocates n headers in one piece and lists them in s.
func freshHeaders(s []*Block, n int) []*Block {
	chunk := make([]Block, n)
	if cap(s) < n {
		s = make([]*Block, 0, n)
	}
	s = s[:0]
	for i := range chunk {
		s = append(s, &chunk[i])
	}
	return s
}

// Take hands out the last header of stock, the caller's batch from Headers,
// refilling it first when it has run dry, and returns the rest of the stock.
// The header's fields are the caller's to set one by one, so that its
// generation survives the reuse.
func (r *Recycler) Take(stock []*Block) (*Block, []*Block) {
	if len(stock) == 0 {
		stock = r.Headers(stock)
	}
	n := len(stock) - 1
	b := stock[n]
	stock[n] = nil
	return b, stock[:n]
}

// PutHeaders hands in a full batch of retired headers and returns an empty
// slice to collect the next one in.
func (r *Recycler) PutHeaders(full []*Block) []*Block {
	r.mu.Lock()
	push(&r.spent, full)
	s := pop(&r.empty)
	r.mu.Unlock()
	return r.orNew(s)
}

func pop(stack *[][]*Block) []*Block {
	n := len(*stack)
	if n == 0 {
		return nil
	}
	s := (*stack)[n-1]
	(*stack)[n-1] = nil
	*stack = (*stack)[:n-1]
	return s
}

// push drops s when the stack is at its bound.
func push(stack *[][]*Block, s []*Block) {
	if len(*stack) < recyclerDepth {
		*stack = append(*stack, s)
	}
}

// Gen returns the header's generation: how many times it has been retired.
func (b *Block) Gen() uint32 { return atomic.LoadUint32(&b.gen) }

// Retire declares the header spent: whoever calls it holds the last live
// reference and is about to hand the header to a Recycler. The payload must
// have been released or moved on already.
func (b *Block) Retire() { atomic.AddUint32(&b.gen, 1) }
