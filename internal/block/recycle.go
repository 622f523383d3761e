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
// A small payload rides home with its header. The consumer's analysis thread
// is the stage that binds when blocks are small, and a pool Put there hands
// the payload to the wrong processor's cache: the producers' next NewPayload
// has to steal it back. So a header retired with a payload of at most
// CarryMax bytes keeps it, the batch goes back whole, and Headers releases
// the payloads on the taker's goroutine just before it hands the headers out
// — straight into the pool the producer draws from next. At most carryDepth
// batches wait that way; a batch beyond them is released by the goroutine
// that hands it in, and a payload above CarryMax by Retire, as they would be
// without the carry.
//
// A recycled header is a different block the next time round, and a stale
// reference to it (a copy of the application's handle, taken before the
// release) must not be able to release the new block's payload — nor the one
// it carries home: Retire advances the header's generation, and whoever
// holds a reference across a release compares generations before acting on
// it.

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
	// carryDepth bounds the batches of retired headers that still hold
	// their payloads: what the carry can keep out of the pool at once.
	carryDepth = 2
)

// CarryMax is the largest payload, by capacity, that stays on its retired
// header to be released by whoever takes the header next (see above).
// Larger payloads cost more to keep than the pool visit they save.
const CarryMax = 4 << 10

// Recycler is one job's free list of spent block headers and empty block
// slices. All methods are safe for concurrent use. Every endpoint of the job
// takes its lock, so it fits one 64-byte cache line: a Recycler one slice
// header wider read 3 % slower on the relay path (the relay-fault-flood
// benchmark, 2 vCPUs).
type Recycler struct {
	batch   int32
	carried int32 // how many of spent's top batches still hold their payloads

	mu    sync.Mutex
	spent [][]*Block // full batches of retired headers, the carrying ones on top
	empty [][]*Block // slices of capacity ≥ batch holding nothing
}

// NewRecycler returns a free list for a job whose messages carry up to
// msgBlocks blocks: its slices hold that many, within the two bounds above.
func NewRecycler(msgBlocks int) *Recycler {
	return &Recycler{batch: int32(min(max(msgBlocks, recyclerBatch), recyclerMaxBatch))}
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
		s = make([]*Block, 0, int(r.batch))
	}
	return s
}

// PutSlice takes back a slice whose blocks have moved on. Slices too small
// to serve Slice again are dropped.
func (r *Recycler) PutSlice(s []*Block) {
	if cap(s) < int(r.batch) {
		return
	}
	clear(s)
	r.mu.Lock()
	push(&r.empty, s[:0])
	r.mu.Unlock()
}

// Headers returns a batch of headers to build blocks in, taking the
// caller's used-up batch in exchange. Recycled headers keep the generation
// Retire left them at, and a batch that carried payloads home has released
// them, on the caller's goroutine, by the time it is returned; when none are
// waiting the batch is freshly allocated, in one piece.
func (r *Recycler) Headers(used []*Block) []*Block {
	r.mu.Lock()
	s := pop(&r.spent)
	carried := s != nil && r.carried > 0
	if carried {
		r.carried--
	}
	if s != nil && cap(used) >= int(r.batch) {
		push(&r.empty, used[:0])
	}
	r.mu.Unlock()
	if s == nil {
		return freshHeaders(used, int(r.batch))
	}
	if carried {
		release(s)
	}
	return s
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
// slice to collect the next one in. The payloads Retire left on the headers
// stay there while fewer than carryDepth batches carry theirs; otherwise
// they are released here, on the caller's goroutine.
func (r *Recycler) PutHeaders(full []*Block) []*Block {
	carries := false
	for _, b := range full {
		if b.Data != nil {
			carries = true
			break
		}
	}
	r.mu.Lock()
	keep := carries && r.carried < carryDepth && len(r.spent) < recyclerDepth
	if keep {
		r.spent = append(r.spent, full)
		r.carried++
	} else if !carries {
		r.pushSpent(full)
	}
	s := pop(&r.empty)
	r.mu.Unlock()
	if carries && !keep {
		release(full)
		r.mu.Lock()
		r.pushSpent(full)
		r.mu.Unlock()
	}
	return r.orNew(s)
}

// pushSpent files a batch that holds no payloads under the carrying ones,
// which Headers hands out first; it drops the batch when spent is at its
// bound.
func (r *Recycler) pushSpent(full []*Block) {
	n := len(r.spent)
	if n == recyclerDepth {
		return
	}
	at := n - int(r.carried)
	r.spent = append(r.spent, nil)
	copy(r.spent[at+1:], r.spent[at:n])
	r.spent[at] = full
}

// release returns every payload still on the headers to the pool.
func release(s []*Block) {
	for _, b := range s {
		b.Release()
	}
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
// reference and is about to hand the header to a Recycler. A payload still
// on the header is the runtime's from here on: one above CarryMax goes back
// to the pool at once, a smaller one rides home with the header and is
// released before the header is handed out again.
func (b *Block) Retire() {
	if cap(b.Data) > CarryMax {
		b.Release()
	}
	atomic.AddUint32(&b.gen, 1)
}
