package reduce

import (
	"runtime"
	"sync"

	"zipper/internal/block"
)

// Pipeline fans a batch's encode cost out across a bounded worker pool, so
// in-transit bandwidth reduction stops serializing on the relay critical
// path: a producer's sender thread (or a stager's forwarder under the
// pressure gate) hands its drained batch to EncodeBatch and gets every
// block back encoded, having burned sender-thread CPU only on its share.
// Each block encodes in isolation, in any order, so the workers race
// nothing.
//
// Ordering and byte-identity: EncodeBatch encodes blocks IN PLACE and
// returns only after the whole batch is done, so the caller's slice order
// is untouched. Per-block encoder output is deterministic, so a pipelined
// run produces byte-identical wire traffic to an inline run; only the
// wall-clock cost moves.
type Pipeline struct {
	cfg  Config
	jobs chan pipeJob
	wg   sync.WaitGroup
	encs sync.Pool // caller-side *Encoder instances
	once sync.Once
}

type pipeJob struct {
	b   *block.Block
	wg  *sync.WaitGroup
	err *pipeErr
}

// pipeErr collects the first encode error of a batch.
type pipeErr struct {
	mu  sync.Mutex
	err error
}

func (pe *pipeErr) set(err error) {
	pe.mu.Lock()
	if pe.err == nil {
		pe.err = err
	}
	pe.mu.Unlock()
}

func (pe *pipeErr) get() error {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	return pe.err
}

// NewPipeline starts a worker pool for cfg. workers ≤ 0 scales the pool to
// GOMAXPROCS (the cfg.Workers == -1 contract). cfg must validate.
func NewPipeline(cfg Config, workers int) *Pipeline {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pipeline{cfg: cfg, jobs: make(chan pipeJob, 4*workers)}
	p.encs.New = func() any { return NewEncoder(cfg) }
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pipeline) worker() {
	defer p.wg.Done()
	enc := NewEncoder(p.cfg)
	for j := range p.jobs {
		if err := enc.EncodeBlock(j.b); err != nil {
			j.err.set(err)
		}
		j.wg.Done()
	}
}

// EncodeBatch encodes every eligible block of the batch in place and
// returns once all are done, reporting the first error. The calling thread
// participates: it keeps the batch tail — plus anything a saturated queue
// refuses — for itself, so a batch never parks behind other senders'
// backlogs without contributing CPU, and a single-block batch never pays
// dispatch at all.
func (p *Pipeline) EncodeBatch(blocks []*block.Block) error {
	var work []*block.Block
	for _, b := range blocks {
		if b != nil && b.Enc == 0 && b.Bytes > 0 {
			work = append(work, b)
		}
	}
	if len(work) == 0 {
		return nil
	}
	enc := p.encs.Get().(*Encoder)
	defer p.encs.Put(enc)
	if len(work) == 1 {
		return enc.EncodeBlock(work[0])
	}
	var wg sync.WaitGroup
	var pe pipeErr
	inline := work[len(work)-1:]
	for _, b := range work[:len(work)-1] {
		wg.Add(1)
		select {
		case p.jobs <- pipeJob{b: b, wg: &wg, err: &pe}:
		default:
			wg.Done()
			inline = append(inline, b)
		}
	}
	var inlineErr error
	for _, b := range inline {
		if err := enc.EncodeBlock(b); err != nil && inlineErr == nil {
			inlineErr = err
		}
	}
	wg.Wait()
	if err := pe.get(); err != nil {
		return err
	}
	return inlineErr
}

// Close stops the workers. Call only after every thread that submits
// batches has exited (zipper's Job.Wait closes the pipeline after joining
// producers and stagers). Idempotent.
func (p *Pipeline) Close() {
	p.once.Do(func() {
		close(p.jobs)
		p.wg.Wait()
	})
}
