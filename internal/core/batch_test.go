package core

import (
	"sync"
	"testing"
	"time"

	"zipper/internal/block"
	"zipper/internal/rt"
	"zipper/internal/rt/realenv"
)

// captureTransport wraps a transport and records the block count of every
// mixed message, so tests can assert on batch shapes.
type captureTransport struct {
	inner rt.Transport
	mu    sync.Mutex
	sizes []int
}

func (t *captureTransport) Send(c rt.Ctx, to int, m rt.Message) {
	t.mu.Lock()
	t.sizes = append(t.sizes, len(m.Blocks))
	t.mu.Unlock()
	t.inner.Send(c, to, m)
}

func (t *captureTransport) batchSizes() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]int(nil), t.sizes...)
}

// batchRig builds a one-producer one-consumer real-platform pair with the
// capture transport in the middle.
func batchRig(t *testing.T, cfg Config, window int) (*realenv.Env, *Producer, *Consumer, *captureTransport) {
	t.Helper()
	env := realenv.New()
	net := realenv.NewNetwork(1, window)
	fs, err := realenv.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := &captureTransport{inner: net}
	cons := NewConsumer(env, cfg, 0, 1, net.Inbox(0), fs)
	prod := NewProducer(env, cfg, 0, 0, tr, fs)
	return env, prod, cons, tr
}

func TestSimBatchingReducesMessages(t *testing.T) {
	// Deterministic virtual-time comparison: the same slow-consumer workload
	// with batching on must deliver the same blocks in at most half the
	// messages the unbatched protocol used.
	run := func(batch int) (msgs, sent, analyzed int64) {
		cfg := Config{BufferBlocks: 32, DisableSteal: true, MaxBatchBlocks: batch}
		r := newSimRig(cfg, 2, 1, 2)
		runSimWorkflow(t, r, 10, 8, 1<<20, 200*time.Microsecond, 5*time.Millisecond)
		for _, p := range r.prod {
			st := p.Stats()
			msgs += st.Messages
			sent += st.BlocksSent
		}
		for _, c := range r.cons {
			analyzed += c.Stats().BlocksAnalyzed
		}
		return
	}
	msgs1, sent1, analyzed1 := run(1)
	msgs8, sent8, analyzed8 := run(8)
	const blocks = 2 * 10 * 8
	if sent1 != blocks || sent8 != blocks || analyzed1 != blocks || analyzed8 != blocks {
		t.Fatalf("delivery mismatch: sent %d/%d analyzed %d/%d want %d",
			sent1, sent8, analyzed1, analyzed8, blocks)
	}
	if msgs8*2 > msgs1 {
		t.Fatalf("batching did not halve message count: %d (batch=8) vs %d (batch=1)", msgs8, msgs1)
	}
}

func TestBatchLargerThanBuffer(t *testing.T) {
	// MaxBatchBlocks far above BufferBlocks must clamp to whatever the buffer
	// holds, not block waiting for an unreachable batch size.
	cfg := Config{BufferBlocks: 4, MaxBatchBlocks: 64, DisableSteal: true}
	env, prod, cons, tr := batchRig(t, cfg, 1)
	c := env.Ctx()
	const n = 40
	go func() {
		for s := 0; s < n; s++ {
			prod.Write(c, s, 0, make([]byte, 256), 256)
		}
		prod.Close(c)
	}()
	seen := 0
	for {
		if _, ok := cons.Read(c); !ok {
			break
		}
		seen++
		time.Sleep(500 * time.Microsecond) // let the buffer fill between reads
	}
	prod.Wait(c)
	cons.Wait(c)
	if seen != n {
		t.Fatalf("analyzed %d blocks, want %d", seen, n)
	}
	for _, s := range tr.batchSizes() {
		if s > cfg.BufferBlocks {
			t.Fatalf("batch of %d exceeds buffer capacity %d", s, cfg.BufferBlocks)
		}
	}
}

func TestFinRacingPartialBatch(t *testing.T) {
	// Close immediately after a burst smaller than one batch: every block
	// must still arrive, with the Fin strictly after the data. Run many
	// rounds to give the race detector a chance at interleavings.
	for round := 0; round < 20; round++ {
		cfg := Config{BufferBlocks: 16, MaxBatchBlocks: 8}
		env, prod, cons, tr := batchRig(t, cfg, 1)
		c := env.Ctx()
		const n = 3 // less than MaxBatchBlocks
		go func() {
			for s := 0; s < n; s++ {
				prod.Write(c, s, 0, []byte{byte(s)}, 1)
			}
			prod.Close(c) // races the sender's partial batch
		}()
		got := map[int]bool{}
		for {
			b, ok := cons.Read(c)
			if !ok {
				break
			}
			got[b.ID.Step] = true
		}
		prod.Wait(c)
		cons.Wait(c)
		if len(got) != n {
			t.Fatalf("round %d: analyzed %d blocks, want %d", round, len(got), n)
		}
		var total int
		for _, s := range tr.batchSizes() {
			total += s
		}
		if total != n {
			t.Fatalf("round %d: transport carried %d blocks, want %d", round, total, n)
		}
	}
}

func TestBatchedBlocksArriveInOrder(t *testing.T) {
	// Within one producer the network path preserves write order even when
	// batches form and split arbitrarily.
	cfg := Config{BufferBlocks: 32, MaxBatchBlocks: 5, DisableSteal: true}
	env, prod, cons, _ := batchRig(t, cfg, 1)
	c := env.Ctx()
	const n = 64
	go func() {
		for s := 0; s < n; s++ {
			prod.Write(c, s, 0, []byte{byte(s)}, 1)
		}
		prod.Close(c)
	}()
	last := -1
	for {
		b, ok := cons.Read(c)
		if !ok {
			break
		}
		if b.ID.Step <= last {
			t.Fatalf("out-of-order delivery: step %d after %d", b.ID.Step, last)
		}
		last = b.ID.Step
	}
	prod.Wait(c)
	cons.Wait(c)
	if last != n-1 {
		t.Fatalf("last step %d, want %d", last, n-1)
	}
}

func TestPreserveStoreFailureDoesNotDeadlock(t *testing.T) {
	// Preserve mode with a failing spool: the output thread dies with an
	// error while the consumer buffer is full of analyzed-but-unstored
	// entries. The receiver must still drain the stream (over capacity) so
	// Wait completes and the error surfaces, instead of hanging forever.
	env := realenv.New()
	net := realenv.NewNetwork(1, 2)
	base, err := realenv.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := &failStore{BlockStore: base, failWrites: 1 << 30}
	cfg := Config{BufferBlocks: 4, ConsumerBufferBlocks: 4, Mode: Preserve,
		MaxBatchBlocks: 4, DisableSteal: true}
	cons := NewConsumer(env, cfg, 0, 1, net.Inbox(0), fs)
	prod := NewProducer(env, cfg, 0, 0, net, fs)
	c := env.Ctx()
	const n = 40 // far more than the consumer buffer holds
	go func() {
		for s := 0; s < n; s++ {
			prod.Write(c, s, 0, make([]byte, 64), 64)
		}
		prod.Close(c)
	}()
	for {
		if _, ok := cons.Read(c); !ok {
			break
		}
	}
	done := make(chan struct{})
	go func() {
		prod.Wait(c)
		cons.Wait(c)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait hung after Preserve-mode store failure")
	}
	if cons.Err(c) == nil {
		t.Fatal("store failure did not surface via Err")
	}
}

func TestReleaseBlockDefersUntilStored(t *testing.T) {
	// Preserve mode: releasing right after Read must not hand the payload to
	// the pool before the output thread stores it — the preserved file must
	// hold the original bytes.
	cfg := Config{BufferBlocks: 8, Mode: Preserve, MaxBatchBlocks: 4}
	env := realenv.New()
	net := realenv.NewNetwork(1, 2)
	fs, err := realenv.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cons := NewConsumer(env, cfg, 0, 1, net.Inbox(0), fs)
	prod := NewProducer(env, cfg, 0, 0, net, fs)
	c := env.Ctx()
	const n = 24
	go func() {
		for s := 0; s < n; s++ {
			data := block.GetPayload(512)
			for i := range data {
				data[i] = byte(s)
			}
			prod.Write(c, s, 0, data, 512)
		}
		prod.Close(c)
	}()
	for {
		b, ok := cons.Read(c)
		if !ok {
			break
		}
		step := b.ID.Step
		for _, v := range b.Data {
			if v != byte(step) {
				t.Fatalf("step %d payload corrupted before release: %d", step, v)
			}
		}
		cons.ReleaseBlock(c, b, b.Gen())
		// Churn the pool so a premature release would get overwritten.
		scratch := block.GetPayload(512)
		for i := range scratch {
			scratch[i] = 0xFF
		}
		(&block.Block{Data: scratch}).Release()
	}
	prod.Wait(c)
	cons.Wait(c)
	if err := cons.Err(c); err != nil {
		t.Fatal(err)
	}
	// Every preserved block must hold its original bytes.
	for s := 0; s < n; s++ {
		id := block.ID{Rank: 0, Step: s, Seq: s}
		b, err := fs.ReadBlock(c, id, 512)
		if err != nil {
			t.Fatalf("block %v not preserved: %v", id, err)
		}
		for _, v := range b.Data {
			if v != byte(s) {
				t.Fatalf("preserved block %v corrupted: got %d", id, v)
			}
		}
	}
}
