package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"zipper/internal/block"
	"zipper/internal/place"
	"zipper/internal/reduce"
	"zipper/internal/rt/realenv"
)

// failingEncoder is a reduction operator that can encode nothing.
type failingEncoder struct{ calls atomic.Int64 }

func (e *failingEncoder) EncodeBlock(b *block.Block) error {
	e.calls.Add(1)
	return fmt.Errorf("block %v: stub operator", b.ID)
}

// TestSenderEncodeFailureSendsUnreduced pins the sender's error path: a block
// the operator fails on is no reason to take the process down. It goes to the
// stager as it was written, in order, the stream still ends with its Fin
// (direct, declaring every block), and Err reports the failure.
func TestSenderEncodeFailureSendsUnreduced(t *testing.T) {
	env := realenv.New()
	net := realenv.NewNetwork(2, 4) // endpoint 0 the consumer, 1 the stager
	cfg := Config{Recycler: block.NewRecycler(0), RoutePolicy: RouteStaging, DisableSteal: true, BufferBlocks: 8, MaxBatchBlocks: 4,
		Reduce: reduce.Config{Operator: reduce.Compress}}
	pool := place.New(place.RankAffine(), nil)
	pool.Add(1)
	cfg.Directory = pool
	ctx := env.Ctx()
	prod := NewProducer(env, cfg, 0, 0, net, nil)
	// The sender reads enc only once it holds a batch, which takes the
	// producer lock after this: nothing has been written yet.
	stub := &failingEncoder{}
	prod.lk.Lock(ctx)
	prod.enc = stub
	prod.lk.Unlock(ctx)

	const blocks = 40
	const blockBytes = 512
	go func() {
		for i := 0; i < blocks; i++ {
			data := make([]byte, blockBytes) // zeros: a working operator would shrink it
			data[blockBytes-1] = byte(i)
			prod.Write(ctx, i, 0, data, blockBytes)
		}
		prod.Close(ctx)
	}()
	seq := 0
	for seq < blocks {
		m, ok := net.Inbox(1).Recv(ctx)
		if !ok {
			t.Fatal("the stager's inbox closed before the last block")
		}
		for _, b := range m.Blocks {
			if b.Enc != 0 || b.EncBytes != 0 || int64(len(b.Data)) != blockBytes {
				t.Fatalf("block %v arrived enc=%d with %d bytes, want raw %d", b.ID, b.Enc, len(b.Data), blockBytes)
			}
			if b.ID.Seq != seq || b.Data[blockBytes-1] != byte(seq) {
				t.Fatalf("block %v arrived in place %d", b.ID, seq)
			}
			seq++
		}
	}
	if m, ok := net.Inbox(0).Recv(ctx); !ok || !m.Fin || m.FinBlocks != blocks {
		t.Fatalf("the consumer got %+v, want the Fin declaring %d blocks", m, blocks)
	}
	prod.Wait(ctx)
	if seq != blocks || stub.calls.Load() != blocks {
		t.Fatalf("%d blocks arrived and the operator was asked %d times, want %d of each", seq, stub.calls.Load(), blocks)
	}
	if err := prod.Err(ctx); err == nil || !strings.Contains(err.Error(), "reducing relayed batch") {
		t.Fatalf("Err() = %v, want the encode failure", err)
	}
	if st := prod.Stats(); st.BlocksRelayed != blocks || st.BytesReduced != 0 {
		t.Fatalf("relayed %d blocks and saved %d bytes, want %d and none", st.BlocksRelayed, st.BytesReduced, blocks)
	}
}
