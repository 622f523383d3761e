package core

import (
	"sync"
	"testing"
	"time"

	"zipper/internal/block"
)

// TestFanInOrderingUnderBatching drives many producers into one consumer
// with deep batches over a one-message window — the fan-in regime where a
// mis-shared credit or a batch split across a Fin would scramble or strand
// blocks. With stealing disabled every block rides the network path, so
// per-producer delivery must be strictly seq-ordered, and the message
// counters must balance: each producer emits at least ceil(blocks/batch)
// data messages plus exactly one Fin, and the consumer sees every block
// exactly once.
func TestFanInOrderingUnderBatching(t *testing.T) {
	const producers, blocks, batch = 6, 120, 8
	r := newRealRig(t, Config{Recycler: block.NewRecycler(0),
		BufferBlocks: 16, MaxBatchBlocks: batch, DisableSteal: true,
	}, producers, 1, 1)
	c := r.env.Ctx()

	var wg sync.WaitGroup
	for i, p := range r.prod {
		wg.Add(1)
		go func(rank int, p *Producer) {
			defer wg.Done()
			for s := 0; s < blocks; s++ {
				data := []byte{byte(rank), byte(s)}
				p.Write(c, s, 0, data, 2)
			}
			p.Close(c)
			p.Wait(c)
		}(i, p)
	}

	lastSeq := map[int]int{}
	perRank := map[int]int{}
	n := 0
	for {
		b, ok := r.cons[0].Read(c)
		if !ok {
			break
		}
		if b.Data[0] != byte(b.ID.Rank) || b.Data[1] != byte(b.ID.Step) {
			t.Fatalf("block %v corrupted in fan-in", b.ID)
		}
		if last, seen := lastSeq[b.ID.Rank]; seen && b.ID.Seq != last+1 {
			t.Fatalf("rank %d reordered: seq %d after %d", b.ID.Rank, b.ID.Seq, last)
		}
		lastSeq[b.ID.Rank] = b.ID.Seq
		perRank[b.ID.Rank]++
		n++
		if n%16 == 0 {
			time.Sleep(200 * time.Microsecond) // keep the window full so batches form
		}
	}
	wg.Wait()
	r.cons[0].Wait(c)
	if err := r.cons[0].Err(c); err != nil {
		t.Fatal(err)
	}
	if n != producers*blocks {
		t.Fatalf("delivered %d blocks, want %d", n, producers*blocks)
	}
	for rank, got := range perRank {
		if got != blocks {
			t.Fatalf("rank %d delivered %d blocks, want %d", rank, got, blocks)
		}
	}

	var sent, msgs int64
	for _, p := range r.prod {
		st := p.Stats()
		if st.BlocksSent != blocks {
			t.Fatalf("producer sent %d blocks, want %d", st.BlocksSent, blocks)
		}
		if st.BlocksRelayed != 0 || st.BlocksStolen != 0 {
			t.Fatalf("fan-in leaked off the network path: relayed=%d stolen=%d", st.BlocksRelayed, st.BlocksStolen)
		}
		// One Fin each, and no more data messages than blocks (batching can
		// only reduce the count, never inflate it).
		if st.Messages < blocks/batch+1 || st.Messages > blocks+1 {
			t.Fatalf("message count %d outside [%d, %d]", st.Messages, blocks/batch+1, blocks+1)
		}
		sent += st.BlocksSent
		msgs += st.Messages
	}
	cs := r.cons[0].Stats()
	if cs.BlocksReceived != sent {
		t.Fatalf("credit accounting broken: consumer received %d of %d sent", cs.BlocksReceived, sent)
	}
	if cs.BlocksAnalyzed != sent {
		t.Fatalf("analyzed %d of %d received", cs.BlocksAnalyzed, sent)
	}
	if msgs <= int64(producers) {
		t.Fatalf("suspiciously few messages: %d", msgs)
	}
}
