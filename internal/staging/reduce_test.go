package staging

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zipper/internal/block"
	"zipper/internal/core"
	"zipper/internal/reduce"
)

// TestCompressInsteadOfSpill drives a small stager buffer with a slow
// consumer so occupancy climbs past the high-water mark, with the
// OnPressure reduction rung configured. The gate must engage at least
// once, forwarded bytes must shrink below the raw payload total, and
// every block must still arrive intact, in order, and decoded.
func TestCompressInsteadOfSpill(t *testing.T) {
	r := newRig(t, 1, 1, 1,
		core.Config{RoutePolicy: core.RouteStaging, DisableSteal: true, BufferBlocks: 32, MaxBatchBlocks: 4},
		Config{BufferBlocks: 8, Reduce: reduce.Config{Operator: reduce.Compress, OnPressure: true}},
		1)
	const blocks = 120
	const blockBytes = 512
	wg := r.produce(t, blocks, blockBytes)

	ctx := r.env.Ctx()
	seq := 0
	for {
		b, ok := r.cons[0].Read(ctx)
		if !ok {
			break
		}
		if b.Enc != 0 {
			t.Fatalf("block %v reached the application still encoded (enc=%d)", b.ID, b.Enc)
		}
		if int64(len(b.Data)) != int64(blockBytes) || b.Bytes != blockBytes {
			t.Fatalf("block %v: %d data bytes / %d logical, want %d", b.ID, len(b.Data), b.Bytes, blockBytes)
		}
		if b.ID.Seq != seq {
			t.Fatalf("out of order: seq %d, want %d", b.ID.Seq, seq)
		}
		if b.Data[0] != 0 || b.Data[len(b.Data)-1] != byte(b.ID.Step) {
			t.Fatalf("block %v corrupted through the reduction rung", b.ID)
		}
		seq++
		time.Sleep(500 * time.Microsecond) // the backpressure that fills the stager
	}
	wg.Wait()
	r.stage[0].Wait(ctx)
	r.cons[0].Wait(ctx)
	if err := r.stage[0].Err(ctx); err != nil {
		t.Fatal(err)
	}
	if seq != blocks {
		t.Fatalf("delivered %d blocks, want %d", seq, blocks)
	}
	st := r.stage[0].Stats(ctx)
	if st.ReduceBursts == 0 {
		t.Fatal("reduction gate never engaged despite sustained backpressure")
	}
	raw := int64(blocks) * blockBytes
	if st.BytesOnWire >= raw {
		t.Fatalf("forwarded %d bytes, want under the %d raw", st.BytesOnWire, raw)
	}
	if st.BytesReduced == 0 {
		t.Fatal("BytesReduced is zero despite engaged gate and compressible payloads")
	}
	if st.BytesOnWire+st.BytesReduced != raw {
		t.Fatalf("accounting leak: %d on wire + %d reduced != %d raw",
			st.BytesOnWire, st.BytesReduced, raw)
	}
}

// TestProducerReducedRelaySurvivesSpill runs producer-side (non-gated)
// reduction through a stager small enough to spill: encoded blocks must
// cycle through the spill partition with their reduction stamp intact —
// the consumer, not the stager, does the one decode.
func TestProducerReducedRelaySurvivesSpill(t *testing.T) {
	r := newRig(t, 1, 1, 1,
		core.Config{RoutePolicy: core.RouteStaging, DisableSteal: true, BufferBlocks: 32,
			MaxBatchBlocks: 4, Reduce: reduce.Config{Operator: reduce.Compress}},
		Config{BufferBlocks: 8},
		1)
	const blocks = 120
	const blockBytes = 512
	wg := r.produce(t, blocks, blockBytes)

	// The scenario needs spilled blocks: read nothing until the backlog has
	// pushed the stager over its high-water mark, instead of racing a slow
	// reader against the scheduler.
	ctx := r.env.Ctx()
	for deadline := time.Now().Add(20 * time.Second); r.stage[0].Stats(ctx).BlocksSpilled == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("no spills despite 8-block stager buffer and a consumer that reads nothing")
		}
	}
	seq := 0
	for {
		b, ok := r.cons[0].Read(ctx)
		if !ok {
			break
		}
		if b.Enc != 0 {
			t.Fatalf("block %v reached the application still encoded (enc=%d)", b.ID, b.Enc)
		}
		if b.ID.Seq != seq {
			t.Fatalf("out of order: seq %d, want %d", b.ID.Seq, seq)
		}
		if b.Data[0] != 0 || b.Data[len(b.Data)-1] != byte(b.ID.Step) {
			t.Fatalf("block %v corrupted after encoded spill cycle", b.ID)
		}
		seq++
	}
	wg.Wait()
	r.stage[0].Wait(ctx)
	r.cons[0].Wait(ctx)
	if err := r.stage[0].Err(ctx); err != nil {
		t.Fatal(err)
	}
	if seq != blocks {
		t.Fatalf("delivered %d blocks, want %d", seq, blocks)
	}
	st := r.stage[0].Stats(ctx)
	raw := int64(blocks) * blockBytes
	if st.BytesOnWire >= raw {
		t.Fatalf("forwarded %d bytes, want under the %d raw (producer encoded)", st.BytesOnWire, raw)
	}
	ps := r.prod[0].Stats()
	if ps.BytesReduced == 0 {
		t.Fatal("producer reports no reduction despite Reduce configured")
	}
	if ps.BytesOnWire+ps.BytesReduced != raw {
		t.Fatalf("producer accounting leak: %d on wire + %d reduced != %d raw",
			ps.BytesOnWire, ps.BytesReduced, raw)
	}
}

// failingEncoder is a reduction operator that can encode nothing.
type failingEncoder struct{ calls atomic.Int64 }

func (e *failingEncoder) EncodeBlock(b *block.Block) error {
	e.calls.Add(1)
	return fmt.Errorf("block %v: stub operator", b.ID)
}

// TestForwarderEncodeFailureForwardsUnreduced pins the forwarder's error
// path: a block the pressure rung's operator fails on is no reason to take
// the process down. It is forwarded as it arrived, every block still reaches
// the application in order, and Err reports the failure.
func TestForwarderEncodeFailureForwardsUnreduced(t *testing.T) {
	r := newRig(t, 1, 1, 1,
		core.Config{RoutePolicy: core.RouteStaging, DisableSteal: true, BufferBlocks: 32, MaxBatchBlocks: 4},
		// One block per forwarded message: the gate, which engages at 6 of 8
		// blocks, is then still engaged once the forwarder has taken its batch.
		Config{BufferBlocks: 8, MaxBatchBlocks: 1, Reduce: reduce.Config{Operator: reduce.Compress, OnPressure: true}},
		1)
	ctx := r.env.Ctx()
	stub := &failingEncoder{}
	stg := r.stage[0]
	// The forwarder reads fwdEnc only once it holds a batch, which takes the
	// stager lock after this: nothing has been produced yet.
	stg.lk.Lock(ctx)
	stg.fwdEnc = stub
	stg.lk.Unlock(ctx)

	const blocks = 120
	const blockBytes = 512
	wg := r.produce(t, blocks, blockBytes)
	seq := 0
	for {
		b, ok := r.cons[0].Read(ctx)
		if !ok {
			break
		}
		if b.Enc != 0 || int64(len(b.Data)) != blockBytes {
			t.Fatalf("block %v arrived enc=%d with %d bytes, want raw %d", b.ID, b.Enc, len(b.Data), blockBytes)
		}
		if b.ID.Seq != seq {
			t.Fatalf("out of order: seq %d, want %d", b.ID.Seq, seq)
		}
		if b.Data[0] != 0 || b.Data[len(b.Data)-1] != byte(b.ID.Step) {
			t.Fatalf("block %v corrupted on the unreduced path", b.ID)
		}
		seq++
		time.Sleep(500 * time.Microsecond) // the backpressure that engages the gate
	}
	wg.Wait()
	stg.Wait(ctx)
	r.cons[0].Wait(ctx)
	if seq != blocks {
		t.Fatalf("delivered %d blocks, want %d", seq, blocks)
	}
	if stub.calls.Load() == 0 {
		t.Fatal("the pressure rung never asked the operator despite sustained backpressure")
	}
	if err := stg.Err(ctx); err == nil || !strings.Contains(err.Error(), "reducing relayed batch") {
		t.Fatalf("Err() = %v, want the encode failure", err)
	}
}
