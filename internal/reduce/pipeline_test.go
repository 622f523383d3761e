package reduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"zipper/internal/block"
)

// compressible builds a payload with plateau structure (realistic smooth
// field) seeded per block so different blocks differ.
func compressible(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	level := byte(rng.Intn(256))
	for i := range data {
		if i%64 == 0 {
			level = byte(rng.Intn(256))
		}
		data[i] = level
	}
	return data
}

// TestPipelineMatchesInline pins byte-identity: the same blocks encoded
// through the worker pool come out exactly as the inline encoder produces —
// same bytes, same Enc/EncBytes accounting, same slice order.
func TestPipelineMatchesInline(t *testing.T) {
	for _, cfg := range []Config{{Operator: Compress}} {
		t.Run(cfg.Operator.String(), func(t *testing.T) {
			const blocks = 64
			mk := func() []*block.Block {
				out := make([]*block.Block, blocks)
				for i := range out {
					data := compressible(8192, int64(i))
					out[i] = mkBlock(i%4, i/4, 0, data)
				}
				return out
			}
			inline := mk()
			enc := NewEncoder(cfg)
			for _, b := range inline {
				if err := enc.EncodeBlock(b); err != nil {
					t.Fatalf("inline encode: %v", err)
				}
			}
			piped := mk()
			p := NewPipeline(cfg, 4)
			defer p.Close()
			if err := p.EncodeBatch(piped); err != nil {
				t.Fatalf("pipeline encode: %v", err)
			}
			for i := range inline {
				a, b := inline[i], piped[i]
				if a.ID != b.ID {
					t.Fatalf("block %d: order changed (%v vs %v)", i, a.ID, b.ID)
				}
				if a.Enc != b.Enc || a.EncBytes != b.EncBytes {
					t.Fatalf("block %d: accounting differs: inline (%d,%d) pipeline (%d,%d)",
						i, a.Enc, a.EncBytes, b.Enc, b.EncBytes)
				}
				if !bytes.Equal(a.Data, b.Data) {
					t.Fatalf("block %d: pipeline output not byte-identical to inline", i)
				}
			}
		})
	}
}

// TestPipelineSaturation pushes many batches through a tiny pool from many
// goroutines so the queue-full inline fallback and worker path interleave;
// every block must still come out encoded exactly once.
func TestPipelineSaturation(t *testing.T) {
	p := NewPipeline(Config{Operator: Compress}, 2)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				batch := make([]*block.Block, 16)
				for i := range batch {
					batch[i] = mkBlock(g, round, i, compressible(2048, int64(g*1000+round*100+i)))
				}
				if err := p.EncodeBatch(batch); err != nil {
					panic(fmt.Sprintf("EncodeBatch: %v", err))
				}
				dec := NewDecoder()
				for i, b := range batch {
					if b.Enc != uint8(Compress) {
						panic(fmt.Sprintf("goroutine %d round %d block %d left unencoded", g, round, i))
					}
					want := compressible(2048, int64(g*1000+round*100+i))
					if err := dec.DecodeBlock(b); err != nil {
						panic(fmt.Sprintf("decode: %v", err))
					}
					if !bytes.Equal(b.Data, want) {
						panic(fmt.Sprintf("goroutine %d round %d block %d corrupted", g, round, i))
					}
				}
			}
		}()
	}
	wg.Wait()
}
