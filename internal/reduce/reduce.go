// Package reduce implements in-transit payload reduction for the wire path.
// The paper's premise is that the producer→consumer transfer is the resource
// worth protecting; Catalyst-ADIOS2-style operator placement says the
// in-transit tier is where bandwidth-limiting operators belong. This package
// supplies the one operator a workload exercises — per-block compression of
// the float payloads with the LZ block codec of lz.go — and the encode and
// decode the runtime modules drive.
//
// A reduced block keeps its identity and raw size (Block.Bytes) untouched;
// only the payload representation changes: Block.Data holds the encoded
// bytes, Block.Enc names the operator, and Block.EncBytes is the encoded
// size that the wire, the spill store, and the simulated fabric charge.
// Decoding restores the exact raw payload. Every block codes in isolation,
// so an operator may run at any hop, in any order, on any thread.
//
// In simulation mode blocks carry no payload bytes, so EncodeBlock instead
// models the reduction: it stamps Enc and a deterministic EncBytes of
// modelRatio × Bytes, and DecodeBlock strips the stamp. Virtual-time wire and
// spill costs then reflect the reduced sizes exactly as real mode does.
package reduce

import (
	"fmt"

	"zipper/internal/block"
)

// Kind selects a reduction operator. The zero value means no reduction.
type Kind uint8

const (
	// None leaves payloads untouched.
	None Kind = 0
	// Compress codes each payload independently with the LZ block codec of
	// lz.go (lossless), skipping blocks it cannot shrink.
	Compress Kind = 1
)

// String names the operator; out-of-range values render as "unknown(N)" so
// a misconfigured operator, or an encoding tag off the wire, is visible.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Compress:
		return "compress"
	default:
		return fmt.Sprintf("unknown(%d)", uint8(k))
	}
}

// Config selects and parameterizes the reduction applied to relayed
// payloads.
type Config struct {
	// Operator picks the reduction; None disables the package entirely.
	Operator Kind
	// OnPressure defers reduction to the staging tier's pressure valve:
	// instead of encoding every relayed block at the producer, blocks are
	// encoded by the stager only while its occupancy is above the spill
	// high-water mark — the "compress instead of spill" rung. Off means
	// reduce everything at the producer relay path.
	OnPressure bool
	// Workers parallelizes the encode across a shared bounded worker pool
	// (see Pipeline): 0 keeps every encode inline on its sending thread —
	// the pinned default — -1 scales the pool to GOMAXPROCS, and N > 0 uses
	// exactly N workers. Per-block encoder output is deterministic, so the
	// parallel encode is byte-identical to inline; only the CPU it burns
	// moves off the relay critical path.
	Workers int
}

// Enabled reports whether the config names an operator.
func (c Config) Enabled() bool { return c.Operator != None }

// Validate rejects malformed operator parameters.
func (c Config) Validate() error {
	if c.Operator != None && c.Operator != Compress {
		return fmt.Errorf("reduce: %v is not an operator (valid: %v, %v)", c.Operator, None, Compress)
	}
	if c.Workers < -1 {
		return fmt.Errorf("reduce: Workers %d out of range (-1 = GOMAXPROCS, 0 = inline, N > 0 = fixed pool)", c.Workers)
	}
	if c.Workers != 0 && c.Operator == None {
		return fmt.Errorf("reduce: Workers is only meaningful with an operator")
	}
	return nil
}

// modelRatio is the encoded-size ratio a simulated block is stamped with.
const modelRatio = 0.35

// Encoder applies one operator to blocks in place. Not safe for concurrent
// use: each sending thread (a producer's sender, a stager's forwarder or
// spiller, a pipeline worker) owns its encoder, and with it the codec's
// match table and scratch.
type Encoder struct {
	cfg     Config
	tab     lzTable // the codec's match table, cleared per block
	scratch []byte  // encode destination, before the right-sized copy
}

// NewEncoder returns an encoder for cfg. cfg must validate.
func NewEncoder(cfg Config) *Encoder { return &Encoder{cfg: cfg} }

// EncodeBlock reduces b's payload in place. Blocks already carrying an
// encoding, and blocks the operator cannot shrink, are left untouched. In
// simulation mode (b.Data == nil) the reduction is modeled: Enc and EncBytes
// are stamped without touching payload bytes. The replaced raw payload is
// returned to the block pool.
func (e *Encoder) EncodeBlock(b *block.Block) error {
	if e.cfg.Operator == None || b.Enc != 0 || b.Bytes <= 0 {
		return nil
	}
	if b.Data == nil {
		// Simulation mode: model the encoded size deterministically.
		enc := max(int64(float64(b.Bytes)*modelRatio), 1)
		if enc >= b.Bytes {
			return nil // doesn't pay; leave raw like the real path would
		}
		b.Enc = uint8(e.cfg.Operator)
		b.EncBytes = enc
		return nil
	}
	// The codec is given one byte less room than the payload, so "does not
	// shrink" is its early exit. The few KB it produced are then copied into
	// a pooled payload of their own size class and the raw payload goes back
	// to the pool.
	limit := len(b.Data) - 1
	if cap(e.scratch) < limit {
		e.scratch = make([]byte, limit)
	}
	n, ok := lzEncode(&e.tab, e.scratch[:limit], b.Data)
	if !ok {
		return nil // incompressible: send raw
	}
	enc := block.GetPayload(n)
	copy(enc, e.scratch[:n])
	raw := block.Block{Data: b.Data}
	b.Data = enc
	b.Enc = uint8(Compress)
	b.EncBytes = int64(n)
	raw.Release()
	return nil
}

// Decoder restores reduced payloads in place. It holds no state: every
// encoded block decodes on its own.
type Decoder struct{}

// NewDecoder returns a decoder: the block's Enc tag selects the decode, so
// the consumer needs no reduction config.
func NewDecoder() *Decoder { return &Decoder{} }

// DecodeBlock restores b's raw payload in place and clears the encoding
// stamp. Unencoded blocks pass through; simulation-mode blocks just drop
// the stamp. The tag comes off the wire, so one that names no operator is
// an error, on either platform. On success the encoded payload is recycled
// into the block pool; on an error b is left exactly as it was, its payload
// still the caller's to release.
func (d *Decoder) DecodeBlock(b *block.Block) error {
	if b == nil || b.Enc == 0 {
		return nil
	}
	if Kind(b.Enc) != Compress {
		return fmt.Errorf("reduce: unknown encoding %d on block %v", b.Enc, b.ID)
	}
	if b.Data == nil {
		// Simulation mode: strip the modeled reduction.
		b.Enc = 0
		b.EncBytes = 0
		return nil
	}
	raw, err := decodeLZ(b.Data, b.Bytes, b.ID)
	if err != nil {
		return err
	}
	enc := block.Block{Data: b.Data}
	b.Data = raw
	b.Enc = 0
	b.EncBytes = 0
	enc.Release()
	return nil
}

// decodeLZ decodes src into a pooled payload of the block's raw size. The
// size comes off the wire, so it is checked against what src could possibly
// stand for before anything is allocated, and the payload goes back to the
// pool unless src decoded to exactly that many bytes.
func decodeLZ(src []byte, want int64, id block.ID) ([]byte, error) {
	if want <= 0 || want > int64(len(src))*lzMaxRatio {
		return nil, fmt.Errorf("reduce: block %v: %d encoded bytes cannot hold a raw size of %d", id, len(src), want)
	}
	raw := block.GetPayload(int(want))
	if err := lzDecode(raw, src); err != nil {
		(&block.Block{Data: raw}).Release()
		return nil, fmt.Errorf("reduce: block %v: %w", id, err)
	}
	return raw, nil
}
