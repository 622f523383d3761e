// Package reduce implements in-transit payload reduction for the wire path.
// The paper's premise is that the producer→consumer transfer is the resource
// worth protecting; Catalyst-ADIOS2-style operator placement says the
// in-transit tier is where bandwidth-limiting operators belong. This package
// supplies the pluggable operators — per-block compression of the float
// payloads, delta-vs-last-step encoding, stride subsampling — and the
// encode/decode state machines the runtime modules drive.
//
// A reduced block keeps its identity and raw size (Block.Bytes) untouched;
// only the payload representation changes: Block.Data holds the encoded
// bytes, Block.Enc names the operator, and Block.EncBytes is the encoded
// size that the wire, the spill store, and the simulated fabric charge.
// Decoding restores the exact raw payload (Compress, Delta) or a stride-
// expanded approximation (Stride — the one deliberately lossy operator).
//
// In simulation mode blocks carry no payload bytes, so EncodeBlock instead
// models the reduction: it stamps Enc and a deterministic EncBytes derived
// from ModelRatio, and DecodeBlock strips the stamp. Virtual-time wire and
// spill costs then reflect the reduced sizes exactly as real mode does.
package reduce

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"

	"zipper/internal/block"
)

// Kind selects a reduction operator. The zero value means no reduction.
type Kind uint8

const (
	// None leaves payloads untouched.
	None Kind = 0
	// Compress codes each payload independently with the LZ block codec of
	// lz.go (lossless). The cheapest to reason about: stateless, any
	// delivery order, safe to apply at any hop including the spill path.
	Compress Kind = 1
	// Delta XORs each payload against the previous step's payload of the
	// same (rank, seq) stream position, then codes the sparse difference with
	// the same codec (lossless). Smooth fields change little between adjacent
	// steps, so the XOR is mostly zero bytes and shrinks far below plain
	// Compress. The price is per-stream state on both ends: encoder and
	// decoder must see the stream in step order over a single path.
	Delta Kind = 2
	// Stride keeps every k-th float64 of the payload and drops the rest
	// (lossy). Decode expands each kept value over its window, so the
	// consumer sees a coarsened field of the original size. For analyses
	// that tolerate subsampled input it beats any lossless operator by
	// construction: the wire size is ~1/k regardless of entropy.
	Stride Kind = 3
)

// String names the operator for diagnostics and config errors.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Compress:
		return "compress"
	case Delta:
		return "delta"
	case Stride:
		return "stride"
	default:
		return fmt.Sprintf("reduce.Kind(%d)", uint8(k))
	}
}

// Stateless reports whether the operator can encode any block in isolation.
// Stateless operators may run at any hop — including the stager's spill
// path, where blocks leave the stream order. Delta is the one stateful
// operator: it must run on exactly one in-order path per stream.
func (k Kind) Stateless() bool { return k != Delta }

// Config selects and parameterizes the reduction applied to relayed
// payloads.
type Config struct {
	// Operator picks the reduction; None disables the package entirely.
	Operator Kind
	// Stride is the subsampling factor for the Stride operator: keep every
	// Stride-th float64. Must be ≥ 2 when Operator == Stride.
	Stride int
	// OnPressure defers reduction to the staging tier's pressure valve:
	// instead of encoding every relayed block at the producer, blocks are
	// encoded by the stager only while its occupancy is above the spill
	// high-water mark — the "compress instead of spill" rung. Off means
	// reduce everything at the producer relay path.
	OnPressure bool
	// ModelRatio overrides the simulated encoded-size ratio
	// (EncBytes = ceil(ModelRatio × Bytes)). 0 means the per-operator
	// default: 0.35 for Compress, 0.22 for Delta, 1/Stride for Stride.
	ModelRatio float64
	// Workers parallelizes the encode of stateless operators (Compress,
	// Stride) across a shared bounded worker pool (see Pipeline): 0 keeps
	// every encode inline on its sending thread — the pinned default,
	// byte-identical to earlier revisions — -1 scales the pool to
	// GOMAXPROCS, and N > 0 uses exactly N workers. Per-block encoder output
	// is deterministic, so the parallel encode is byte-identical to inline;
	// only the CPU it burns moves off the relay critical path.
	//
	// Delta must keep Workers == 0 (Validate rejects it): every Delta
	// encode XORs against the retained raw payload of the SAME stream's
	// previous step and then replaces that base, so encode N+1 depends on
	// encode N having completed — and the decoder replays the identical
	// base chain in step order. Parallel workers would race the base
	// update and desync the decoder. Delta stays on its single in-order
	// path by construction.
	Workers int
}

// Enabled reports whether the config names an operator.
func (c Config) Enabled() bool { return c.Operator != None }

// Validate rejects malformed operator parameters.
func (c Config) Validate() error {
	switch c.Operator {
	case None, Compress, Delta, Stride:
	default:
		return fmt.Errorf("reduce: unknown operator %d", uint8(c.Operator))
	}
	if c.Operator == Stride && c.Stride < 2 {
		return fmt.Errorf("reduce: stride operator needs Stride ≥ 2, got %d", c.Stride)
	}
	if c.Operator != Stride && c.Stride != 0 {
		return fmt.Errorf("reduce: Stride is only meaningful for the stride operator")
	}
	if c.ModelRatio < 0 || c.ModelRatio > 1 {
		return fmt.Errorf("reduce: ModelRatio %v out of [0,1]", c.ModelRatio)
	}
	if c.Workers < -1 {
		return fmt.Errorf("reduce: Workers %d out of range (-1 = GOMAXPROCS, 0 = inline, N > 0 = fixed pool)", c.Workers)
	}
	if c.Workers != 0 && c.Operator == None {
		return fmt.Errorf("reduce: Workers is only meaningful with an operator")
	}
	if c.Workers != 0 && !c.Operator.Stateless() {
		return fmt.Errorf("reduce: %v needs its single in-order encode path (each step's encode consumes the previous step's base); Workers must be 0", c.Operator)
	}
	return nil
}

func (c Config) modelRatio() float64 {
	if c.ModelRatio > 0 {
		return c.ModelRatio
	}
	switch c.Operator {
	case Compress:
		return 0.35
	case Delta:
		return 0.22
	case Stride:
		return 1 / float64(c.Stride)
	default:
		return 1
	}
}

// streamKey identifies one block stream position across steps: the delta
// base for (rank, seq) is the previous step's block at the same position.
type streamKey struct{ rank, seq int }

// base is the retained raw payload a delta stream encodes (or decodes)
// against, tagged with the step it came from so a reordered or dropped
// block is detected instead of silently corrupting the field.
type base struct {
	step int
	data []byte // privately owned copy, never aliases a pooled payload
}

// Delta wire layout (inside Block.Data when Enc == Delta):
//
//	u8 marker (deltaFull | deltaXOR) | [i64 baseStep, only for deltaXOR] |
//	the LZ block of the raw payload (full) or of the XOR difference (delta)
const (
	deltaFull = 0 // no usable base: payload is the coded raw bytes
	deltaXOR  = 1 // payload is the coded XOR against base step baseStep
)

// Encoder applies one operator to blocks in place. Not safe for concurrent
// use: each sending thread (a producer's sender, a stager's forwarder)
// owns its encoder, which is also what gives Delta its per-path stream
// state.
type Encoder struct {
	cfg     Config
	tab     lzTable // the codec's match table, cleared per block
	scratch []byte  // encode destination, before the right-sized copy
	xor     []byte
	last    map[streamKey]base
}

// NewEncoder returns an encoder for cfg. cfg must validate.
func NewEncoder(cfg Config) *Encoder {
	e := &Encoder{cfg: cfg}
	if cfg.Operator == Delta {
		e.last = make(map[streamKey]base)
	}
	return e
}

// Kind reports the configured operator.
func (e *Encoder) Kind() Kind { return e.cfg.Operator }

// Stateless reports whether this encoder may be applied off the in-order
// stream path (see Kind.Stateless).
func (e *Encoder) Stateless() bool { return e.cfg.Operator.Stateless() }

// EncodeBlock reduces b's payload in place. Blocks already carrying an
// encoding, and blocks the operator cannot shrink, are left untouched (the
// stateful Delta operator always encodes — see below). In simulation mode
// (b.Data == nil) the reduction is modeled: Enc and EncBytes are stamped
// without touching payload bytes. The replaced raw payload is returned to
// the block pool; for Delta a private copy is retained as the next step's
// base.
func (e *Encoder) EncodeBlock(b *block.Block) error {
	if e.cfg.Operator == None || b.Enc != 0 || b.Bytes <= 0 {
		return nil
	}
	if b.Data == nil {
		// Simulation mode: model the encoded size deterministically.
		enc := int64(float64(b.Bytes) * e.cfg.modelRatio())
		if enc < 1 {
			enc = 1
		}
		if e.cfg.Operator != Delta && enc >= b.Bytes {
			return nil // doesn't pay; leave raw like the real path would
		}
		b.Enc = uint8(e.cfg.Operator)
		b.EncBytes = enc
		return nil
	}
	switch e.cfg.Operator {
	case Compress:
		return e.encodeCompress(b)
	case Delta:
		return e.encodeDelta(b)
	case Stride:
		return e.encodeStride(b)
	}
	return nil
}

// lzInto codes src into the encoder's scratch with room for at most limit
// bytes and returns the encoding, or false when it does not fit.
func (e *Encoder) lzInto(src []byte, limit int) ([]byte, bool) {
	if cap(e.scratch) < limit {
		e.scratch = make([]byte, limit)
	}
	n, ok := lzEncode(&e.tab, e.scratch[:limit], src)
	return e.scratch[:n], ok
}

// swapPayload installs the encoded payload held in enc, stamps the
// encoding, and recycles the raw payload.
func swapPayload(b *block.Block, kind Kind, enc []byte) {
	raw := block.Block{Data: b.Data}
	b.Data = enc
	b.Enc = uint8(kind)
	b.EncBytes = int64(len(enc))
	raw.Release()
}

// encodeCompress leaves the block raw unless the encoding is smaller: the
// codec is given one byte less room than the payload, so "does not shrink"
// is its early exit. The few KB it produced are then copied into a pooled
// payload of their own size class and the raw payload goes back to the pool.
func (e *Encoder) encodeCompress(b *block.Block) error {
	out, ok := e.lzInto(b.Data, len(b.Data)-1)
	if !ok {
		return nil // incompressible: send raw
	}
	enc := block.GetPayload(len(out))
	copy(enc, out)
	swapPayload(b, Compress, enc)
	return nil
}

// encodeDelta XORs against the retained previous-step payload of the same
// (rank, seq) stream position and codes the (mostly zero) difference.
// Unlike the stateless operators it never skips: the decoder's base state
// must advance in lockstep with the encoder's, so even a poorly-compressing
// block goes out encoded (as deltaFull when no base fits).
func (e *Encoder) encodeDelta(b *block.Block) error {
	key := streamKey{b.ID.Rank, b.ID.Seq}
	prev, ok := e.last[key]
	src, marker, hdrLen := b.Data, byte(deltaFull), 1
	if ok && int64(len(prev.data)) == b.Bytes {
		marker, hdrLen = deltaXOR, 9
		if cap(e.xor) < len(b.Data) {
			e.xor = make([]byte, len(b.Data))
		}
		e.xor = e.xor[:len(b.Data)]
		subtle.XORBytes(e.xor, b.Data, prev.data)
		src = e.xor
	}
	out, fits := e.lzInto(src, lzBound(len(src)))
	if !fits {
		return fmt.Errorf("reduce: block %v: %d bytes is more than the codec takes", b.ID, len(src))
	}
	enc := block.GetPayload(hdrLen + len(out))
	enc[0] = marker
	if marker == deltaXOR {
		binary.LittleEndian.PutUint64(enc[1:9], uint64(int64(prev.step)))
	}
	copy(enc[hdrLen:], out)
	// Retain a private copy of the raw payload as the next step's base,
	// reusing the outgoing base's buffer when it fits.
	next := prev.data
	if cap(next) < len(b.Data) {
		next = make([]byte, len(b.Data))
	}
	next = next[:len(b.Data)]
	copy(next, b.Data)
	e.last[key] = base{step: b.ID.Step, data: next}
	swapPayload(b, Delta, enc)
	return nil
}

// Stride wire layout (inside Block.Data when Enc == Stride):
//
//	u8 stride | kept float64 words (indices 0, k, 2k, …) | raw tail bytes
//	(len % 8 bytes carried verbatim)
func (e *Encoder) encodeStride(b *block.Block) error {
	k := e.cfg.Stride
	n := len(b.Data) / 8
	if n < 2 || k > 255 {
		return nil // too small to subsample, or stride unencodable in a byte
	}
	kept := (n + k - 1) / k
	tail := len(b.Data) % 8
	encLen := 1 + kept*8 + tail
	if int64(encLen) >= b.Bytes {
		return nil
	}
	enc := block.GetPayload(encLen)
	enc[0] = byte(k)
	o := 1
	for i := 0; i < n; i += k {
		copy(enc[o:o+8], b.Data[i*8:i*8+8])
		o += 8
	}
	copy(enc[o:], b.Data[n*8:])
	swapPayload(b, Stride, enc)
	return nil
}

// Decoder restores reduced payloads in place. Not safe for concurrent use:
// each consumer's receiver thread owns one, which carries the Delta base
// state for every stream the consumer is assigned.
type Decoder struct {
	last map[streamKey]base
}

// NewDecoder returns a decoder ready for any operator: the block's Enc tag
// selects the decode path, so the consumer needs no reduction config.
func NewDecoder() *Decoder { return &Decoder{} }

// DecodeBlock restores b's raw payload in place and clears the encoding
// stamp. Unencoded blocks pass through; simulation-mode blocks just drop
// the stamp. The encoded payload is recycled into the block pool.
func (d *Decoder) DecodeBlock(b *block.Block) error {
	if b == nil || b.Enc == 0 {
		return nil
	}
	if b.Data == nil {
		// Simulation mode: strip the modeled reduction.
		b.Enc = 0
		b.EncBytes = 0
		return nil
	}
	var err error
	switch Kind(b.Enc) {
	case Compress:
		err = d.decodeCompress(b)
	case Delta:
		err = d.decodeDelta(b)
	case Stride:
		err = d.decodeStride(b)
	default:
		err = fmt.Errorf("reduce: unknown encoding %d on block %v", b.Enc, b.ID)
	}
	return err
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

// swapDecoded installs the raw payload and recycles the encoded one.
func swapDecoded(b *block.Block, raw []byte) {
	enc := block.Block{Data: b.Data}
	b.Data = raw
	b.Enc = 0
	b.EncBytes = 0
	enc.Release()
}

func (d *Decoder) decodeCompress(b *block.Block) error {
	raw, err := decodeLZ(b.Data, b.Bytes, b.ID)
	if err != nil {
		return err
	}
	swapDecoded(b, raw)
	return nil
}

func (d *Decoder) decodeDelta(b *block.Block) error {
	if len(b.Data) < 1 {
		return fmt.Errorf("reduce: empty delta payload on block %v", b.ID)
	}
	marker := b.Data[0]
	body := b.Data[1:]
	key := streamKey{b.ID.Rank, b.ID.Seq}
	var prev base
	switch marker {
	case deltaFull:
	case deltaXOR:
		if len(body) < 8 {
			return fmt.Errorf("reduce: truncated delta header on block %v", b.ID)
		}
		baseStep := int64(binary.LittleEndian.Uint64(body[:8]))
		body = body[8:]
		var ok bool
		prev, ok = d.last[key]
		if !ok || int64(prev.step) != baseStep || int64(len(prev.data)) != b.Bytes {
			return fmt.Errorf("reduce: delta base mismatch on block %v: have step %d, frame names %d",
				b.ID, prev.step, baseStep)
		}
	default:
		return fmt.Errorf("reduce: bad delta marker %d on block %v", marker, b.ID)
	}
	raw, err := decodeLZ(body, b.Bytes, b.ID)
	if err != nil {
		return err
	}
	if marker == deltaXOR {
		subtle.XORBytes(raw, raw, prev.data)
	}
	// Retain a private copy as the next step's base, reusing the outgoing
	// base's buffer when it fits.
	if d.last == nil {
		d.last = make(map[streamKey]base)
	}
	next := prev.data
	if cap(next) < len(raw) {
		next = make([]byte, len(raw))
	}
	next = next[:len(raw)]
	copy(next, raw)
	d.last[key] = base{step: b.ID.Step, data: next}
	swapDecoded(b, raw)
	return nil
}

func (d *Decoder) decodeStride(b *block.Block) error {
	if len(b.Data) < 1 {
		return fmt.Errorf("reduce: empty stride payload on block %v", b.ID)
	}
	k := int(b.Data[0])
	if k < 2 {
		return fmt.Errorf("reduce: bad stride %d on block %v", k, b.ID)
	}
	n := int(b.Bytes) / 8
	tail := int(b.Bytes) % 8
	kept := (n + k - 1) / k
	if len(b.Data) != 1+kept*8+tail {
		return fmt.Errorf("reduce: stride payload %d bytes, want %d for %d raw",
			len(b.Data), 1+kept*8+tail, b.Bytes)
	}
	raw := block.GetPayload(int(b.Bytes))
	o := 1
	for i := 0; i < n; i += k {
		word := b.Data[o : o+8]
		o += 8
		for j := i; j < i+k && j < n; j++ {
			copy(raw[j*8:j*8+8], word)
		}
	}
	copy(raw[n*8:], b.Data[o:])
	swapDecoded(b, raw)
	return nil
}
