package reduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"zipper/internal/block"
)

// smoothField builds a compressible float64 payload: a piecewise-constant
// wave (64-sample plateaus) plus a small step-dependent drift — the shape
// of a well-resolved simulation field, where neighboring cells repeat
// values and adjacent steps barely differ.
func smoothField(step, n int) []byte {
	buf := make([]byte, n*8)
	for i := 0; i < n; i++ {
		v := math.Sin(float64(i/64)) + 0.001*float64(step)
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return buf
}

func mkBlock(rank, step, seq int, data []byte) *block.Block {
	return block.New(block.ID{Rank: rank, Step: step, Seq: seq}, 0, data)
}

func TestCompressRoundTrip(t *testing.T) {
	raw := smoothField(0, 4096)
	b := mkBlock(0, 0, 0, append([]byte(nil), raw...))
	e := NewEncoder(Config{Operator: Compress})
	if err := e.EncodeBlock(b); err != nil {
		t.Fatal(err)
	}
	if b.Enc != uint8(Compress) {
		t.Fatalf("block not encoded (enc=%d)", b.Enc)
	}
	if b.EncBytes >= b.Bytes {
		t.Fatalf("compress grew the payload: %d ≥ %d", b.EncBytes, b.Bytes)
	}
	if b.Bytes != int64(len(raw)) {
		t.Fatalf("raw size clobbered: %d", b.Bytes)
	}
	d := NewDecoder()
	if err := d.DecodeBlock(b); err != nil {
		t.Fatal(err)
	}
	if b.Enc != 0 || b.EncBytes != 0 {
		t.Fatalf("stamp not cleared: enc=%d encBytes=%d", b.Enc, b.EncBytes)
	}
	if !bytes.Equal(b.Data, raw) {
		t.Fatal("compress round-trip corrupted payload")
	}
}

func TestCompressSkipsIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	raw := make([]byte, 4096)
	rng.Read(raw)
	b := mkBlock(0, 0, 0, append([]byte(nil), raw...))
	e := NewEncoder(Config{Operator: Compress})
	if err := e.EncodeBlock(b); err != nil {
		t.Fatal(err)
	}
	if b.Enc != 0 {
		t.Fatalf("random payload encoded anyway (encBytes=%d raw=%d)", b.EncBytes, b.Bytes)
	}
	if !bytes.Equal(b.Data, raw) {
		t.Fatal("skipped encode still touched the payload")
	}
}

func TestSimModeModelsReduction(t *testing.T) {
	for _, cfg := range []Config{
		{Operator: Compress},
		{Operator: Compress, ModelRatio: 0.5},
	} {
		b := block.NewSized(block.ID{Rank: 1, Step: 2, Seq: 3}, 0, 1<<20)
		e := NewEncoder(cfg)
		if err := e.EncodeBlock(b); err != nil {
			t.Fatal(err)
		}
		if b.Enc != uint8(cfg.Operator) {
			t.Fatalf("%v: sim block not stamped", cfg.Operator)
		}
		want := int64(float64(b.Bytes) * cfg.modelRatio())
		if b.EncBytes != want {
			t.Fatalf("%v: modeled %d bytes, want %d", cfg.Operator, b.EncBytes, want)
		}
		if b.Data != nil {
			t.Fatal("sim encode materialized a payload")
		}
		if err := NewDecoder().DecodeBlock(b); err != nil {
			t.Fatal(err)
		}
		if b.Enc != 0 || b.EncBytes != 0 {
			t.Fatal("sim decode left the stamp")
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{},
		{Operator: Compress},
		{Operator: Compress, OnPressure: true},
		{Operator: Compress, ModelRatio: 0.5},
		{Operator: Compress, Workers: -1},
		{Operator: Compress, Workers: 2},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", c, err)
		}
	}
	bad := map[Config]string{
		{Operator: Kind(2)}:                    "unknown(2)",
		{Operator: Kind(3)}:                    "unknown(3)",
		{Operator: Kind(9)}:                    "unknown(9)",
		{Operator: Compress, ModelRatio: 1.5}:  "ModelRatio",
		{Operator: Compress, Workers: -2}:      "Workers",
		{Workers: 2}:                           "Workers",
		{Operator: Compress, ModelRatio: -0.1}: "ModelRatio",
	}
	for c, want := range bad {
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%+v: error %v, want one naming %q", c, err, want)
		}
	}
}

// TestCorruptEncodedPayloadErrors: a frame's enc tag and raw size are the
// peer's word. Codec garbage, and tags that name no operator — 2 and 3 were
// the delta and stride operators of earlier revisions, and two of the rows
// are frames those revisions decoded — must surface as errors, not panics or
// silent corruption, and leave the block as it was: its payload neither
// replaced nor handed back to the pool, so the caller releases it once.
func TestCorruptEncodedPayloadErrors(t *testing.T) {
	cases := []struct {
		name string
		enc  uint8
		raw  int64
		data []byte
	}{
		{"compress garbage", uint8(Compress), 64, []byte{1, 2, 3}},
		{"tag 2, a whole-block delta frame", 2, 4, []byte{0, 0x40, 'a', 'b', 'c', 'd'}},
		{"tag 2, truncated", 2, 64, []byte{1, 2}},
		{"tag 2, empty", 2, 64, nil},
		{"tag 3, a stride-2 frame", 3, 16, []byte{2, 1, 2, 3, 4, 5, 6, 7, 8}},
		{"tag 3, claiming a megabyte", 3, 1 << 20, []byte{4, 9}},
		{"tag 200", 200, 64, []byte{1, 2, 3}},
	}
	for _, tc := range cases {
		data := append(block.GetPayload(512)[:0], tc.data...)
		b := &block.Block{ID: block.ID{Rank: 1, Step: 2, Seq: 3}, Bytes: tc.raw, Data: data,
			Enc: tc.enc, EncBytes: int64(len(data))}
		err := NewDecoder().DecodeBlock(b)
		if err == nil {
			t.Errorf("%s: decoded", tc.name)
			continue
		}
		if tc.enc != uint8(Compress) && !strings.Contains(err.Error(), fmt.Sprintf("unknown encoding %d", tc.enc)) {
			t.Errorf("%s: error %q, want an unknown encoding", tc.name, err)
		}
		if b.Enc != tc.enc || b.Bytes != tc.raw || b.EncBytes != int64(len(tc.data)) ||
			len(b.Data) != len(tc.data) || unsafe.SliceData(b.Data) != unsafe.SliceData(data) {
			t.Errorf("%s: the failed decode changed the block: %+v", tc.name, b)
		}
		// Nor was the payload released behind the caller's back: the next
		// payloads of its class on this goroutine would include it.
		var next [4][]byte
		for i := range next {
			next[i] = block.GetPayload(512)
			if unsafe.SliceData(next[i]) == unsafe.SliceData(data) {
				t.Errorf("%s: the failed decode released a payload its caller still owns", tc.name)
			}
		}
		for _, p := range next {
			(&block.Block{Data: p}).Release()
		}
		b.Release()
	}
}

// TestCorruptPayloadDoesNotLeakOrBalloon: the raw size on a frame is the
// peer's word. A size the encoded bytes could not possibly stand for is
// refused before anything is allocated, and a decode that fails half way
// hands the pooled payload it was filling back to the pool.
func TestCorruptPayloadDoesNotLeakOrBalloon(t *testing.T) {
	absurd := &block.Block{Bytes: 1 << 40, Data: []byte{0x1f, 1, 1, 0, 255, 0, 0}, Enc: uint8(Compress), EncBytes: 7}
	if err := NewDecoder().DecodeBlock(absurd); err == nil {
		t.Fatal("7 encoded bytes decoded to a terabyte")
	}

	const size = 1 << 20
	b := block.New(block.ID{}, 0, make([]byte, size))
	if err := NewEncoder(Config{Operator: Compress}).EncodeBlock(b); err != nil || b.Enc == 0 {
		t.Fatalf("a megabyte of zeros did not encode: %v", err)
	}
	cut := b.Data[:len(b.Data)-1] // fails on the last sequence, the payload all but full
	d := NewDecoder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const tries = 64
	for i := 0; i < tries; i++ {
		// The same bytes under the tags that name no operator are refused
		// before a raw payload is even taken.
		for _, enc := range []uint8{uint8(Compress), 2, 3} {
			bad := &block.Block{Bytes: size, Data: cut, Enc: enc, EncBytes: int64(len(cut))}
			if err := d.DecodeBlock(bad); err == nil {
				t.Fatalf("a truncated payload tagged %d decoded", enc)
			}
		}
	}
	runtime.ReadMemStats(&after)
	// A leak allocates a fresh megabyte per try and tag. (Not zero: under
	// -race sync.Pool drops a quarter of what it is handed.)
	if got := after.TotalAlloc - before.TotalAlloc; got > tries*size/2 {
		t.Fatalf("%d failed decodes allocated %d MiB: the raw payload is not going back to the pool", tries, got>>20)
	}
}

// FuzzDecodeBlock drives the entry point a frame's enc word reaches: an
// arbitrary tag, an arbitrary claimed raw size and arbitrary bytes. The
// decoder must not panic, nor allocate what the bytes cannot stand for (the
// size check in decodeLZ); it may succeed only on an unencoded block, which
// passes through, or a Compress block, which must then come back exactly the
// claimed size; and a failure must leave the block as it was. The committed
// corpus (testdata/fuzz/FuzzDecodeBlock) adds frames the delta and stride
// operators of earlier revisions wrote, which a peer may still send.
func FuzzDecodeBlock(f *testing.F) {
	src := smoothField(0, 512)
	b := mkBlock(0, 0, 0, append([]byte(nil), src...))
	if err := NewEncoder(Config{Operator: Compress}).EncodeBlock(b); err != nil || b.Enc == 0 {
		f.Fatalf("the seed field did not encode: %v", err)
	}
	f.Add(uint8(Compress), int64(len(src)), b.Data)
	f.Add(uint8(Compress), int64(len(src)-1), b.Data)
	f.Add(uint8(Compress), int64(1)<<40, b.Data[:8])
	f.Add(uint8(0), int64(3), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, enc uint8, raw int64, data []byte) {
		// Never nil, even empty: a nil payload is the simulated platform's.
		payload := append(make([]byte, 0, len(data)), data...)
		b := &block.Block{Bytes: raw, Data: payload, Enc: enc, EncBytes: int64(len(payload))}
		err := NewDecoder().DecodeBlock(b)
		switch {
		case enc == 0:
			if err != nil || !bytes.Equal(b.Data, data) {
				t.Fatalf("an unencoded block did not pass through: %v", err)
			}
		case err != nil:
			if b.Enc != enc || b.Bytes != raw || b.EncBytes != int64(len(data)) || !bytes.Equal(b.Data, data) {
				t.Fatalf("a failed decode changed the block: %v", err)
			}
		case Kind(enc) != Compress:
			t.Fatalf("tag %d names no operator, yet %d bytes decoded", enc, len(data))
		case b.Enc != 0 || b.EncBytes != 0 || int64(len(b.Data)) != raw:
			t.Fatalf("decoded to %d bytes with enc %d/%d, want %d raw and no stamp", len(b.Data), b.Enc, b.EncBytes, raw)
		}
	})
}
