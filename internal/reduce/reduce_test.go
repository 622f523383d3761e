package reduce

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

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

func TestDeltaRoundTripAcrossSteps(t *testing.T) {
	e := NewEncoder(Config{Operator: Delta})
	d := NewDecoder()
	var fullSize, deltaSize int64
	for step := 0; step < 5; step++ {
		raw := smoothField(step, 4096)
		b := mkBlock(2, step, 7, append([]byte(nil), raw...))
		if err := e.EncodeBlock(b); err != nil {
			t.Fatal(err)
		}
		if b.Enc != uint8(Delta) {
			t.Fatalf("step %d not encoded", step)
		}
		if step == 0 {
			fullSize = b.EncBytes
		} else if step == 1 {
			deltaSize = b.EncBytes
		}
		if err := d.DecodeBlock(b); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !bytes.Equal(b.Data, raw) {
			t.Fatalf("step %d: delta round-trip corrupted payload", step)
		}
	}
	if deltaSize >= fullSize {
		t.Fatalf("delta step (%d B) not smaller than full step (%d B)", deltaSize, fullSize)
	}
}

func TestDeltaStreamsAreIndependent(t *testing.T) {
	e := NewEncoder(Config{Operator: Delta})
	d := NewDecoder()
	// Interleave two (rank, seq) streams: each must delta against its own
	// previous step, not whatever encoded last.
	for step := 0; step < 3; step++ {
		for _, seq := range []int{0, 1} {
			raw := smoothField(step+seq*100, 1024)
			b := mkBlock(0, step, seq, append([]byte(nil), raw...))
			if err := e.EncodeBlock(b); err != nil {
				t.Fatal(err)
			}
			if err := d.DecodeBlock(b); err != nil {
				t.Fatalf("step %d seq %d: %v", step, seq, err)
			}
			if !bytes.Equal(b.Data, raw) {
				t.Fatalf("step %d seq %d corrupted", step, seq)
			}
		}
	}
}

func TestDeltaBaseMismatchErrors(t *testing.T) {
	e := NewEncoder(Config{Operator: Delta})
	b0 := mkBlock(0, 0, 0, smoothField(0, 512))
	b1 := mkBlock(0, 1, 0, smoothField(1, 512))
	if err := e.EncodeBlock(b0); err != nil {
		t.Fatal(err)
	}
	if err := e.EncodeBlock(b1); err != nil {
		t.Fatal(err)
	}
	// Decode the delta frame without its base: must error, never emit a
	// silently corrupt field.
	d := NewDecoder()
	if err := d.DecodeBlock(b1); err == nil {
		t.Fatal("decoding a delta with no base succeeded")
	}
}

func TestStrideRoundTripIsExpansion(t *testing.T) {
	const n = 1024
	raw := smoothField(0, n)
	b := mkBlock(0, 0, 0, append([]byte(nil), raw...))
	e := NewEncoder(Config{Operator: Stride, Stride: 4})
	if err := e.EncodeBlock(b); err != nil {
		t.Fatal(err)
	}
	if b.Enc != uint8(Stride) {
		t.Fatal("stride did not encode")
	}
	if b.EncBytes >= b.Bytes/3 {
		t.Fatalf("stride 4 left %d of %d bytes", b.EncBytes, b.Bytes)
	}
	d := NewDecoder()
	if err := d.DecodeBlock(b); err != nil {
		t.Fatal(err)
	}
	if int64(len(b.Data)) != b.Bytes {
		t.Fatalf("expanded to %d bytes, want %d", len(b.Data), b.Bytes)
	}
	// Every kept sample must survive exactly; dropped samples are filled
	// from the nearest kept value on the left.
	for i := 0; i < n; i++ {
		got := b.Data[i*8 : i*8+8]
		want := raw[(i/4)*4*8 : (i/4)*4*8+8]
		if !bytes.Equal(got, want) {
			t.Fatalf("sample %d: stride expansion wrong", i)
		}
	}
}

func TestSimModeModelsReduction(t *testing.T) {
	for _, cfg := range []Config{
		{Operator: Compress},
		{Operator: Delta},
		{Operator: Stride, Stride: 8},
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
		{Operator: Delta, OnPressure: true},
		{Operator: Stride, Stride: 2},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", c, err)
		}
	}
	bad := []Config{
		{Operator: Kind(9)},
		{Operator: Stride},
		{Operator: Stride, Stride: 1},
		{Operator: Compress, Stride: 2},
		{Operator: Compress, ModelRatio: 1.5},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v: validated", c)
		}
	}
}

func TestCorruptEncodedPayloadErrors(t *testing.T) {
	// Codec garbage, truncated delta headers, and wrong stride sizes must
	// all surface as errors, not panics or silent corruption.
	cases := []*block.Block{
		{ID: block.ID{}, Bytes: 64, Data: []byte{1, 2, 3}, Enc: uint8(Compress), EncBytes: 3},
		{ID: block.ID{}, Bytes: 64, Data: []byte{}, Enc: uint8(Delta), EncBytes: 0},
		{ID: block.ID{}, Bytes: 64, Data: []byte{deltaXOR, 1, 2}, Enc: uint8(Delta), EncBytes: 3},
		{ID: block.ID{}, Bytes: 64, Data: []byte{7}, Enc: uint8(Delta), EncBytes: 1},
		{ID: block.ID{}, Bytes: 64, Data: []byte{0}, Enc: uint8(Stride), EncBytes: 1},
		{ID: block.ID{}, Bytes: 64, Data: []byte{4, 9}, Enc: uint8(Stride), EncBytes: 2},
		{ID: block.ID{}, Bytes: 64, Data: []byte{1, 2, 3}, Enc: 200, EncBytes: 3},
	}
	for i, b := range cases {
		if err := NewDecoder().DecodeBlock(b); err == nil {
			t.Errorf("case %d: corrupt payload decoded", i)
		}
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
		bad := &block.Block{Bytes: size, Data: cut, Enc: uint8(Compress), EncBytes: int64(len(cut))}
		if err := d.DecodeBlock(bad); err == nil {
			t.Fatal("a truncated payload decoded")
		}
	}
	runtime.ReadMemStats(&after)
	// A leak allocates a fresh megabyte per try. (Not zero: under -race
	// sync.Pool drops a quarter of what it is handed.)
	if got := after.TotalAlloc - before.TotalAlloc; got > tries*size/2 {
		t.Fatalf("%d failed decodes allocated %d MiB: the raw payload is not going back to the pool", tries, got>>20)
	}
}

// deltaBenchFields are two adjacent steps of a 64 KiB smooth field: encoding
// them alternately on one stream keeps every block on the XOR path.
func deltaBenchFields() [2][]byte { return [2][]byte{smoothField(0, 8192), smoothField(1, 8192)} }

// pooledBlock wraps a pooled copy of data, which the operator under test
// consumes, as step `step` of one stream.
func pooledBlock(step int, data []byte, raw int64) *block.Block {
	b := mkBlock(0, step, 0, append(block.GetPayload(len(data))[:0], data...))
	b.Bytes = raw
	return b
}

// No bench workload runs Delta, so these two are its only numbers: the XOR
// pass against the retained base plus the codec over the sparse difference.
func BenchmarkDeltaEncode(b *testing.B) {
	fields := deltaBenchFields()
	e := NewEncoder(Config{Operator: Delta})
	b.SetBytes(int64(len(fields[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := pooledBlock(i&1, fields[i&1], int64(len(fields[0])))
		if err := e.EncodeBlock(blk); err != nil {
			b.Fatal(err)
		}
		blk.Release()
	}
}

func BenchmarkDeltaDecode(b *testing.B) {
	fields := deltaBenchFields()
	raw := int64(len(fields[0]))
	// Steps 0, 1, 0: the first goes out whole, the other two as differences
	// against each other, which a decoder can then take in turn for ever.
	e := NewEncoder(Config{Operator: Delta})
	var encoded [3][]byte
	for i := range encoded {
		blk := pooledBlock(i&1, fields[i&1], raw)
		if err := e.EncodeBlock(blk); err != nil {
			b.Fatal(err)
		}
		encoded[i] = append([]byte(nil), blk.Data...)
	}
	d := NewDecoder()
	decode := func(step int, enc []byte, check bool) {
		blk := pooledBlock(step, enc, raw)
		blk.Enc, blk.EncBytes = uint8(Delta), int64(len(enc))
		if err := d.DecodeBlock(blk); err != nil {
			b.Fatal(err)
		}
		if check && !bytes.Equal(blk.Data, fields[step]) {
			b.Fatal("delta round-trip corrupted payload")
		}
		blk.Release()
	}
	for i, enc := range encoded {
		decode(i&1, enc, true)
	}
	b.SetBytes(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode((i+1)&1, encoded[1+i&1], false)
	}
}
