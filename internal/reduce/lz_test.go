package reduce

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"testing"

	"zipper/internal/block"
)

// lzFields are the payload shapes the codec is held to: the benchmark's
// plateau field (64-byte plateaus whose level drifts along the block, see
// bench/run.go), the degenerate all-zero block, two float fields a
// simulation would write, and bytes nothing can shrink.
var lzFields = []struct {
	name   string
	shrink bool // a 64 KiB block of it must come out smaller
	fill   func(data []byte, r *rand.Rand)
}{
	{"plateau", true, func(data []byte, r *rand.Rand) {
		level, drift := byte(r.Intn(256)), byte(1+r.Intn(3))
		for j := range data {
			data[j] = level + byte(j/64)*drift
		}
	}},
	{"zeros", true, func(data []byte, r *rand.Rand) {}},
	{"sine", false, func(data []byte, r *rand.Rand) {
		for j := 0; j+8 <= len(data); j += 8 {
			binary.LittleEndian.PutUint64(data[j:], math.Float64bits(math.Sin(float64(j)/4096)))
		}
	}},
	{"float32-rounded", true, func(data []byte, r *rand.Rand) {
		for j := 0; j+8 <= len(data); j += 8 {
			v := float64(float32(math.Sin(float64(j) / 4096)))
			binary.LittleEndian.PutUint64(data[j:], math.Float64bits(v))
		}
	}},
	{"random", false, func(data []byte, r *rand.Rand) { r.Read(data) }},
}

var lzLengths = []int{0, 1, 3, 4, 5, 11, 12, 13, 14, 15, 16, 17, 31, 63, 64, 65, 255, 256, 270, 271, 272,
	1000, 4093, 4096, 16 << 10, 65535, 64 << 10, 65537, 69_999, 70_000}

func lzField(t testing.TB, name string, n int) []byte {
	for _, f := range lzFields {
		if f.name == name {
			data := make([]byte, n)
			f.fill(data, rand.New(rand.NewSource(int64(n))))
			return data
		}
	}
	t.Fatalf("no field %q", name)
	return nil
}

// lzRoundTrip checks decode(encode(x)) == x with all the room the codec can
// ask for, and that with one byte less room than x the codec either reports
// "does not fit" or produces the same, smaller, encoding.
func lzRoundTrip(t testing.TB, src []byte) (encoded int, shrunk bool) {
	var tab lzTable
	full := make([]byte, lzBound(len(src)))
	n, ok := lzEncode(&tab, full, src)
	if !ok {
		t.Fatalf("%d bytes did not fit the bound %d", len(src), len(full))
	}
	got := make([]byte, len(src))
	if err := lzDecode(got, full[:n]); err != nil {
		t.Fatalf("decoding %d bytes coded to %d: %v", len(src), n, err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("%d bytes coded to %d decode to something else", len(src), n)
	}
	if len(src) == 0 {
		return n, false
	}
	tight := make([]byte, len(src)-1)
	m, ok := lzEncode(&tab, tight, src)
	if ok != (n < len(src)) {
		t.Fatalf("%d bytes code to %d, but one byte less room reports fit=%v", len(src), n, ok)
	}
	if ok && !bytes.Equal(tight[:m], full[:n]) {
		t.Fatalf("%d bytes: the encoding depends on the room given", len(src))
	}
	return n, ok
}

func TestLZRoundTrip(t *testing.T) {
	for _, f := range lzFields {
		for _, n := range lzLengths {
			src := lzField(t, f.name, n)
			enc, shrunk := lzRoundTrip(t, src)
			if n == 64<<10 && (f.shrink && !shrunk || f.name == "random" && shrunk) {
				t.Errorf("%s: 64 KiB coded to %d bytes", f.name, enc)
			}
		}
	}
}

// TestCompressLeavesRandomBlocksRaw is the operator's half of "does not
// fit": the block keeps its payload and goes out unencoded.
func TestCompressLeavesRandomBlocksRaw(t *testing.T) {
	e := NewEncoder(Config{Operator: Compress})
	for _, n := range lzLengths[1:] {
		src := lzField(t, "random", n)
		b := block.New(block.ID{Seq: n}, 0, append([]byte(nil), src...))
		if err := e.EncodeBlock(b); err != nil {
			t.Fatal(err)
		}
		if n >= 64 && (b.Enc != 0 || b.EncBytes != 0) {
			t.Fatalf("%d random bytes went out encoded as %d", n, b.EncBytes)
		}
		if err := NewDecoder().DecodeBlock(b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Data, src) {
			t.Fatalf("%d random bytes did not survive the operator", n)
		}
	}
}

func FuzzLZRoundTrip(f *testing.F) {
	for _, fl := range lzFields {
		for _, n := range []int{0, 12, 13, 100, 4093} {
			f.Add(lzField(f, fl.name, n))
		}
	}
	f.Fuzz(func(t *testing.T, src []byte) { lzRoundTrip(t, src) })
}

// lzReference decodes the block layout the slow, obvious way — append a
// byte at a time — and reports false on anything malformed. It is what
// FuzzLZDecode holds the real decoder to.
func lzReference(src []byte, limit int) ([]byte, bool) {
	var out []byte
	s := 0
	length := func(n int) (int, bool) {
		if n < 15 {
			return n, true
		}
		for {
			if s >= len(src) {
				return 0, false
			}
			c := src[s]
			s++
			n += int(c)
			if c != 255 {
				return n, true
			}
		}
	}
	for {
		if s >= len(src) {
			return nil, false
		}
		tok := src[s]
		s++
		lit, ok := length(int(tok >> 4))
		if !ok || lit > len(src)-s || len(out)+lit > limit {
			return nil, false
		}
		out = append(out, src[s:s+lit]...)
		if s += lit; s == len(src) {
			return out, true
		}
		if len(src)-s < 2 {
			return nil, false
		}
		off := int(binary.LittleEndian.Uint16(src[s:]))
		s += 2
		ml, ok := length(int(tok & 15))
		if !ok || off == 0 || off > len(out) || len(out)+ml+lzMinMatch > limit {
			return nil, false
		}
		for i := 0; i < ml+lzMinMatch; i++ {
			out = append(out, out[len(out)-off])
		}
	}
}

// FuzzLZDecode feeds arbitrary bytes to the decoder with a destination of
// arbitrary fixed size: it must not panic, must not touch a byte past the
// destination, and must report success exactly when the input is a
// well-formed block of exactly that many bytes.
func FuzzLZDecode(f *testing.F) {
	var tab lzTable
	for _, fl := range lzFields {
		src := lzField(f, fl.name, 300)
		enc := make([]byte, lzBound(len(src)))
		n, _ := lzEncode(&tab, enc, src)
		f.Add(enc[:n], uint16(300))
		f.Add(enc[:n], uint16(299))
		f.Add(enc[:n/2], uint16(300))
	}
	f.Add([]byte{0x00}, uint16(0))
	f.Add([]byte{0x1f, 'a', 1, 0, 255, 255, 0, 0x00}, uint16(530))
	f.Add([]byte{0x10, 'a', 2, 0, 0x00}, uint16(5)) // offset past the output
	for off := 1; off < 8; off++ {                  // runs, which the decoder fills by the word
		enc, size := lzRunStream(off, 40, 3)
		f.Add(enc, uint16(size))
	}
	f.Fuzz(func(t *testing.T, src []byte, size uint16) {
		const guard = 32
		buf := bytes.Repeat([]byte{0xa5}, int(size)+guard)
		err := lzDecode(buf[:size], src)
		for i, c := range buf[size:] {
			if c != 0xa5 {
				t.Fatalf("decoder wrote %d bytes past a %d-byte destination", i+1, size)
			}
		}
		want, ok := lzReference(src, int(size))
		ok = ok && len(want) == int(size)
		if (err == nil) != ok {
			t.Fatalf("decoder says %v, reference says well-formed=%v (%d bytes into %d)", err, ok, len(src), size)
		}
		if ok && !bytes.Equal(buf[:size], want) {
			t.Fatal("decoder and reference disagree on the bytes")
		}
	})
}

// lzAppendSeq appends one sequence to an encoded block: the literals, then —
// unless off is 0, which makes it the block's last sequence — a match of ml
// bytes at offset off.
func lzAppendSeq(enc, lits []byte, off, ml int) []byte {
	length := func(n int) {
		for n -= 15; n >= 255; n -= 255 {
			enc = append(enc, 255)
		}
		enc = append(enc, byte(n))
	}
	tok := len(enc)
	enc = append(enc, byte(min(len(lits), 15)<<4))
	if len(lits) >= 15 {
		length(len(lits))
	}
	enc = append(enc, lits...)
	if off == 0 {
		return enc
	}
	enc = append(enc, byte(off), byte(off>>8))
	enc[tok] |= byte(min(ml-lzMinMatch, 15))
	if ml-lzMinMatch >= 15 {
		length(ml - lzMinMatch)
	}
	return enc
}

// lzRunStream hand-builds a block: off+5 distinct literals, a match of ml
// bytes at offset off, and tail closing literals. It returns the encoding and
// the size it decodes to.
func lzRunStream(off, ml, tail int) ([]byte, int) {
	lits := make([]byte, off+5+tail)
	for i := range lits {
		lits[i] = byte(i*7 + 1)
	}
	enc := lzAppendSeq(nil, lits[:off+5], off, ml)
	enc = lzAppendSeq(enc, lits[off+5:], 0, 0)
	return enc, len(lits) + ml
}

// TestLZOverlapOffsets is the wide-store overrun case: matches at every
// offset from 1 to 32 and every length from 4 to 300, ending 0 to 16 bytes
// before the end of the destination, must decode to what the byte-at-a-time
// reference produces and leave the bytes after the destination alone.
func TestLZOverlapOffsets(t *testing.T) {
	const guard = 32
	buf := make([]byte, 32+5+300+16+guard)
	for off := 1; off <= 32; off++ {
		for ml := 4; ml <= 300; ml++ {
			for tail := 0; tail <= 16; tail++ {
				enc, size := lzRunStream(off, ml, tail)
				want, ok := lzReference(enc, size)
				if !ok || len(want) != size {
					t.Fatalf("offset %d length %d tail %d: the hand-built stream is malformed", off, ml, tail)
				}
				// One byte less room is an error; the right room is the
				// reference's bytes; neither writes past the room it was given.
				for _, room := range []int{size - 1, size} {
					for i := range buf {
						buf[i] = 0xa5
					}
					err := lzDecode(buf[:room], enc)
					for i, c := range buf[room:] {
						if c != 0xa5 {
							t.Fatalf("offset %d length %d tail %d: wrote %d bytes past a %d-byte destination", off, ml, tail, i+1, room)
						}
					}
					if (err == nil) != (room == size) {
						t.Fatalf("offset %d length %d tail %d: %d bytes into %d: %v", off, ml, tail, size, room, err)
					}
				}
				if !bytes.Equal(buf[:size], want) {
					t.Fatalf("offset %d length %d tail %d: decoder and reference disagree", off, ml, tail)
				}
			}
		}
	}
}

// TestLZMatchLenTiers puts the first mismatch at every position the tiers of
// lzMatchLen can meet it — inside the 8-byte steps, the 64-byte and the KiB
// compares, at their seams and at the limit — and holds the count to a byte
// loop's, for a match far back and for a run (offset 1).
func TestLZMatchLenTiers(t *testing.T) {
	const span = 2300
	r := rand.New(rand.NewSource(1))
	far := make([]byte, 2*span)
	r.Read(far[:span])
	copy(far[span:], far[:span])
	run := bytes.Repeat([]byte{0x5a}, span+1)
	limits := []int{0, 1, 7, 8, 9, 63, 64, 65, 71, 72, 73, 127, 128, 129, 135, 136, 137,
		1087, 1088, 1089, 1095, 1096, 1097, 1100, 1151, 1152, 1153, 2111, 2112, 2113, span}
	for _, c := range []struct {
		name string
		src  []byte
		a, b int
	}{{"far", far, span, 0}, {"run", run, 1, 0}} {
		for _, lim := range limits {
			for k := 0; k <= 1100 && k <= lim; k++ {
				// k == lim leaves the whole span equal: the limit ends the match.
				if k < lim {
					c.src[c.a+k] ^= 0xff
				}
				want := 0
				for c.a+want < c.a+lim && c.src[c.a+want] == c.src[c.b+want] {
					want++
				}
				got := lzMatchLen(c.src, c.a, c.b, c.a+lim)
				if k < lim {
					c.src[c.a+k] ^= 0xff
				}
				if got != want {
					t.Fatalf("%s: mismatch at %d, limit %d: counted %d, a byte loop counts %d", c.name, k, lim, got, want)
				}
			}
		}
	}
}

// TestLZDecodesParentStreams holds the decoder to blocks it did not encode:
// testdata/parent_streams.bin is what the encoder of the revision before the
// wide kernels produced for every lzFields x lzLengths pair (records of name
// length, name, u32 raw size, u32 encoded size, encoding). Each must still
// decode byte-exact, and on the plateau field today's encoder must not come
// out larger.
func TestLZDecodesParentStreams(t *testing.T) {
	data, err := os.ReadFile("testdata/parent_streams.bin")
	if err != nil {
		t.Fatal(err)
	}
	var tab lzTable
	for _, f := range lzFields {
		for _, n := range lzLengths {
			if len(data) < 1 || len(data) < 1+int(data[0])+8 {
				t.Fatalf("%s/%d: the stream file ends early", f.name, n)
			}
			name := string(data[1 : 1+data[0]])
			data = data[1+data[0]:]
			raw, encLen := int(binary.LittleEndian.Uint32(data)), int(binary.LittleEndian.Uint32(data[4:]))
			data = data[8:]
			if name != f.name || raw != n || encLen > len(data) {
				t.Fatalf("%s/%d: the stream file holds %s/%d (%d encoded bytes) here", f.name, n, name, raw, encLen)
			}
			enc := data[:encLen]
			data = data[encLen:]
			src := lzField(t, f.name, n)
			got := make([]byte, n)
			if err := lzDecode(got, enc); err != nil {
				t.Fatalf("%s/%d: %v", f.name, n, err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s/%d: the parent's stream decodes to something else", f.name, n)
			}
			if f.name == "plateau" {
				if m, ok := lzEncode(&tab, make([]byte, lzBound(n)), src); !ok || m > encLen {
					t.Errorf("plateau/%d codes to %d bytes, the parent's encoder made %d", n, m, encLen)
				}
			}
		}
	}
	if len(data) != 0 {
		t.Fatalf("%d bytes left over in the stream file", len(data))
	}
}

// The two benchmarks run every lzFields shape, so a win on the plateau field
// cannot hide a loss on short-match or incompressible data. The encoder gets
// the room the Compress operator gives it — one byte less than the block —
// and "does not fit" is then the measured path for the fields that do not
// shrink.
func BenchmarkLZEncode(b *testing.B) {
	for _, f := range lzFields {
		b.Run(f.name, func(b *testing.B) {
			src := lzField(b, f.name, 64<<10)
			dst := make([]byte, len(src)-1)
			var tab lzTable
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := lzEncode(&tab, dst, src); !ok && f.shrink {
					b.Fatalf("the %s field did not shrink", f.name)
				}
			}
		})
	}
}

func BenchmarkLZDecode(b *testing.B) {
	for _, f := range lzFields {
		b.Run(f.name, func(b *testing.B) {
			src := lzField(b, f.name, 64<<10)
			enc := make([]byte, lzBound(len(src)))
			var tab lzTable
			n, _ := lzEncode(&tab, enc, src)
			dst := make([]byte, len(src))
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lzDecode(dst, enc[:n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestLZDoesNotAllocate pins what the two benchmarks report: neither side of
// the codec touches the heap.
func TestLZDoesNotAllocate(t *testing.T) {
	src := lzField(t, "plateau", 64<<10)
	enc := make([]byte, lzBound(len(src)))
	dst := make([]byte, len(src))
	var tab lzTable
	n, _ := lzEncode(&tab, enc, src)
	if a := testing.AllocsPerRun(20, func() {
		lzEncode(&tab, enc, src)
		if err := lzDecode(dst, enc[:n]); err != nil {
			t.Error(err)
		}
	}); a != 0 {
		t.Fatalf("encode + decode allocate %.1f times, want 0", a)
	}
}
