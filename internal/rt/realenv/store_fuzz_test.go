package realenv

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"

	"zipper/internal/block"
	"zipper/internal/rt"
)

// recordBytes encodes b the way the stores put it on disk.
func recordBytes(b *block.Block) []byte {
	buf := make([]byte, storeHeaderLen, storeHeaderLen+len(b.Data))
	putStoreHeader(buf, b)
	return append(buf, b.Data...)
}

// storeSeeds are on-disk records of every shape the stores write, plus the
// corruptions a torn or bit-rotted spool produces: truncations, a flipped
// payload bit, a flipped checksum, and a length field claiming bytes the
// file does not hold.
func storeSeeds() [][]byte {
	raw := recordBytes(block.New(block.ID{}, 4096, []byte("hello zipper, hello spool")))
	reduced := block.New(block.ID{}, 0, []byte{1, 2, 3, 4, 5, 6, 7})
	reduced.Enc, reduced.EncBytes, reduced.Bytes = 2, 7, 1<<20
	seeds := [][]byte{
		raw,
		recordBytes(reduced),
		recordBytes(block.New(block.ID{}, 0, nil)), // header only: empty payload
		{},
		raw[:10],
		raw[:storeHeaderLen],
		raw[:len(raw)-1],
	}
	flipped := bytes.Clone(raw)
	flipped[len(flipped)-3] ^= 0x10
	badSum := bytes.Clone(raw)
	badSum[17] ^= 0xff
	huge := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(huge[8:], 1<<40)
	negative := bytes.Clone(raw)
	binary.LittleEndian.PutUint64(negative[8:], 1<<63)
	return append(seeds, flipped, badSum, huge, negative)
}

// checkDecoded is the decoder's contract on accepted input: the payload is
// exactly the bytes behind the header, and their CRC is the header's.
func checkDecoded(t *testing.T, b *block.Block, record []byte) {
	t.Helper()
	h := parseStoreHeader(record)
	payload := record[storeHeaderLen:]
	if !bytes.Equal(b.Data, payload) {
		t.Fatalf("decoded payload differs from the %d bytes behind the header", len(payload))
	}
	if got := crc32.Checksum(b.Data, crcTable); got != h.sum {
		t.Fatalf("returned a payload whose CRC %#x mismatches the header's %#x", got, h.sum)
	}
	if b.Offset != h.offset {
		t.Fatalf("decoded offset %d, header says %d", b.Offset, h.offset)
	}
}

// FuzzReadBlock feeds arbitrary file bytes to FileStore.ReadBlock: corrupt,
// truncated or adversarial spill files return an error — never a panic,
// never an allocation sized by a lying header (the payload is sized by the
// file), never a payload whose checksum mismatches.
func FuzzReadBlock(f *testing.F) {
	for _, s := range storeSeeds() {
		f.Add(s)
	}
	fs, err := NewFileStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	c := New().Ctx()
	id := block.ID{Rank: 1, Step: 2, Seq: 3}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(fs.path(id), data, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := fs.ReadBlock(c, id, int64(len(data)))
		if err != nil {
			return // rejected: exactly what corrupt input must produce
		}
		checkDecoded(t, b, data)
		if !b.OnDisk {
			t.Fatal("a block read from the store is not marked OnDisk")
		}
		b.Release()
	})
}

// FuzzLogRead overwrites a log segment with arbitrary bytes and reads every
// record the log issued a ref for, plus a ref the fuzzer makes up: each read
// fails or returns exactly the bytes at the ref with a matching checksum. A
// made-up ref outside the segment's written extent is refused outright.
func FuzzLogRead(f *testing.F) {
	for _, s := range storeSeeds() {
		f.Add(s, uint32(0), uint32(len(s)))
		f.Add(append(bytes.Repeat([]byte{0xa5}, 64), s...), uint32(64), uint32(25))
	}
	fs, err := NewFileStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	c := New().Ctx()
	f.Fuzz(func(t *testing.T, data []byte, off, n uint32) {
		log := fs.OpenLog()
		defer log.Close(c)
		// Two genuine records establish the segment and its extent…
		blocks := []*block.Block{
			block.New(block.ID{Seq: 0}, 0, bytes.Repeat([]byte{1}, 25)),
			block.New(block.ID{Seq: 1}, 0, bytes.Repeat([]byte{2}, 300)),
		}
		refs := make([]rt.LogRef, len(blocks))
		if err := log.Append(c, blocks, refs); err != nil {
			t.Fatal(err)
		}
		// …then the file's bytes are replaced under the log.
		segs := segFiles(t, fs.Dir())
		if len(segs) != 1 {
			t.Fatalf("%d segment files, want 1", len(segs))
		}
		if err := os.WriteFile(segs[0], data, 0o644); err != nil {
			t.Fatal(err)
		}
		extent := refs[1].Off + storeHeaderLen + refs[1].Len
		for _, ref := range append(refs, rt.LogRef{Seg: refs[0].Seg, Off: int64(off), Len: int64(n)}) {
			b, err := readBack(c, log, block.ID{}, ref)
			if ref.Off+storeHeaderLen+ref.Len > extent && err == nil {
				t.Fatalf("Read(%+v) accepted a ref beyond the written extent %d", ref, extent)
			}
			if err != nil {
				continue
			}
			checkDecoded(t, b, data[ref.Off:ref.Off+storeHeaderLen+ref.Len])
			b.Release()
		}
	})
}
