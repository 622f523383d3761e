package realenv

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"zipper/internal/block"
	"zipper/internal/rt"
)

// logBlock builds a block whose payload is recognizable per (seq, size).
func logBlock(seq, size int) *block.Block {
	data := block.GetPayload(size)
	for i := range data {
		data[i] = byte(seq*31 + i)
	}
	return block.New(block.ID{Rank: 1, Step: 2, Seq: seq}, int64(seq)*int64(size), data)
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestSegLogRoundTrip appends a batch — raw and reduction-encoded payloads —
// and reads every record back byte-exact with its stamps, into pooled
// payloads, without touching the appended blocks.
func TestSegLogRoundTrip(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New().Ctx()
	log := fs.OpenLog()
	var batch []*block.Block
	for i := 0; i < 6; i++ {
		b := logBlock(i, 1000+i)
		if i%2 == 1 {
			// A reduced payload: Data is the encoded bytes, Bytes the raw size.
			b.Enc, b.EncBytes, b.Bytes = 2, int64(len(b.Data)), 1<<16
		}
		batch = append(batch, b)
	}
	refs := make([]rt.LogRef, len(batch))
	if err := log.Append(c, batch, refs); err != nil {
		t.Fatal(err)
	}
	if n := len(segFiles(t, fs.Dir())); n != 1 {
		t.Fatalf("one small batch made %d segment files, want 1", n)
	}
	for i, want := range batch {
		if want.OnDisk {
			t.Fatalf("Append marked block %d OnDisk", i)
		}
		got, err := log.Read(c, want.ID, refs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, want.Data) || got.Offset != want.Offset || got.ID != want.ID ||
			got.Enc != want.Enc || got.EncBytes != want.EncBytes || got.Bytes != want.Bytes || got.OnDisk {
			t.Fatalf("record %d read back as %+v, want %+v", i, got, want)
		}
		if c := cap(got.Data); c&(c-1) != 0 {
			t.Fatalf("record %d payload has capacity %d: not from the payload pool", i, c)
		}
		got.Release()
	}
	log.Close(c)
	if left := segFiles(t, fs.Dir()); len(left) != 0 {
		t.Fatalf("Close left %v", left)
	}
	log.Close(c) // closing twice is harmless
}

// TestSegLogDetectsCorruption flips one payload byte and one header byte in
// the segment file: both reads must fail, the untouched neighbour must not.
func TestSegLogDetectsCorruption(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New().Ctx()
	log := fs.OpenLog()
	batch := []*block.Block{logBlock(0, 4096), logBlock(1, 4096), logBlock(2, 4096)}
	refs := make([]rt.LogRef, 3)
	if err := log.Append(c, batch, refs); err != nil {
		t.Fatal(err)
	}
	seg := segFiles(t, fs.Dir())[0]
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[refs[0].Off+storeHeaderLen+100] ^= 0x01 // record 0: payload bit
	raw[refs[2].Off+9] ^= 0x01                  // record 2: length field
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		if b, err := log.Read(c, batch[i].ID, refs[i]); err == nil {
			t.Fatalf("corrupted record %d read back without error: %+v", i, b)
		}
	}
	if _, err := log.Read(c, batch[1].ID, refs[1]); err != nil {
		t.Fatalf("intact record between two corrupted ones: %v", err)
	}
	// Refs the log never issued are refused before any file is touched.
	for _, ref := range []rt.LogRef{{Seg: 9}, {Seg: -1}, {Seg: 0, Off: refs[2].Off, Len: 1 << 30}} {
		if _, err := log.Read(c, block.ID{}, ref); err == nil {
			t.Fatalf("Read(%+v) succeeded", ref)
		}
	}
}

// TestSegLogRolloverAndReclaim streams many segments' worth of batches
// through a log with a bounded number of records live at any time: the
// partition must hold a bounded number of segment files throughout, every
// record must read back intact across rollovers, and the partition must be
// empty after Close.
func TestSegLogRolloverAndReclaim(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New().Ctx()
	log := fs.OpenLog()
	const (
		blockBytes = 64 << 10
		batchLen   = 8
		batches    = 200 // 100 MiB through 4 MiB segments
		inFlight   = 24  // batches delivered this long after their append: ~3 segments live
	)
	type live struct {
		blocks []*block.Block
		refs   []rt.LogRef
	}
	var window []live
	maxFiles := 0
	retire := func(l live) {
		for i, want := range l.blocks {
			got, err := log.Read(c, want.ID, l.refs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("block %v corrupted across rollover", want.ID)
			}
			got.Release()
			want.Release()
			log.Release(c, l.refs[i])
		}
	}
	for n := 0; n < batches; n++ {
		l := live{refs: make([]rt.LogRef, batchLen)}
		for k := 0; k < batchLen; k++ {
			l.blocks = append(l.blocks, logBlock(n*batchLen+k, blockBytes))
		}
		if err := log.Append(c, l.blocks, l.refs); err != nil {
			t.Fatal(err)
		}
		window = append(window, l)
		if len(window) > inFlight {
			retire(window[0])
			window = window[1:]
		}
		maxFiles = max(maxFiles, len(segFiles(t, fs.Dir())))
	}
	for _, l := range window {
		retire(l)
	}
	// inFlight batches are 12 MiB = 3 segments of live records, plus the
	// active one, plus one spare.
	if maxFiles > 6 {
		t.Fatalf("partition grew to %d segment files for ~3 segments of live records", maxFiles)
	}
	if maxFiles < 3 {
		t.Fatalf("only %d segment files at peak: the log never rolled over", maxFiles)
	}
	if n := len(segFiles(t, fs.Dir())); n > 2 {
		t.Fatalf("%d segment files held with nothing live, want at most active + spare", n)
	}
	log.Close(c)
	if ents, _ := os.ReadDir(fs.Dir()); len(ents) != 0 {
		t.Fatalf("partition holds %d entries after Close", len(ents))
	}
}

// TestSegLogOversizedBatch: a batch larger than a segment lands in a segment
// of its own, reads back intact, and its file is unlinked as soon as the
// batch is released.
func TestSegLogOversizedBatch(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New().Ctx()
	log := fs.OpenLog()
	small := []*block.Block{logBlock(0, 512)}
	smallRef := make([]rt.LogRef, 1)
	if err := log.Append(c, small, smallRef); err != nil {
		t.Fatal(err)
	}
	big := []*block.Block{logBlock(1, 3<<20), logBlock(2, 100), logBlock(3, 1<<20+1), logBlock(4, 700<<10)}
	refs := make([]rt.LogRef, len(big))
	if err := log.Append(c, big, refs); err != nil {
		t.Fatal(err)
	}
	if refs[0].Seg == smallRef[0].Seg {
		t.Fatal("oversized batch shares the active segment")
	}
	if n := len(segFiles(t, fs.Dir())); n != 2 {
		t.Fatalf("%d segment files, want 2", n)
	}
	for i, want := range big {
		got, err := log.Read(c, want.ID, refs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("oversized-batch record %d corrupted", i)
		}
		got.Release()
		log.Release(c, refs[i])
	}
	if n := len(segFiles(t, fs.Dir())); n != 1 {
		t.Fatalf("%d segment files after releasing the oversized batch, want 1", n)
	}
	log.Close(c)
}

// TestSegLogsNeverShareNames: a respawned stager opens a new log on the same
// partition — through a second Partition call, as the job does — while its
// dead predecessor's log still holds unreplayed records. Neither may touch
// the other's segments.
func TestSegLogsNeverShareNames(t *testing.T) {
	root, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New().Ctx()
	p1, err := root.Partition("stage0")
	if err != nil {
		t.Fatal(err)
	}
	old := p1.OpenLog()
	oldBlocks := []*block.Block{logBlock(0, 2048), logBlock(1, 2048)}
	oldRefs := make([]rt.LogRef, 2)
	if err := old.Append(c, oldBlocks, oldRefs); err != nil {
		t.Fatal(err)
	}
	p2, err := root.Partition("stage0")
	if err != nil {
		t.Fatal(err)
	}
	fresh := p2.OpenLog()
	newBlocks := []*block.Block{logBlock(7, 2048)}
	newRefs := make([]rt.LogRef, 1)
	if err := fresh.Append(c, newBlocks, newRefs); err != nil {
		t.Fatal(err)
	}
	if n := len(segFiles(t, p1.Dir())); n != 2 {
		t.Fatalf("%d segment files for two logs, want 2", n)
	}
	fresh.Release(c, newRefs[0])
	fresh.Close(c)
	for i, want := range oldBlocks {
		got, err := old.Read(c, want.ID, oldRefs[i])
		if err != nil {
			t.Fatalf("predecessor's record %d after the successor closed: %v", i, err)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("predecessor's record %d overwritten", i)
		}
	}
	old.Close(c)
	if left := segFiles(t, p1.Dir()); len(left) != 0 {
		t.Fatalf("left %v", left)
	}
}

// TestFileStoreWriteAllocs pins the file-per-block path's allocation diet:
// no payload-sized buffer, no payload copy. What is left is the path string
// and os.OpenFile's own three small objects (the race detector adds one).
func TestFileStoreWriteAllocs(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New().Ctx()
	b := block.New(block.ID{Rank: 3, Step: 1000, Seq: 70000}, 0, make([]byte, 16<<10))
	write := func() {
		if err := fs.WriteBlock(c, b); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, write); got > 5 {
		t.Fatalf("WriteBlock allocates %.0f objects per 16 KiB block, want ≤ 5", got)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		write()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / 100; perCall > 512 {
		t.Fatalf("WriteBlock allocates %d B per 16 KiB block, want ≤ 512: the payload is being copied", perCall)
	}
	if want := filepath.Join(fs.Dir(), b.ID.String()); fs.path(b.ID) != want {
		t.Fatalf("path = %q, want %q", fs.path(b.ID), want)
	}
}

// TestFileStoreReadIsPooled: a re-read block's payload comes from the
// payload pool, so the consumer's Release recycles it.
func TestFileStoreReadIsPooled(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := New().Ctx()
	b := logBlock(0, 5000)
	b.Enc, b.EncBytes, b.Bytes = 1, 5000, 1<<15
	if err := fs.WriteBlock(c, b); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadBlock(c, b.ID, b.EncBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, b.Data) || got.Enc != 1 || got.EncBytes != 5000 || got.Bytes != 1<<15 {
		t.Fatalf("reduced block read back as %+v", got)
	}
	if cp := cap(got.Data); cp != 8192 {
		t.Fatalf("payload capacity %d, want the 8 KiB pool class", cp)
	}
}
