package rt

import "testing"

// TestSegmentsLifecycle walks the table through the states a log segment
// goes through: fill, roll over, empty while sealed (kept as the spare or
// given up), empty while active (rewound in place).
func TestSegmentsLifecycle(t *testing.T) {
	const rec = LogSegmentBytes / 4 // four records fill a segment
	var tab Segments

	// Four one-record batches fill segment 0; the fifth rolls over.
	for i := 0; i < 4; i++ {
		seg, off := tab.Reserve(1, rec)
		if seg != 0 || off != int64(i)*rec {
			t.Fatalf("append %d placed at (%d,%d), want (0,%d)", i, seg, off, int64(i)*rec)
		}
	}
	seg, off := tab.Reserve(2, 2*rec)
	if seg != 1 || off != 0 {
		t.Fatalf("rollover placed at (%d,%d), want (1,0)", seg, off)
	}

	// Sealed segment 0 empties: it becomes the spare, not garbage.
	for i := 0; i < 4; i++ {
		if tab.Release(0) {
			t.Fatalf("release %d gave up segment 0 with no spare held", i)
		}
	}
	// Fill segment 1 and roll again: the spare is taken, no new id.
	tab.Reserve(2, 2*rec)
	if seg, off = tab.Reserve(1, rec); seg != 0 || off != 0 {
		t.Fatalf("second rollover placed at (%d,%d), want the spare (0,0)", seg, off)
	}
	// Sealed segment 1 empties with no spare held → kept; a further sealed
	// segment emptying while a spare is held is given up.
	for i := 0; i < 4; i++ {
		if tab.Release(1) {
			t.Fatal("segment 1 given up although no spare was held")
		}
	}
	tab.Reserve(3, 3*rec) // fills active 0
	if seg, _ = tab.Reserve(1, rec); seg != 1 {
		t.Fatalf("third rollover went to segment %d, want spare 1", seg)
	}
	if seg, _ = tab.Reserve(4, 4*rec); seg != 2 {
		t.Fatalf("fourth rollover went to segment %d, want a new id 2", seg)
	}
	// Now 0 (4 live) and 1 (1 live) are sealed, 2 is active.
	for i := 0; i < 4; i++ {
		tab.Release(0) // the first to empty becomes the spare
	}
	if !tab.Release(1) {
		t.Fatal("second empty sealed segment was kept: the partition would grow without bound")
	}

	// The active segment rewinds in place when it empties.
	for i := 0; i < 4; i++ {
		if tab.Release(2) {
			t.Fatal("active segment given up")
		}
	}
	if seg, off = tab.Reserve(1, rec); seg != 2 || off != 0 {
		t.Fatalf("append after the active segment emptied placed at (%d,%d), want (2,0)", seg, off)
	}
	// A released id is reused before the table grows.
	tab.Reserve(3, 3*rec)
	tab.Reserve(4, 4*rec) // rolls to the spare (0)
	if seg, _ = tab.Reserve(1, rec); seg != 1 {
		t.Fatalf("new segment got id %d, want the freed id 1", seg)
	}
}

// TestSegmentsOversizedBatch: a batch larger than a segment gets a segment
// of its own, leaves the active segment alone, and is given up — never kept
// as the spare — once released.
func TestSegmentsOversizedBatch(t *testing.T) {
	var tab Segments
	tab.Reserve(1, 100)
	seg, off := tab.Reserve(2, LogSegmentBytes+1)
	if seg != 1 || off != 0 {
		t.Fatalf("oversized batch placed at (%d,%d), want (1,0)", seg, off)
	}
	if seg, off = tab.Reserve(1, 100); seg != 0 || off != 100 {
		t.Fatalf("append after an oversized batch placed at (%d,%d), want (0,100)", seg, off)
	}
	if tab.Release(1) {
		t.Fatal("oversized segment given up with a record still live")
	}
	if !tab.Release(1) {
		t.Fatal("emptied oversized segment was kept")
	}
}

// TestSegmentsHoldsAndStaleRelease: refs are trusted only inside the written
// extent of a segment with live records, and releasing a record twice (or a
// ref that never existed) is a no-op rather than a negative count.
func TestSegmentsHoldsAndStaleRelease(t *testing.T) {
	var tab Segments
	seg, off := tab.Reserve(1, RecordHeaderBytes+1000)
	good := LogRef{Seg: seg, Off: off, Len: 1000}
	if !tab.Holds(good) {
		t.Fatal("a just-reserved record is not held")
	}
	for _, bad := range []LogRef{
		{Seg: -1}, {Seg: 7}, {Seg: seg, Off: -1, Len: 10}, {Seg: seg, Off: 0, Len: -1},
		{Seg: seg, Off: 1, Len: 1000}, {Seg: seg, Off: 0, Len: 1 << 40},
	} {
		if tab.Holds(bad) {
			t.Errorf("Holds(%+v) = true", bad)
		}
	}
	tab.Release(seg)
	if tab.Holds(good) {
		t.Fatal("a released record is still held")
	}
	if tab.Release(seg) || tab.Release(-1) || tab.Release(99) {
		t.Fatal("stale release reported a segment to unlink")
	}
	if s, o := tab.Reserve(1, 10); s != seg || o != 0 {
		t.Fatalf("table disturbed by stale releases: next append at (%d,%d)", s, o)
	}
}
