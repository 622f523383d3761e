// The log side of the block store: a segment log a fault-protected stager
// appends whole batches of spill victims to, in place of one file per block.

package rt

import "zipper/internal/block"

// RecordHeaderBytes is the size of the header the stores put in front of
// every persisted payload — spill files and log records share one format:
// offset, payload length, CRC-32C, raw block size, reduction encoding.
const RecordHeaderBytes = 29

// LogSegmentBytes is the size of one log segment. A batch that would run
// the active segment past it rolls over to the next segment; a batch larger
// than a whole segment gets a segment of its own.
const LogSegmentBytes = 4 << 20

// LogRef locates one record in a BlockLog: the segment, the byte offset of
// the record's header within it, and the payload length behind the header.
type LogRef struct {
	Seg int
	Off int64
	Len int64
}

// BlockLog is one stager instance's segment log: fixed-size segments in the
// instance's spill partition, appended to one batch at a time and reclaimed
// segment by segment as deliveries release the records. Append is called by
// one thread (the stager's spiller); Read and Release may run concurrently
// with it from other threads.
type BlockLog interface {
	// Append persists blocks as consecutive records with a single write and
	// stores each record's location in refs (len(refs) ≥ len(blocks)). It
	// returns once the write has been handed to the file system — like the
	// spill files, the log is not fsynced. On error nothing is retained.
	Append(c Ctx, blocks []*block.Block, refs []LogRef) error
	// Read loads the record at ref into a new block for id, verifying the
	// payload against the record's checksum. The payload is pooled
	// (block.GetPayload), so Block.Release recycles it.
	Read(c Ctx, id block.ID, ref LogRef) (*block.Block, error)
	// Release retires the record at ref. A segment whose records have all
	// been released is reused for later appends or unlinked.
	Release(c Ctx, ref LogRef)
	// Close unlinks every segment the log still holds. The owner calls it
	// once nothing is left to deliver or replay; closing twice is harmless.
	Close(c Ctx)
}

// LogStore is a BlockStore whose partition can also host segment logs.
type LogStore interface {
	BlockStore
	// OpenLog starts a new, empty log. Every log opened on a partition — by
	// this store or by another store over the same partition — uses segment
	// names of its own, so a respawned stager never touches the segments a
	// dead predecessor's replay still owns.
	OpenLog() BlockLog
}

// Segments is the platform-independent bookkeeping behind a BlockLog: where
// the next batch goes and when a segment can be reclaimed. The platforms map
// segment ids to files (realenv) or PFS objects (simenv). Not safe for
// concurrent use; the zero value is an empty log.
type Segments struct {
	segs   []segment
	active int // 1 + id of the segment taking appends; 0 = none
	spare  int // 1 + id of an empty segment kept for the next rollover; 0 = none
}

type segment struct {
	off   int64 // next append offset
	live  int   // records not yet released
	inUse bool  // the id is taken (a file may exist for it)
	solo  bool  // holds one oversized batch; never reused
}

// Reserve places a batch of `records` records totalling `bytes` bytes at
// offset off of segment seg and counts the records live. A failed write is
// undone by releasing each of them.
func (t *Segments) Reserve(records int, bytes int64) (seg int, off int64) {
	if bytes > LogSegmentBytes {
		seg = t.alloc()
		t.segs[seg] = segment{off: bytes, live: records, inUse: true, solo: true}
		return seg, 0
	}
	if t.active == 0 || t.segs[t.active-1].off+bytes > LogSegmentBytes {
		// Roll over. The outgoing segment still has live records (an empty
		// active segment is rewound by Release, so it would have had room);
		// it is reclaimed when the last of them is released.
		if t.spare != 0 {
			t.active, t.spare = t.spare, 0
		} else {
			id := t.alloc()
			t.segs[id] = segment{inUse: true}
			t.active = id + 1
		}
	}
	seg = t.active - 1
	s := &t.segs[seg]
	off = s.off
	s.off += bytes
	s.live += records
	return seg, off
}

func (t *Segments) alloc() int {
	for id := range t.segs {
		if !t.segs[id].inUse {
			return id
		}
	}
	t.segs = append(t.segs, segment{})
	return len(t.segs) - 1
}

// Release drops one live record of segment seg. It reports true when the
// segment is now empty and was given up: the platform unlinks its backing
// file. An empty active segment is rewound instead, and one empty sealed
// segment is kept as the spare for the next rollover.
func (t *Segments) Release(seg int) (unlink bool) {
	if seg < 0 || seg >= len(t.segs) || t.segs[seg].live == 0 {
		return false // not a live record's segment: nothing to drop
	}
	s := &t.segs[seg]
	s.live--
	if s.live > 0 {
		return false
	}
	switch {
	case seg == t.active-1:
		s.off = 0
	case t.spare == 0 && !s.solo:
		s.off = 0
		t.spare = seg + 1
	default:
		*s = segment{}
		return true
	}
	return false
}

// Holds reports whether ref lies within the written extent of a segment
// that still has live records — the cheap sanity check a platform makes
// before it trusts a ref's offset and length.
func (t *Segments) Holds(ref LogRef) bool {
	if ref.Seg < 0 || ref.Seg >= len(t.segs) || ref.Off < 0 || ref.Len < 0 {
		return false
	}
	s := &t.segs[ref.Seg]
	return s.live > 0 && ref.Len <= s.off && ref.Off <= s.off-ref.Len-RecordHeaderBytes
}
