package realenv

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"zipper/internal/block"
	"zipper/internal/rt"
)

// segLog is the rt.BlockLog of one stager instance: segment files
// wal-<log>-<segment>.seg in the stager's spill partition, each a plain
// sequence of header+payload records (the FileStore header). Segment files
// are kept open while they hold live records, so a re-read is one
// positional read with no open.
type segLog struct {
	dir string
	gen uint64 // this log's number under the root store

	wmu     sync.Mutex // serializes appenders; guards scratch
	scratch []byte

	mu    sync.Mutex // guards tab and files
	tab   rt.Segments
	files []*os.File // by segment id; nil = no backing file
}

// OpenLog starts a new write-ahead log in this partition. It creates
// nothing until the first append.
func (s *FileStore) OpenLog() rt.BlockLog {
	return &segLog{dir: s.dir, gen: s.logs.Add(1)}
}

func (l *segLog) segPath(seg int) string {
	return filepath.Join(l.dir, fmt.Sprintf("wal-%d-%d.seg", l.gen, seg))
}

// Append writes blocks as consecutive records of one segment.
func (l *segLog) Append(c rt.Ctx, blocks []*block.Block, refs []rt.LogRef) error {
	if len(blocks) == 0 {
		return nil
	}
	var total int64
	for _, b := range blocks {
		total += storeHeaderLen + int64(len(b.Data))
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()

	l.mu.Lock()
	seg, off := l.tab.Reserve(len(blocks), total)
	f, err := l.fileLocked(seg)
	l.mu.Unlock()
	if err == nil {
		err = l.writeRecords(f, off, total, blocks)
	}
	if err != nil {
		l.mu.Lock()
		for range blocks {
			l.releaseLocked(seg)
		}
		l.mu.Unlock()
		return fmt.Errorf("realenv: appending %d blocks to log segment %d: %w", len(blocks), seg, err)
	}
	for i, b := range blocks {
		refs[i] = rt.LogRef{Seg: seg, Off: off, Len: int64(len(b.Data))}
		off += storeHeaderLen + int64(len(b.Data))
	}
	return nil
}

// fileLocked returns segment seg's open file, creating it on first use. A
// leftover file of that name (an earlier process's) is truncated: within
// this process the name belongs to this log alone.
func (l *segLog) fileLocked(seg int) (*os.File, error) {
	for len(l.files) <= seg {
		l.files = append(l.files, nil)
	}
	if l.files[seg] == nil {
		f, err := os.OpenFile(l.segPath(seg), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		l.files[seg] = f
	}
	return l.files[seg], nil
}

// writeRecords gathers the records in the log's scratch buffer and lays
// them out at off with one positional write. The scratch buffer grows to the
// largest batch seen but is not kept beyond a segment's size: an oversized
// batch's buffer goes back to the collector with it.
func (l *segLog) writeRecords(f *os.File, off, total int64, blocks []*block.Block) error {
	buf := l.scratch[:0]
	if int64(cap(buf)) < total {
		buf = make([]byte, 0, total)
		if total <= rt.LogSegmentBytes {
			l.scratch = buf
		}
	}
	for _, b := range blocks {
		buf = buf[:len(buf)+storeHeaderLen]
		putStoreHeader(buf[len(buf)-storeHeaderLen:], b)
		buf = append(buf, b.Data...)
	}
	_, err := f.WriteAt(buf, off)
	return err
}

// Read loads and verifies the record at ref into b. The record is live, so
// its segment cannot be reclaimed under the read.
func (l *segLog) Read(c rt.Ctx, ref rt.LogRef, b *block.Block) error {
	l.mu.Lock()
	var f *os.File
	if l.tab.Holds(ref) {
		f = l.files[ref.Seg]
	}
	l.mu.Unlock()
	if f == nil {
		return fmt.Errorf("realenv: log record of %v: segment %d holds no such record", b.ID, ref.Seg)
	}
	if err := readRecord(f, ref.Off, ref.Len, b); err != nil {
		return fmt.Errorf("realenv: log record of %v (segment %d @%d): %w", b.ID, ref.Seg, ref.Off, err)
	}
	return nil
}

// Release retires the record at ref.
func (l *segLog) Release(c rt.Ctx, ref rt.LogRef) {
	l.mu.Lock()
	l.releaseLocked(ref.Seg)
	l.mu.Unlock()
}

// releaseLocked drops one live record of seg and unlinks the segment file
// if the table gave the segment up. Unlink errors are ignored: the file is
// garbage either way, and the spool directory is the embedder's to remove.
func (l *segLog) releaseLocked(seg int) {
	if !l.tab.Release(seg) {
		return
	}
	if f := l.files[seg]; f != nil {
		l.files[seg] = nil
		_ = f.Close()
		_ = os.Remove(l.segPath(seg))
	}
}

// Close unlinks every segment file the log still holds.
func (l *segLog) Close(c rt.Ctx) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for seg, f := range l.files {
		if f != nil {
			_ = f.Close()
			_ = os.Remove(l.segPath(seg))
		}
	}
	l.files = nil
	l.tab = rt.Segments{}
}
