// Package realenv implements the rt platform on the real machine: goroutines
// as runtime threads, sync primitives, buffered Go channels as the
// low-latency network path, and a spool directory as the parallel file
// system path. The examples couple genuine simulation and analysis code
// through the Zipper runtime on this platform.
package realenv

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zipper/internal/block"
	"zipper/internal/rt"
)

// Env is the real-machine platform.
type Env struct {
	epoch time.Time
	wg    sync.WaitGroup
}

// New returns a platform whose clock starts now.
func New() *Env {
	return &Env{epoch: time.Now()}
}

type ctx struct{ e *Env }

func (c ctx) Now() time.Duration    { return time.Since(c.e.epoch) }
func (c ctx) Sleep(d time.Duration) { time.Sleep(d) }

// Ctx returns a context for a caller-owned goroutine (for example, the
// application thread that calls Producer.Write).
func (e *Env) Ctx() rt.Ctx { return ctx{e} }

// Go starts a runtime thread. Use Wait to join all threads.
func (e *Env) Go(name string, fn func(rt.Ctx)) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		fn(ctx{e})
	}()
}

// Wait blocks until every thread started with Go has returned.
func (e *Env) Wait() { e.wg.Wait() }

// CopyDelay is a no-op: on the real platform the copy itself costs the time.
func (e *Env) CopyDelay(rt.Ctx, int64) {}

// NewLock creates a sync.Mutex-backed lock.
func (e *Env) NewLock(name string) rt.Lock { return &lock{} }

type lock struct{ mu sync.Mutex }

func (l *lock) Lock(rt.Ctx)   { l.mu.Lock() }
func (l *lock) Unlock(rt.Ctx) { l.mu.Unlock() }
func (l *lock) NewCond(name string) rt.Cond {
	return &cond{c: sync.NewCond(&l.mu)}
}

type cond struct{ c *sync.Cond }

func (c *cond) Wait(rt.Ctx) { c.c.Wait() }
func (c *cond) Signal()     { c.c.Signal() }
func (c *cond) Broadcast()  { c.c.Broadcast() }

// WaitFor arms a timer whose callback broadcasts under the lock, so it cannot
// fire between arming and the wait. A wake-up that beats the timer stops it;
// one that does not lets the callback finish first, so neither the timer nor
// its goroutine outlives the wait.
func (c *cond) WaitFor(_ rt.Ctx, d time.Duration) {
	if d <= 0 {
		return
	}
	fired := make(chan struct{})
	t := time.AfterFunc(d, func() {
		c.c.L.Lock()
		c.c.Broadcast()
		c.c.L.Unlock()
		close(fired)
	})
	c.c.Wait()
	if !t.Stop() {
		c.c.L.Unlock()
		<-fired
		c.c.L.Lock()
	}
}

// Network is the in-process message path: `endpoints` receive endpoints
// (consumers first, then any in-transit stagers) over a pluggable endpoint
// set. The default set is one buffered channel per endpoint whose capacity
// is the receive window; NewRingNetwork swaps in pairwise lock-free SPSC
// rings — the intra-node fast path for co-located ranks. On either set,
// senders block while the destination window is full, providing the
// backpressure the runtime's stealing and routing logic react to. Send is
// safe from any thread, and hot senders should prefer a Port: on the ring set
// it mints the thread's private SPSC lanes, on the channel set it is the
// network itself, so callers can hold a port unconditionally. Credits is the
// hybrid routing policy's direct-path backpressure signal.
type Network struct {
	endpointSet
}

// NewNetwork creates `endpoints` channel-backed receive endpoints with the
// given receive-window depth (messages) — the pinned default path.
func NewNetwork(endpoints, window int) *Network {
	return &Network{newChanEndpoints(endpoints, window)}
}

// NewRingNetwork creates `endpoints` ring-backed receive endpoints: every
// sending thread that takes a Port gets a private wait-free SPSC lane into
// each endpoint it addresses, and parks once `window` of its messages sit
// undelivered in that lane — the same receive window NewNetwork gives a
// channel inbox. Selected by Config.Staging.RingDepth > 0, which passes
// min(RingDepth, Window).
func NewRingNetwork(endpoints, window int) *Network {
	if window < 1 {
		window = 1
	}
	return &Network{newRingEndpoints(endpoints, window)}
}

// FileStore spills and preserves blocks as files in a directory, standing in
// for the parallel file system. File layout: 29-byte header (offset, payload
// length, CRC-32C of the payload, raw block size, reduction encoding)
// followed by the payload; the checksum catches torn or corrupted spill
// files before they reach the analysis, and the raw-size/encoding pair lets
// a reduced payload spill and reload without losing its stamp (the payload
// on disk is the encoded bytes — spilling never re-inflates). The records of
// a write-ahead log (OpenLog) use the same header.
type FileStore struct {
	dir string
	// logs numbers the write-ahead logs opened anywhere under the root
	// store, so every log's segment files get names of their own.
	logs *atomic.Uint64
}

// NewFileStore creates (if needed) and uses dir as the spool directory.
func NewFileStore(dir string) (*FileStore, error) {
	return newFileStore(dir, new(atomic.Uint64))
}

func newFileStore(dir string, logs *atomic.Uint64) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("realenv: creating spool dir: %w", err)
	}
	return &FileStore{dir: dir, logs: logs}, nil
}

// Dir returns the spool directory.
func (s *FileStore) Dir() string { return s.dir }

// Partition returns a store rooted in a subdirectory of this one — each
// in-transit stager spills into its own partition so its private overflow
// never collides with producer spills or preserved blocks. Asking for the
// same partition again (a respawned stager) yields a store over the same
// directory.
func (s *FileStore) Partition(name string) (*FileStore, error) {
	return newFileStore(filepath.Join(s.dir, name), s.logs)
}

// path builds the block's file name (dir/b<rank>_s<step>_q<seq>, the
// block.ID.String form) with a single allocation.
func (s *FileStore) path(id block.ID) string {
	var a [128]byte
	p := append(a[:0], s.dir...)
	p = append(p, filepath.Separator, 'b')
	p = strconv.AppendInt(p, int64(id.Rank), 10)
	p = append(p, "_s"...)
	p = strconv.AppendInt(p, int64(id.Step), 10)
	p = append(p, "_q"...)
	p = strconv.AppendInt(p, int64(id.Seq), 10)
	return string(p)
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// storeHeaderLen is the spill-file and log-record header size.
const storeHeaderLen = rt.RecordHeaderBytes

// storeHeader is the decoded record header (see FileStore).
type storeHeader struct {
	offset int64  // block position in the producer's step output
	n      int64  // payload bytes that follow the header
	sum    uint32 // CRC-32C of the payload
	raw    int64  // raw (decoded) block size
	enc    uint8  // reduction encoding of the payload, 0 = none
}

// putStoreHeader encodes b's header into dst[:storeHeaderLen].
func putStoreHeader(dst []byte, b *block.Block) {
	binary.LittleEndian.PutUint64(dst, uint64(b.Offset))
	binary.LittleEndian.PutUint64(dst[8:], uint64(len(b.Data)))
	binary.LittleEndian.PutUint32(dst[16:], crc32.Checksum(b.Data, crcTable))
	binary.LittleEndian.PutUint64(dst[20:], uint64(b.Bytes))
	dst[28] = b.Enc
}

func parseStoreHeader(src []byte) storeHeader {
	return storeHeader{
		offset: int64(binary.LittleEndian.Uint64(src)),
		n:      int64(binary.LittleEndian.Uint64(src[8:])),
		sum:    binary.LittleEndian.Uint32(src[16:]),
		raw:    int64(binary.LittleEndian.Uint64(src[20:])),
		enc:    src[28],
	}
}

// readRecord reads the header at off of f, checks that the payload it
// announces is exactly `want` bytes, reads the payload into a pooled buffer
// and verifies its checksum, and fills b from the record: payload, offset,
// sizes and reduction stamp. want comes from the caller's own bookkeeping
// (the file's size, a log ref inside its segment's written extent), never
// from the header, so corrupt bytes cannot make the reader allocate what
// the file does not hold. On error b is left as it was. f is the concrete
// file, not an io.ReaderAt, so the header scratch stays on the stack.
func readRecord(f *os.File, off, want int64, b *block.Block) error {
	var hdr [storeHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], off); err != nil {
		return fmt.Errorf("header truncated: %w", err)
	}
	h := parseStoreHeader(hdr[:])
	if h.n != want {
		return fmt.Errorf("corrupt: header says %d payload bytes, expected %d", h.n, want)
	}
	data := block.GetPayload(int(want))
	if _, err := f.ReadAt(data, off+storeHeaderLen); err != nil {
		(&block.Block{Data: data}).Release()
		return fmt.Errorf("payload truncated: %w", err)
	}
	if got := crc32.Checksum(data, crcTable); got != h.sum {
		(&block.Block{Data: data}).Release()
		return fmt.Errorf("checksum mismatch: %#x != %#x", got, h.sum)
	}
	b.Data, b.Offset, b.Bytes = data, h.offset, h.n
	b.Enc, b.EncBytes = 0, 0
	if h.enc != 0 {
		// The record holds a reduced payload: restore the stamp and the raw
		// size so the decoder downstream knows what to rebuild.
		b.Enc, b.EncBytes, b.Bytes = h.enc, h.n, h.raw
	}
	return nil
}

// WriteBlock persists b as one file: header, then the payload straight from
// b.Data. It does not touch b — the application may be reading the block
// (Preserve mode stores blocks the analysis still holds).
func (s *FileStore) WriteBlock(c rt.Ctx, b *block.Block) error {
	f, err := os.OpenFile(s.path(b.ID), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("realenv: spilling %v: %w", b.ID, err)
	}
	var hdr [storeHeaderLen]byte
	putStoreHeader(hdr[:], b)
	_, err = f.Write(hdr[:])
	if err == nil {
		_, err = f.Write(b.Data)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("realenv: spilling %v: %w", b.ID, err)
	}
	return nil
}

// ReadBlock loads a spilled block into a pooled payload, verifying its
// length and checksum, and marks it OnDisk: it arrived through the file
// system.
func (s *FileStore) ReadBlock(c rt.Ctx, id block.ID, bytes int64) (*block.Block, error) {
	f, err := os.Open(s.path(id))
	if err != nil {
		return nil, fmt.Errorf("realenv: reading %v: %w", id, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("realenv: reading %v: %w", id, err)
	}
	if fi.Size() < storeHeaderLen {
		return nil, fmt.Errorf("realenv: block file %v truncated (%d bytes)", id, fi.Size())
	}
	b := &block.Block{ID: id, OnDisk: true}
	if err := readRecord(f, 0, fi.Size()-storeHeaderLen, b); err != nil {
		return nil, fmt.Errorf("realenv: block file %v: %w", id, err)
	}
	return b, nil
}

// RemoveBlock deletes a spilled block file.
func (s *FileStore) RemoveBlock(c rt.Ctx, id block.ID) error {
	if err := os.Remove(s.path(id)); err != nil {
		return fmt.Errorf("realenv: removing %v: %w", id, err)
	}
	return nil
}

var (
	_ rt.Env        = (*Env)(nil)
	_ rt.Transport  = (*Network)(nil)
	_ rt.BlockStore = (*FileStore)(nil)
)
