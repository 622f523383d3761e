// The journal of what a fault-protected stager still owes its consumers, and
// its replay reader.
//
// What survives an endpoint's death is this journal — an in-memory manifest
// the embedder owns, one per stager instance — and the spill partition it
// points into. Admission copies nothing: a Record per admitted block holds
// the resident *block.Block by reference, exactly as AddOrphan keeps the
// messages a dead receiver drains, and disk-ref announcements and Fins get
// meta Records carrying the declared delivery totals. The segment log the
// journal opens in the stager's spill partition takes a payload only when
// the spiller evicts it from memory (up to MaxBatchBlocks victims in one
// append); the record then remembers where (segment, offset, length) and
// drops the pointer. Delivery drops the record and releases any log space,
// so the journal holds exactly what a crash right now would owe. After a
// crash the recovery reader (Replay) re-forwards exactly those records —
// resident ones from memory, overflowed ones read back and checksum-verified
// — and counted per-destination Fin accounting balances without the
// consumers ever learning a relay died. Message.Lost is the fallback for the
// genuinely unrecoverable case: an overflowed block whose log record cannot
// be read back.
//
// Not covered: the death of the process. The manifest is the log's only
// index, the log is not fsynced, and Close unlinks it.

package staging

import (
	"errors"
	"sort"
	"sync"

	"zipper/internal/block"
	"zipper/internal/rt"
)

// Record is one journal entry: a relayed block the stager still owes —
// resident (b != nil) or overflowed to the segment log (ref) — or the
// metadata of one admitted message (disk refs and the Fin with its declared
// totals).
type Record struct {
	// Block entries.
	id            block.ID
	offset, bytes int64
	enc           uint8
	b             *block.Block // the resident payload; nil once overflowed
	ref           rt.LogRef    // where the log holds the payload; Seg < 0 = nowhere
	isBlock       bool

	// Meta entries.
	disk               []rt.DiskRef
	fin                bool
	finBlocks, finDisk int64

	from, dest int

	// Undelivered records form a list in admission order.
	prev, next *Record
	pending    bool
}

// noRef marks a block record the log holds no copy of.
var noRef = rt.LogRef{Seg: -1}

// logged reports whether the log holds the record's payload.
func (r *Record) logged() bool { return r.isBlock && r.ref.Seg >= 0 }

// Journal is the manifest of one stager instance. The embedder owns it (it
// must survive the endpoint's death) and hands it to the Stager via
// Config.Journal; the recovery path reads it back with Replay. It keeps only
// undelivered records. Safe for concurrent use, except that blocks are
// admitted by one thread only (the owning stager's receiver) and overflowed
// by one thread only (its spiller).
type Journal struct {
	log rt.BlockLog // opened by the stager the journal is handed to
	// overflow scratch
	blocks []*block.Block
	refs   []rt.LogRef

	mu         sync.Mutex
	head, tail *Record // undelivered records, oldest first
	pending    int
	orphans    []rt.Message
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{} }

// open starts the journal's segment log in the stager's spill partition.
func (j *Journal) open(fs rt.BlockStore) {
	ls, ok := fs.(rt.LogStore)
	if !ok {
		panic("staging: a crash journal requires a spill store that hosts segment logs (rt.LogStore)")
	}
	j.log = ls.OpenLog()
}

// pushLocked appends r to the undelivered list.
func (j *Journal) pushLocked(r *Record) {
	r.pending = true
	r.prev = j.tail
	if j.tail != nil {
		j.tail.next = r
	} else {
		j.head = r
	}
	j.tail = r
	j.pending++
}

// admitBlocks journals one admitted message's blocks by reference — a record
// per block, returned in block order — and copies nothing: the blocks are
// resident, and a pointer in the manifest is as durable as the manifest.
func (j *Journal) admitBlocks(from, dest int, blocks []*block.Block) []Record {
	recs := make([]Record, len(blocks))
	for i, b := range blocks {
		recs[i] = Record{isBlock: true, id: b.ID, offset: b.Offset, bytes: b.Bytes, enc: b.Enc,
			b: b, ref: noRef, from: from, dest: dest}
	}
	j.mu.Lock()
	for i := range recs {
		j.pushLocked(&recs[i])
	}
	j.mu.Unlock()
	return recs
}

// overflow moves resident records' payloads to the segment log with a single
// append, after which the records point at the log and no longer at memory
// (the caller recycles the payloads). On error nothing changed: the blocks
// stay resident and journaled. The append may park the thread, so the
// journal lock is not held across it.
func (j *Journal) overflow(c rt.Ctx, recs []*Record) error {
	blocks := j.blocks[:0]
	for _, r := range recs {
		blocks = append(blocks, r.b)
	}
	j.blocks = blocks
	if cap(j.refs) < len(recs) {
		j.refs = make([]rt.LogRef, len(recs))
	}
	refs := j.refs[:len(recs)]
	err := j.log.Append(c, blocks, refs)
	clear(blocks) // the scratch must not keep payloads alive
	if err != nil {
		return err
	}
	j.mu.Lock()
	for i, r := range recs {
		// The spiller may have reduction-encoded the victim since admission.
		r.enc, r.ref, r.b = r.b.Enc, refs[i], nil
	}
	j.mu.Unlock()
	return nil
}

// addMeta journals an undelivered metadata record (disk refs and/or Fin).
func (j *Journal) addMeta(from, dest int, disk []rt.DiskRef, fin bool, finBlocks, finDisk int64) *Record {
	r := &Record{from: from, dest: dest, disk: disk, fin: fin, finBlocks: finBlocks, finDisk: finDisk}
	j.mu.Lock()
	j.pushLocked(r)
	j.mu.Unlock()
	return r
}

// deliver retires a record: its payload reached the consumer through the
// normal forwarding path (or was declared Lost there). The record leaves
// the journal — the block is the consumer's now — and any log space is
// released.
func (j *Journal) deliver(c rt.Ctx, r *Record) {
	j.mu.Lock()
	if !r.pending {
		j.mu.Unlock()
		return
	}
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		j.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		j.tail = r.prev
	}
	r.prev, r.next, r.pending, r.b = nil, nil, false, nil
	j.pending--
	j.mu.Unlock()
	j.release(c, r)
}

// release gives a block record's log space back.
func (j *Journal) release(c rt.Ctx, r *Record) {
	if r.logged() {
		j.log.Release(c, r.ref)
	}
}

// read hands back a journaled block: the resident block itself, or — once
// overflowed — a checksum-verified positional read from the log into a
// pooled payload, with what the record knows about it restored (on the
// simulated platform the log keeps no contents).
func (j *Journal) read(c rt.Ctx, r *Record) (*block.Block, error) {
	if r.b != nil {
		return r.b, nil
	}
	if !r.logged() {
		return nil, errors.New("staging: the journal record holds no payload")
	}
	b, err := j.log.Read(c, r.id, r.ref)
	if err != nil {
		return nil, err
	}
	b.Offset = r.offset
	if r.enc != 0 {
		b.Enc = r.enc
		b.EncBytes = r.ref.Len
		b.Bytes = r.bytes
	}
	return b, nil
}

// close retires the log once nothing is left to deliver or replay.
func (j *Journal) close(c rt.Ctx) {
	if j.log != nil {
		j.log.Close(c)
	}
}

// AddOrphan records a whole message the dead endpoint's receiver never
// admitted — drained after the crash, or waiting for buffer room when it
// landed — blocks still in memory. The recovery reader re-sends it verbatim.
func (j *Journal) AddOrphan(m rt.Message) {
	j.mu.Lock()
	j.orphans = append(j.orphans, m)
	j.mu.Unlock()
}

// Pending reports the undelivered record and orphan counts — what a crash
// right now would owe the recovery reader.
func (j *Journal) Pending() (records, orphans int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pending, len(j.orphans)
}

// drain atomically takes every undelivered record (oldest first, linked by
// next; a second replay finds none) and the orphan backlog. The records stop
// being pending here, under the lock, so a late deliver of one is a no-op
// and the replay alone releases its log space.
func (j *Journal) drain() (head *Record, orphans []rt.Message) {
	j.mu.Lock()
	defer j.mu.Unlock()
	head = j.head
	for r := head; r != nil; r = r.next {
		r.pending = false
	}
	j.head, j.tail, j.pending = nil, nil, 0
	orphans = j.orphans
	j.orphans = nil
	return
}

// Replay is the recovery reader: it re-forwards everything a dead stager
// still owed its consumers — journaled blocks, resident ones from memory and
// overflowed ones read back from the journal's segment log, journaled disk
// refs and Fins with their declared totals, and the orphaned messages the
// dead receiver never admitted — and then retires the log. Call it once the
// dead endpoint's threads have exited. Journal admission order is preserved;
// counted stream termination makes cross-producer interleaving irrelevant.
// An overflowed block whose log record cannot be read back is declared via
// Message.Lost to its destination so the stream still terminates. Returns
// the blocks re-forwarded (journal + orphans), the orphan messages re-sent,
// and the blocks declared lost.
//
// The store argument is unused — the journal opened its log in the stager's
// spill partition when the stager started — and stays only because the
// benchmark driver (bench/, frozen for this change) calls Replay with it.
func Replay(c rt.Ctx, j *Journal, _ rt.BlockStore, tr rt.Transport) (replayed, orphans, lost int64) {
	head, orphaned := j.drain()
	lostByDest := map[int]int64{}
	for r := head; r != nil; {
		next := r.next
		r.prev, r.next = nil, nil
		if !r.isBlock {
			tr.Send(c, r.dest, rt.Message{From: r.from, Dest: r.dest, Disk: r.disk,
				Fin: r.fin, FinBlocks: r.finBlocks, FinDisk: r.finDisk})
		} else if b, err := j.read(c, r); err != nil {
			lostByDest[r.dest]++
			lost++
		} else {
			tr.Send(c, r.dest, rt.Message{From: r.from, Dest: r.dest, Blocks: []*block.Block{b}})
			replayed++
		}
		j.release(c, r)
		r.b = nil // the consumer's now
		r = next
	}
	for _, m := range orphaned {
		tr.Send(c, m.Dest, m)
		replayed += int64(len(m.Blocks))
		orphans++
	}
	// Unrecoverable blocks still count against the Fins' declared totals.
	dests := make([]int, 0, len(lostByDest))
	for d := range lostByDest {
		dests = append(dests, d)
	}
	sort.Ints(dests)
	for _, d := range dests {
		tr.Send(c, d, rt.Message{Dest: d, Lost: lostByDest[d]})
	}
	j.close(c)
	return
}
