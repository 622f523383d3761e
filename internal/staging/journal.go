// The journal of what a fault-protected stager still owes its consumers, and
// its replay reader.
//
// What survives an endpoint's death is the stopped instance itself — its
// queue and its segment log — and the orphans its dead receiver drained. The
// Journal is the embedder's handle on them, one per stager instance. The
// queue already is the manifest: every admitted, undelivered block sits in
// it in admission order, resident (the *block.Block by reference, exactly as
// AddOrphan keeps the messages a dead receiver drains) or spilled to the log
// with the place the log holds it (segment, offset, length), and every slot
// keeps its disk refs and Fin with their declared delivery totals until its
// last block is sent. The segment log, opened in the stager's spill
// partition, takes a payload only when the spiller evicts it from memory (up
// to MaxBatchBlocks victims in one append), and delivery releases that space.
// After a crash the recovery reader (Replay) re-forwards what the queue still
// holds — resident blocks from memory, spilled ones read back and
// checksum-verified — and counted per-destination Fin accounting balances
// without the consumers ever learning a relay died. Message.Lost is the
// fallback for the genuinely unrecoverable case: a spilled block whose log
// record cannot be read back.
//
// Not covered: the death of the process. The queue is the log's only index,
// the log is not fsynced, and Close unlinks it.

package staging

import (
	"sort"

	"zipper/internal/block"
	"zipper/internal/rt"
)

// Journal is the embedder's handle on one stager instance's crash state: the
// instance, its segment log and the orphans its dead receiver drained. The
// embedder owns it (it must outlive the endpoint) and hands it to the Stager
// via Config.Journal; the recovery path reads it back with Replay once the
// instance's threads have exited.
type Journal struct {
	s       *Stager     // the instance the journal was handed to
	log     rt.BlockLog // opened by that instance in its spill partition
	orphans []rt.Message
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{} }

// AddOrphan records a whole message the dead endpoint's receiver never
// admitted — drained after the crash, or waiting for buffer room when it
// landed — blocks still in memory. The recovery reader re-sends it verbatim.
// Only the instance's receiver thread calls it.
func (j *Journal) AddOrphan(m rt.Message) { j.orphans = append(j.orphans, m) }

// Replay is the recovery reader: it re-forwards everything a dead stager
// still owed its consumers — what its queue holds, slot by slot in admission
// order: each remaining block as a message of its own, resident ones from
// memory and spilled ones read back from the segment log, then the slot's
// disk refs and Fin with their declared totals — then the orphaned messages
// the dead receiver never admitted, and retires the log. Call it once the
// dead endpoint's threads have exited (Stager.Wait); a second call finds
// nothing. Counted stream termination makes cross-producer interleaving
// irrelevant. A spilled block whose log record cannot be read back is
// declared via Message.Lost to its destination so the stream still
// terminates. Returns the blocks re-forwarded (queue + orphans), the orphan
// messages re-sent, and the blocks declared lost.
//
// The store argument is unused — the stager opened its log in its spill
// partition when it started — and stays because the benchmark driver
// (bench/) calls Replay with it.
func Replay(c rt.Ctx, j *Journal, _ rt.BlockStore, tr rt.Transport) (replayed, orphans, lost int64) {
	s := j.s
	queue, orphaned := s.queue, j.orphans
	s.queue, j.orphans = nil, nil
	lostByDest := map[int]int64{}
	for _, sl := range queue {
		for _, rb := range sl.blocks {
			b := rb.b
			if rb.spilled {
				var err error
				if b, err = s.unspill(c, rb); err != nil {
					lostByDest[sl.dest]++
					lost++
					j.log.Release(c, rb.ref)
					continue
				}
			}
			tr.Send(c, sl.dest, rt.Message{From: sl.from, Dest: sl.dest, Blocks: []*block.Block{b}})
			replayed++
			if rb.spilled {
				j.log.Release(c, rb.ref)
			}
		}
		if len(sl.disk) > 0 || sl.fin {
			tr.Send(c, sl.dest, rt.Message{From: sl.from, Dest: sl.dest, Disk: sl.disk,
				Fin: sl.fin, FinBlocks: sl.finBlocks, FinDisk: sl.finDisk})
		}
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
	j.log.Close(c)
	return
}
