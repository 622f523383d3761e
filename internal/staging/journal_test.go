package staging

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"zipper/internal/block"
	"zipper/internal/core"
	"zipper/internal/reduce"
	"zipper/internal/rt"
	"zipper/internal/rt/realenv"
)

// walRig is one journaling, pool-managed stager (endpoint 1) in front of a
// consumer endpoint (0) whose one-message window the test drains by hand, so
// a test decides how much the stager still owes when it kills it.
type walRig struct {
	t       *testing.T
	env     *realenv.Env
	c       rt.Ctx
	net     *realenv.Network
	root    *realenv.FileStore
	spill   *realenv.FileStore // the stager's spill partition
	journal *Journal
	st      *Stager
	spawned []*Stager        // every instance, for shutdown
	arrived []int            // sequence numbers in the order drain saw them
	cons    []*core.Consumer // consumers a test put on endpoint 0
}

func newWalRig(t *testing.T, cfg Config) *walRig {
	t.Helper()
	root, err := realenv.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &walRig{t: t, env: realenv.New(), net: realenv.NewNetwork(2, 1), root: root}
	r.c = r.env.Ctx()
	t.Cleanup(r.shutdown)
	r.journal, r.st = r.spawn(cfg)
	return r
}

// consumer puts a runtime consumer on endpoint 0, expecting one producer.
func (r *walRig) consumer(ccfg core.Config) *core.Consumer {
	ccfg.Recycler = block.NewRecycler(ccfg.MaxBatchBlocks)
	cons := core.NewConsumer(r.env, ccfg, 0, 1, r.net.Inbox(0), r.root)
	r.cons = append(r.cons, cons)
	return cons
}

// shutdown is the rig's t.Cleanup: a test that ends in t.Fatal must not
// leave stager threads running into the tests after it (see rig.shutdown).
// Every instance still running is evicted — with endpoint 0 drained
// meanwhile, so a forwarder parked on its window can see the kill — and a
// test's consumers are read for as long as they deliver.
func (r *walRig) shutdown() {
	joinWithin(r.t, "walRig", func() {
		for _, cons := range r.cons {
			go func() {
				for x := r.env.Ctx(); ; {
					if _, ok := cons.Read(x); !ok {
						return
					}
				}
			}()
		}
		var wait func() (map[int]*block.Block, int64)
		if len(r.cons) == 0 {
			wait = r.drain(nil)
		}
		for _, st := range r.spawned {
			if !st.Drained(r.c) {
				r.evict(st)
			}
		}
		if wait != nil {
			wait()
		}
	})
}

// spawn starts a stager instance with a fresh journal on the rig's one
// slot, the way a job (re)spawns: a new Partition call on the same name.
func (r *walRig) spawn(cfg Config) (*Journal, *Stager) {
	r.t.Helper()
	spill, err := r.root.Partition("stage0")
	if err != nil {
		r.t.Fatal(err)
	}
	r.spill = spill
	cfg.Managed = true
	cfg.Journal = NewJournal()
	st := NewStager(r.env, cfg, 0, r.net.Inbox(1), r.net, spill)
	r.spawned = append(r.spawned, st)
	return cfg.Journal, st
}

// walPayload is block seq's payload: recognizable, and different per seq.
func walPayload(seq, size int) []byte {
	data := block.GetPayload(size)
	for i := range data {
		data[i] = byte(seq*131 + i*7)
	}
	return data
}

// send relays blocks [from, to) of `size` bytes through the stager in
// messages of `batch`; every fifth block travels encoded, as a
// producer-side reduction would send it.
func (r *walRig) send(from, to, batch, size int) {
	enc := reduce.NewEncoder(reduce.Config{Operator: reduce.Compress})
	for seq := from; seq < to; {
		m := rt.Message{From: 0, Dest: 0}
		for k := 0; k < batch && seq < to; k, seq = k+1, seq+1 {
			b := block.New(block.ID{Rank: 0, Step: 1, Seq: seq}, int64(seq)*int64(size), walPayload(seq, size))
			if seq%5 == 4 {
				if err := enc.EncodeBlock(b); err != nil {
					r.t.Fatal(err)
				}
			}
			m.Blocks = append(m.Blocks, b)
		}
		r.net.Send(r.c, 1, m)
	}
}

func (r *walRig) waitAdmitted(st *Stager, blocks int64) {
	r.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for st.Stats(r.c).BlocksIn < blocks {
		if time.Now().After(deadline) {
			r.t.Fatalf("stager admitted %d of %d blocks", st.Stats(r.c).BlocksIn, blocks)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitSpilledDownTo waits until the spiller has brought the buffer down to
// its high-water mark.
func (r *walRig) waitSpilledDownTo(highWater int) {
	r.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if q, _ := r.st.Level().Get(); q <= highWater {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatal("spiller never brought the buffer under its high-water mark")
		}
	}
}

// drain collects everything arriving at the consumer endpoint until a
// Retire marker, starting once hold is closed (nil: at once); wait returns
// the blocks by sequence number and the Lost total. A block that arrives
// twice fails the test.
func (r *walRig) drain(hold <-chan struct{}) (wait func() (map[int]*block.Block, int64)) {
	got := map[int]*block.Block{}
	var lost int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if hold != nil {
			<-hold
		}
		in := r.net.Inbox(0)
		for {
			m, ok := in.Recv(r.c)
			if !ok || m.Retire {
				return
			}
			lost += m.Lost
			for _, b := range m.Blocks {
				if got[b.ID.Seq] != nil {
					r.t.Errorf("block %v delivered twice", b.ID)
				}
				got[b.ID.Seq] = b
			}
		}
	}()
	return func() (map[int]*block.Block, int64) {
		r.net.Send(r.c, 0, rt.Message{Retire: true})
		wg.Wait()
		return got, lost
	}
}

// evict does what the failure detector's host does to a dead occupant:
// fence, release the dead-mode receiver, join.
func (r *walRig) evict(st *Stager) {
	st.Kill(r.c)
	if st.NeedsRetire(r.c) {
		r.net.Send(r.c, 1, rt.Message{Retire: true})
	}
	st.Wait(r.c)
}

// checkExact compares delivered blocks [from, to) with what send relayed.
func (r *walRig) checkExact(got map[int]*block.Block, from, to, size int) {
	r.t.Helper()
	dec := reduce.NewDecoder()
	for seq := from; seq < to; seq++ {
		b := got[seq]
		if b == nil {
			r.t.Fatalf("block %d never arrived", seq)
		}
		if b.OnDisk {
			r.t.Fatalf("block %d marked OnDisk: the log copy is private to the stager", seq)
		}
		if (b.Enc != 0) != (seq%5 == 4) {
			r.t.Fatalf("block %d arrived with Enc=%d", seq, b.Enc)
		}
		if err := dec.DecodeBlock(b); err != nil {
			r.t.Fatalf("block %d: %v", seq, err)
		}
		if want := walPayload(seq, size); !bytes.Equal(b.Data, want) || b.Offset != int64(seq)*int64(size) || b.Bytes != int64(size) {
			r.t.Fatalf("block %d not byte-exact after the log round trip (offset %d, %d bytes)", seq, b.Offset, b.Bytes)
		}
	}
}

func (r *walRig) segFiles() []string {
	names, err := filepath.Glob(filepath.Join(r.spill.Dir(), "wal-*.seg"))
	if err != nil {
		r.t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

func (r *walRig) partitionEmpty() {
	r.t.Helper()
	ents, err := os.ReadDir(r.spill.Dir())
	if err != nil {
		r.t.Fatal(err)
	}
	if len(ents) != 0 {
		r.t.Fatalf("spill partition holds %d entries, want none (first: %s)", len(ents), ents[0].Name())
	}
}

// TestKillReplaySpansSegments is the realenv crash drill on the segment log:
// a stager whose consumer is stalled admits 15 MiB — four segments — with
// most payloads dropped from memory by the fault-mode spiller and the rest
// resident, is killed, and the recovery reader must re-forward every block
// byte-exact (raw and reduced), lose none, and leave the partition empty.
func TestKillReplaySpansSegments(t *testing.T) {
	const blocks, batch, size = 240, 8, 64 << 10
	r := newWalRig(t, Config{BufferBlocks: 32, MaxBatchBlocks: batch})
	r.send(0, blocks, batch, size)
	r.waitAdmitted(r.st, blocks)

	if segs := r.segFiles(); len(segs) < 2 {
		t.Fatalf("%d MiB admitted into %d segment files, want ≥ 2", blocks*size>>20, len(segs))
	}
	st := r.st.Stats(r.c)
	if st.BlocksSpilled == 0 || st.Queued == 0 {
		t.Fatalf("want both dropped-payload and resident blocks at the kill: spilled=%d resident=%d", st.BlocksSpilled, st.Queued)
	}
	if ents, _ := os.ReadDir(r.spill.Dir()); len(ents) != len(r.segFiles()) {
		t.Fatalf("partition holds %d entries but %d segments: the log is not the only write-ahead path", len(ents), len(r.segFiles()))
	}
	pending, _ := pendingOf(r.c, r.journal)
	if pending < blocks-2*batch {
		t.Fatalf("journal holds %d records with the consumer stalled, want nearly all %d", pending, blocks)
	}

	wait := r.drain(nil)
	r.evict(r.st)
	replayed, _, lost := Replay(r.c, r.journal, r.spill, r.net)
	got, declared := wait()
	if lost != 0 || declared != 0 {
		t.Fatalf("replay lost %d blocks (declared %d), want 0", lost, declared)
	}
	if replayed == 0 || len(got) != blocks {
		t.Fatalf("%d blocks arrived (%d replayed), want %d", len(got), replayed, blocks)
	}
	r.checkExact(got, 0, blocks, size)
	if n, o := pendingOf(r.c, r.journal); n != 0 || o != 0 {
		t.Fatalf("journal still owes %d records, %d orphans after replay", n, o)
	}
	r.partitionEmpty()
	if again, _, _ := Replay(r.c, r.journal, r.spill, r.net); again != 0 {
		t.Fatalf("second replay re-sent %d blocks", again)
	}
}

// TestKillReplayKeepsAdmissionOrder is the kill sweep's real-platform leg
// for the state every overflow leaves: one producer's stream partly resident
// and partly in the log. Whatever the forwarder delivered before the kill,
// whatever the replay re-sends from memory and whatever it reads back must
// reach the consumer as one ascending sequence — admission order — with
// nothing lost or doubled, and the replay must really have used both sources.
func TestKillReplayKeepsAdmissionOrder(t *testing.T) {
	const blocks, batch, size = 96, 8, 16 << 10
	r := newWalRig(t, Config{BufferBlocks: 32, MaxBatchBlocks: batch})
	r.send(0, blocks, batch, size)
	r.waitAdmitted(r.st, blocks)
	r.waitSpilledDownTo(24)
	logged, resident := r.loggedRecords()
	if len(logged) == 0 || resident == 0 {
		t.Fatalf("%d records logged, %d resident at the kill: the scenario needs both", len(logged), resident)
	}
	// Hold the consumer until the kill is in: a forwarder that drained its
	// queue first would leave the replay nothing to stitch.
	crashed := make(chan struct{})
	wait := r.drain(crashed)
	r.st.Kill(r.c)
	close(crashed)
	r.evict(r.st)
	replayed, _, lost := Replay(r.c, r.journal, r.spill, r.net)
	got, declared := wait()
	if lost != 0 || declared != 0 || len(got) != blocks {
		t.Fatalf("%d of %d blocks arrived, %d lost (%d declared)", len(got), blocks, lost, declared)
	}
	// The batch parked in the forwarder's Send is journaled too, and is
	// delivered by that Send, not by the replay.
	if replayed < int64(len(logged)+resident-batch) {
		t.Fatalf("replay re-sent %d blocks, the journal owed %d logged + %d resident", replayed, len(logged), resident)
	}
	for i, seq := range r.arrived {
		if seq != i {
			t.Fatalf("arrival %d is block %d: the stream left admission order (%v)", i, seq, r.arrived)
		}
	}
	r.checkExact(got, 0, blocks, size)
	r.partitionEmpty()
}

// TestRespawnBeforePredecessorReplay: a replacement stager starts on the
// same slot — same partition, own journal — while the dead instance's
// records are still unreplayed, relays its own traffic and drains cleanly.
// Its log must not have touched the predecessor's segments: the late replay
// still recovers every block.
func TestRespawnBeforePredecessorReplay(t *testing.T) {
	const first, second, batch, size = 96, 160, 8, 32 << 10
	r := newWalRig(t, Config{BufferBlocks: 32, MaxBatchBlocks: batch})
	r.send(0, first, batch, size)
	r.waitAdmitted(r.st, first)
	// The crash must land while the instance still owes blocks, however fast
	// the forwarder is: hold the consumer, so the forwarder sits behind its
	// one-message window, until the kill is in. (Only then may the consumer
	// drain — the forwarder's in-flight Send has to complete before it can
	// see the kill and exit.)
	crashed := make(chan struct{})
	wait := r.drain(crashed)
	r.st.Kill(r.c)
	close(crashed)
	r.evict(r.st)
	owed, _ := pendingOf(r.c, r.journal)
	if owed == 0 {
		t.Fatal("the dead instance owes nothing: the scenario needs unreplayed records")
	}
	oldSegs := r.segFiles()

	_, next := r.spawn(Config{BufferBlocks: 32, MaxBatchBlocks: batch})
	r.send(first, first+second, batch, size)
	r.net.Send(r.c, 1, rt.Message{Retire: true})
	next.Wait(r.c)
	if err := next.Err(r.c); err != nil {
		t.Fatal(err)
	}
	// The successor drained cleanly and retired its own segments — and only
	// its own.
	if left := r.segFiles(); len(left) != len(oldSegs) {
		t.Fatalf("after the successor's clean drain the partition holds %v, want the predecessor's %v", left, oldSegs)
	}

	replayed, _, lost := Replay(r.c, r.journal, r.spill, r.net)
	got, _ := wait()
	if lost != 0 || replayed != int64(owed) {
		t.Fatalf("late replay: %d replayed, %d lost, want %d / 0", replayed, lost, owed)
	}
	if len(got) != first+second {
		t.Fatalf("%d blocks arrived, want %d", len(got), first+second)
	}
	r.checkExact(got, 0, first+second, size)
	r.partitionEmpty()
}

// loggedRecords snapshots where the log holds the queued blocks it holds,
// oldest first, and counts the ones still resident.
func (r *walRig) loggedRecords() (logged []rt.LogRef, resident int) {
	s := r.journal.s
	s.lk.Lock(r.c)
	defer s.lk.Unlock(r.c)
	for _, sl := range s.queue {
		for _, rb := range sl.blocks {
			if rb.spilled {
				logged = append(logged, rb.ref)
			} else {
				resident++
			}
		}
	}
	return logged, resident
}

// pendingOf reports what a crash right now would owe the recovery reader: a
// record per queued block and per queued slot's disk refs, and the
// orphans (read only once the instance's receiver has exited).
func pendingOf(c rt.Ctx, j *Journal) (records, orphans int) {
	s := j.s
	s.lk.Lock(c)
	defer s.lk.Unlock(c)
	for _, sl := range s.queue {
		records += len(sl.blocks)
		if len(sl.disk) > 0 {
			records++
		}
	}
	return records, len(j.orphans)
}

// corruptRecord flips one payload byte of the log record at ref.
func (r *walRig) corruptRecord(ref rt.LogRef) {
	r.t.Helper()
	names, err := filepath.Glob(filepath.Join(r.spill.Dir(), fmt.Sprintf("wal-*-%d.seg", ref.Seg)))
	if err != nil || len(names) != 1 {
		r.t.Fatalf("segment %d: files %v (%v), want exactly one", ref.Seg, names, err)
	}
	f, err := os.OpenFile(names[0], os.O_RDWR, 0)
	if err != nil {
		r.t.Fatal(err)
	}
	defer f.Close()
	at := ref.Off + rt.RecordHeaderBytes + ref.Len/2
	var one [1]byte
	if _, err := f.ReadAt(one[:], at); err != nil {
		r.t.Fatal(err)
	}
	one[0] ^= 0x40
	if _, err := f.WriteAt(one[:], at); err != nil {
		r.t.Fatal(err)
	}
}

// TestCorruptSegmentDeclaredLost pins what the log holds and what happens
// when it rots. A stalled consumer makes the stager absorb a 120-block
// stream into a 32-block buffer, so the spiller overflows most of it: the
// log then holds exactly the evicted blocks — the ones still in memory are
// journaled by reference and appear in no segment. Two of the logged records
// get a flipped byte. Whether they are re-read by the live forwarder or,
// after a kill, by the recovery reader, the read fails its checksum, the
// two blocks are declared via Message.Lost, and the consumer's counted
// stream still terminates with everything else — every resident block
// included — delivered intact.
func TestCorruptSegmentDeclaredLost(t *testing.T) {
	for _, tc := range []struct {
		name string
		kill bool
	}{{"forwarder", false}, {"replay", true}} {
		t.Run(tc.name, func(t *testing.T) {
			const blocks, batch, size = 120, 8, 64 << 10
			r := newWalRig(t, Config{BufferBlocks: 32, MaxBatchBlocks: batch})
			cons := r.consumer(core.Config{ConsumerBufferBlocks: 2})
			// The producer's Fin goes direct and declares the whole stream;
			// sent first, it finds room in the consumer's one-message window
			// before the relayed blocks fill it.
			r.net.Send(r.c, 0, rt.Message{From: 0, Dest: 0, Fin: true, FinBlocks: blocks})
			r.send(0, blocks, batch, size)
			r.waitAdmitted(r.st, blocks)
			r.waitSpilledDownTo(24)

			logged, resident := r.loggedRecords()
			if len(logged) < blocks/2 || resident == 0 {
				t.Fatalf("%d records logged, %d resident: want most of the stream overflowed and the head still in memory",
					len(logged), resident)
			}
			var logBytes int64
			for _, ref := range logged {
				logBytes += rt.RecordHeaderBytes + ref.Len
			}
			var fileBytes int64
			for _, seg := range r.segFiles() {
				fi, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				fileBytes += fi.Size()
			}
			if fileBytes != logBytes {
				t.Fatalf("segment files hold %d bytes, the %d overflowed records %d: the log took something besides the overflow",
					fileBytes, len(logged), logBytes)
			}
			r.corruptRecord(logged[1])
			r.corruptRecord(logged[len(logged)-2])

			if tc.kill {
				go func() {
					r.evict(r.st)
					Replay(r.c, r.journal, r.spill, r.net)
				}()
			} else {
				defer func() {
					r.net.Send(r.c, 1, rt.Message{Retire: true})
					r.st.Wait(r.c)
					if r.st.Err(r.c) == nil {
						t.Error("stager reported no error despite unreadable log records")
					}
				}()
			}
			received := 0
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					b, ok := cons.Read(r.c)
					if !ok {
						return
					}
					if want := walPayload(b.ID.Seq, size); !bytes.Equal(b.Data, want) {
						t.Errorf("block %v delivered corrupted", b.ID)
					}
					received++
				}
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("stream with corrupted log records never terminated")
			}
			cons.Wait(r.c)
			cs := cons.Stats()
			if cs.BlocksLost != 2 || received != blocks-2 {
				t.Fatalf("received %d blocks, %d declared lost; want %d / 2", received, cs.BlocksLost, blocks-2)
			}
		})
	}
}
