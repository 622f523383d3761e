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
}

func newWalRig(t *testing.T, cfg Config) *walRig {
	t.Helper()
	root, err := realenv.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &walRig{t: t, env: realenv.New(), net: realenv.NewNetwork(2, 1), root: root}
	r.c = r.env.Ctx()
	r.journal, r.st = r.spawn(cfg)
	return r
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
	return cfg.Journal, NewStager(r.env, cfg, 0, r.net.Inbox(1), r.net, spill)
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
	pending, _ := r.journal.Pending()
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
	if n, o := r.journal.Pending(); n != 0 || o != 0 {
		t.Fatalf("journal still owes %d records, %d orphans after replay", n, o)
	}
	r.partitionEmpty()
	if again, _, _ := Replay(r.c, r.journal, r.spill, r.net); again != 0 {
		t.Fatalf("second replay re-sent %d blocks", again)
	}
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
	owed, _ := r.journal.Pending()
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

// TestCorruptSegmentDeclaredLost flips bytes inside two records of a segment
// under a stalled stream. Whether the records are re-read by the live
// forwarder (their payloads were dropped from memory) or, after a kill, by
// the recovery reader, the read fails its checksum, the blocks are declared
// via Message.Lost, and the consumer's counted stream still terminates with
// everything else delivered.
func TestCorruptSegmentDeclaredLost(t *testing.T) {
	for _, tc := range []struct {
		name string
		kill bool
	}{{"forwarder", false}, {"replay", true}} {
		t.Run(tc.name, func(t *testing.T) {
			const blocks, batch, size = 120, 8, 64 << 10
			r := newWalRig(t, Config{BufferBlocks: 32, MaxBatchBlocks: batch})
			ccfg := core.Config{ConsumerBufferBlocks: 2}
			cons := core.NewConsumer(r.env, ccfg, 0, 1, r.net.Inbox(0), r.root)
			r.send(0, blocks, batch, size)
			r.net.Send(r.c, 1, rt.Message{From: 0, Dest: 0, Fin: true, FinBlocks: blocks})
			r.waitAdmitted(r.st, blocks)
			// Let the spiller finish dropping the newest payloads.
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				if q, _ := r.st.Occupancy(); q <= 24 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("spiller never brought the buffer under its high-water mark")
				}
			}

			// The newest segment holds the newest blocks: undelivered, and —
			// the spiller drops newest first — not resident either. Records
			// of raw blocks there are fixed-size, so records 0 and 1 start at
			// multiples of header+size... unless one is the encoded fifth;
			// corrupting by offset inside the first two raw-sized slots hits
			// two distinct records either way.
			segs := r.segFiles()
			if len(segs) < 2 {
				t.Fatalf("%d segment files, want ≥ 2", len(segs))
			}
			victim := newestSegment(t, segs)
			raw, err := os.ReadFile(victim)
			if err != nil {
				t.Fatal(err)
			}
			raw[rt.RecordHeaderBytes+100] ^= 0x40
			raw[2*(rt.RecordHeaderBytes+size)-200] ^= 0x40
			if err := os.WriteFile(victim, raw, 0o644); err != nil {
				t.Fatal(err)
			}

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
			cs := cons.Stats(r.c)
			if cs.BlocksLost != 2 || received != blocks-2 {
				t.Fatalf("received %d blocks, %d declared lost; want %d / 2", received, cs.BlocksLost, blocks-2)
			}
		})
	}
}

// newestSegment picks the segment file with the highest segment number.
func newestSegment(t *testing.T, segs []string) string {
	t.Helper()
	best, bestN := "", -1
	for _, s := range segs {
		var gen, n int
		if _, err := fmt.Sscanf(filepath.Base(s), "wal-%d-%d.seg", &gen, &n); err != nil {
			t.Fatalf("unexpected segment file name %q", s)
		}
		if n > bestN {
			best, bestN = s, n
		}
	}
	return best
}

// TestJournalKeepsOnlyUndelivered runs 100,000 admit→deliver cycles with a
// bounded number of messages in flight: the journal must hold exactly the
// in-flight records at every step — nothing delivered is retained — and
// Pending must not have to walk anything.
func TestJournalKeepsOnlyUndelivered(t *testing.T) {
	fs, err := realenv.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := realenv.New().Ctx()
	j := NewJournal()
	j.open(fs)
	const cycles, inFlight = 100_000, 8
	payload := make([]byte, 512)
	type admitted struct {
		recs []Record
		meta *Record
	}
	var window []admitted
	listLen := func() int {
		j.mu.Lock()
		defer j.mu.Unlock()
		n := 0
		for r := j.head; r != nil; r = r.next {
			n++
		}
		return n
	}
	for i := 0; i < cycles; i++ {
		blocks := []*block.Block{
			block.New(block.ID{Step: i, Seq: 0}, 0, payload),
			block.New(block.ID{Step: i, Seq: 1}, 0, payload),
		}
		a := admitted{recs: j.admitBlocks(c, 0, 0, blocks)}
		if i%10 == 0 {
			a.meta = j.addMeta(0, 0, []rt.DiskRef{{}}, false, 0, 0)
		}
		window = append(window, a)
		if len(window) > inFlight {
			old := window[0]
			window = window[1:]
			for k := range old.recs {
				j.deliver(c, &old.recs[k])
			}
			if old.meta != nil {
				j.deliver(c, old.meta)
			}
		}
		want := 0
		for _, a := range window {
			want += len(a.recs)
			if a.meta != nil {
				want++
			}
		}
		if got, _ := j.Pending(); got != want {
			t.Fatalf("cycle %d: Pending = %d, want the %d in-flight records", i, got, want)
		}
		if i%5000 == 0 {
			if n := listLen(); n != want {
				t.Fatalf("cycle %d: the journal retains %d records, want the %d in flight", i, n, want)
			}
		}
	}
	for _, a := range window {
		for k := range a.recs {
			j.deliver(c, &a.recs[k])
			j.deliver(c, &a.recs[k]) // a second delivery is a no-op
		}
		if a.meta != nil {
			j.deliver(c, a.meta)
		}
	}
	if n, _ := j.Pending(); n != 0 || listLen() != 0 {
		t.Fatalf("journal retains %d records (%d linked) with nothing in flight", n, listLen())
	}
	// 100 MB went through the log; everything was released.
	if segs, _ := filepath.Glob(filepath.Join(fs.Dir(), "wal-*.seg")); len(segs) > 2 {
		t.Fatalf("%d segment files with nothing in flight", len(segs))
	}
	j.close(c)
	if ents, _ := os.ReadDir(fs.Dir()); len(ents) != 0 {
		t.Fatalf("%d entries left after close", len(ents))
	}
}

// TestDeliverAfterDrainIsNoop: a record the replay has taken is no longer
// pending, so a late delivery of it neither re-links the drained chain nor
// drives the pending count negative nor releases its log space twice.
func TestDeliverAfterDrainIsNoop(t *testing.T) {
	fs, err := realenv.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := realenv.New().Ctx()
	j := NewJournal()
	j.open(fs)
	payload := make([]byte, 512)
	recs := j.admitBlocks(c, 0, 0, []*block.Block{
		block.New(block.ID{Seq: 0}, 0, payload),
		block.New(block.ID{Seq: 1}, 0, payload),
		block.New(block.ID{Seq: 2}, 0, payload),
	})
	head, _ := j.drain()
	if head != &recs[0] {
		t.Fatal("drain did not return the oldest record")
	}
	j.deliver(c, &recs[1])
	j.deliver(c, &recs[0])
	if n, _ := j.Pending(); n != 0 || j.head != nil || j.tail != nil {
		t.Fatalf("late delivery disturbed the drained journal: pending %d, head %p, tail %p", n, j.head, j.tail)
	}
	n := 0
	for r := head; r != nil; r = r.next {
		b, err := j.read(c, r)
		if err != nil {
			t.Fatalf("record %d unreadable after a late delivery: %v", n, err)
		}
		b.Release()
		n++
	}
	if n != len(recs) {
		t.Fatalf("drained chain holds %d records, want %d", n, len(recs))
	}
	j.close(c)
}
