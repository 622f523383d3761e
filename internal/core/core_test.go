package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"zipper/internal/block"
	"zipper/internal/floatbuf"
	"zipper/internal/rt"
	"zipper/internal/rt/realenv"
)

// --- real-platform tests ---

type realRig struct {
	env  *realenv.Env
	net  *realenv.Network
	fs   *realenv.FileStore
	prod []*Producer
	cons []*Consumer
}

func newRealRig(t *testing.T, cfg Config, producers, consumers, window int) *realRig {
	t.Helper()
	env := realenv.New()
	net := realenv.NewNetwork(consumers, window)
	fs, err := realenv.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &realRig{env: env, net: net, fs: fs}
	for i := 0; i < consumers; i++ {
		n := 0
		for p := 0; p < producers; p++ {
			if p*consumers/producers == i {
				n++
			}
		}
		r.cons = append(r.cons, NewConsumer(env, cfg, i, n, net.Inbox(i), fs))
	}
	for p := 0; p < producers; p++ {
		r.prod = append(r.prod, NewProducer(env, cfg, p, p*consumers/producers, net, fs))
	}
	return r
}

func TestRealRoundTrip(t *testing.T) {
	r := newRealRig(t, Config{Recycler: block.NewRecycler(0), BufferBlocks: 4}, 2, 1, 4)
	c := r.env.Ctx()

	const blocksPerProducer = 10
	var wg sync.WaitGroup
	for _, p := range r.prod {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < blocksPerProducer; s++ {
				data := floatbuf.Encode([]float64{float64(p.Rank()), float64(s)})
				p.Write(c, s, int64(s*16), data, int64(len(data)))
			}
			p.Close(c)
			p.Wait(c)
		}()
	}

	got := map[block.ID][]float64{}
	for {
		b, ok := r.cons[0].Read(c)
		if !ok {
			break
		}
		got[b.ID] = floatbuf.Decode(b.Data)
	}
	wg.Wait()
	r.cons[0].Wait(c)

	if len(got) != 2*blocksPerProducer {
		t.Fatalf("received %d blocks, want %d", len(got), 2*blocksPerProducer)
	}
	for id, vals := range got {
		if len(vals) != 2 || vals[0] != float64(id.Rank) || vals[1] != float64(id.Step) {
			t.Fatalf("block %v payload corrupted: %v", id, vals)
		}
	}
	if err := r.cons[0].Err(c); err != nil {
		t.Fatal(err)
	}
}

func TestRealStealingUnderSlowConsumer(t *testing.T) {
	cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: 4, HighWater: 2}
	r := newRealRig(t, cfg, 1, 1, 1)
	c := r.env.Ctx()
	p := r.prod[0]

	const n = 40
	go func() {
		for s := 0; s < n; s++ {
			p.Write(c, s, 0, make([]byte, 1024), 1024)
		}
		p.Close(c)
	}()

	seen := 0
	for {
		b, ok := r.cons[0].Read(c)
		if !ok {
			break
		}
		if b.Bytes != 1024 {
			t.Fatalf("block %v has %d bytes", b.ID, b.Bytes)
		}
		seen++
		time.Sleep(2 * time.Millisecond) // slow analysis
	}
	p.Wait(c)
	r.cons[0].Wait(c)

	if seen != n {
		t.Fatalf("analyzed %d blocks, want %d", seen, n)
	}
	ps := p.Stats()
	if ps.BlocksStolen == 0 {
		t.Fatal("slow consumer never triggered stealing")
	}
	if ps.BlocksSent+ps.BlocksStolen != n {
		t.Fatalf("sent %d + stolen %d != %d", ps.BlocksSent, ps.BlocksStolen, n)
	}
	cs := r.cons[0].Stats()
	if cs.BlocksRead != ps.BlocksStolen {
		t.Fatalf("disk reads %d != steals %d", cs.BlocksRead, ps.BlocksStolen)
	}
}

func TestRealDisableStealNeverSpills(t *testing.T) {
	cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: 4, DisableSteal: true}
	r := newRealRig(t, cfg, 1, 1, 1)
	c := r.env.Ctx()
	p := r.prod[0]
	go func() {
		for s := 0; s < 20; s++ {
			p.Write(c, s, 0, make([]byte, 512), 512)
		}
		p.Close(c)
	}()
	n := 0
	for {
		_, ok := r.cons[0].Read(c)
		if !ok {
			break
		}
		n++
		time.Sleep(time.Millisecond)
	}
	p.Wait(c)
	if n != 20 {
		t.Fatalf("analyzed %d, want 20", n)
	}
	if s := p.Stats(); s.BlocksStolen != 0 {
		t.Fatalf("stolen %d with stealing disabled", s.BlocksStolen)
	}
}

func TestRealPreserveStoresEveryBlock(t *testing.T) {
	cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: 4, Mode: Preserve}
	r := newRealRig(t, cfg, 1, 1, 2)
	c := r.env.Ctx()
	p := r.prod[0]
	const n = 12
	go func() {
		for s := 0; s < n; s++ {
			p.Write(c, s, 0, floatbuf.Encode([]float64{float64(s)}), 8)
		}
		p.Close(c)
	}()
	for {
		if _, ok := r.cons[0].Read(c); !ok {
			break
		}
	}
	p.Wait(c)
	r.cons[0].Wait(c)

	// Every block must be readable back from the store, whether it traveled
	// by network (output thread stored it) or by disk (writer spilled it).
	for s := 0; s < n; s++ {
		id := block.ID{Rank: 0, Step: s, Seq: s}
		b, err := r.fs.ReadBlock(c, id, 8)
		if err != nil {
			t.Fatalf("block %v not preserved: %v", id, err)
		}
		if vals := floatbuf.Decode(b.Data); vals[0] != float64(s) {
			t.Fatalf("preserved block %v corrupt: %v", id, vals)
		}
	}
	cs := r.cons[0].Stats()
	if ps := p.Stats(); cs.BlocksStored+ps.BlocksStolen != n {
		t.Fatalf("stored %d + spilled %d != %d", cs.BlocksStored, ps.BlocksStolen, n)
	}
}

func TestRealManyToMany(t *testing.T) {
	cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: 8}
	const producers, consumers, steps = 6, 3, 15
	r := newRealRig(t, cfg, producers, consumers, 4)
	c := r.env.Ctx()

	for _, p := range r.prod {
		p := p
		go func() {
			for s := 0; s < steps; s++ {
				p.Write(c, s, 0, make([]byte, 256), 256)
			}
			p.Close(c)
		}()
	}
	var mu sync.Mutex
	total := 0
	var wg sync.WaitGroup
	for _, cons := range r.cons {
		cons := cons
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, ok := cons.Read(c); !ok {
					return
				}
				mu.Lock()
				total++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if total != producers*steps {
		t.Fatalf("analyzed %d blocks, want %d", total, producers*steps)
	}
}

// failStore wraps a BlockStore and fails configured operations.
type failStore struct {
	rt.BlockStore
	mu         sync.Mutex
	failWrites int
	failReads  int
}

func (f *failStore) WriteBlock(c rt.Ctx, b *block.Block) error {
	f.mu.Lock()
	fail := f.failWrites > 0
	if fail {
		f.failWrites--
	}
	f.mu.Unlock()
	if fail {
		return errors.New("injected write failure")
	}
	return f.BlockStore.WriteBlock(c, b)
}

func (f *failStore) ReadBlock(c rt.Ctx, id block.ID, bytes int64) (*block.Block, error) {
	f.mu.Lock()
	fail := f.failReads > 0
	if fail {
		f.failReads--
	}
	f.mu.Unlock()
	if fail {
		return nil, errors.New("injected read failure")
	}
	return f.BlockStore.ReadBlock(c, id, bytes)
}

func TestRealWriterSpillFailureLosesNoData(t *testing.T) {
	env := realenv.New()
	net := realenv.NewNetwork(1, 1)
	base, err := realenv.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := &failStore{BlockStore: base, failWrites: 1 << 30} // every spill fails
	cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: 4, HighWater: 2}
	cons := NewConsumer(env, cfg, 0, 1, net.Inbox(0), fs)
	prod := NewProducer(env, cfg, 0, 0, net, fs)
	c := env.Ctx()
	const n = 25
	go func() {
		for s := 0; s < n; s++ {
			prod.Write(c, s, 0, make([]byte, 128), 128)
		}
		prod.Close(c)
	}()
	seen := 0
	for {
		if _, ok := cons.Read(c); !ok {
			break
		}
		seen++
		time.Sleep(time.Millisecond)
	}
	prod.Wait(c)
	if seen != n {
		t.Fatalf("analyzed %d blocks, want %d (spill failure must not lose data)", seen, n)
	}
	if s := prod.Stats(); s.BlocksStolen != 0 {
		t.Fatalf("stolen %d despite failing store", s.BlocksStolen)
	}
}

func TestRealReaderFailureSurfacesError(t *testing.T) {
	env := realenv.New()
	net := realenv.NewNetwork(1, 1)
	base, err := realenv.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := &failStore{BlockStore: base, failReads: 1 << 30}
	cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: 4, HighWater: 1}
	cons := NewConsumer(env, cfg, 0, 1, net.Inbox(0), fs)
	prod := NewProducer(env, cfg, 0, 0, net, fs)
	c := env.Ctx()
	go func() {
		for s := 0; s < 30; s++ {
			prod.Write(c, s, 0, make([]byte, 128), 128)
		}
		prod.Close(c)
	}()
	for {
		if _, ok := cons.Read(c); !ok {
			break
		}
		time.Sleep(2 * time.Millisecond) // force spills, hence disk reads
	}
	prod.Wait(c)
	if prod.Stats().BlocksStolen == 0 {
		t.Skip("no spill happened; cannot exercise read failure")
	}
	if cons.Err(c) == nil {
		t.Fatal("reader failure did not surface via Err")
	}
}

func TestWriteAfterClosePanics(t *testing.T) {
	r := newRealRig(t, Config{Recycler: block.NewRecycler(0)}, 1, 1, 1)
	c := r.env.Ctx()
	p := r.prod[0]
	go func() {
		for {
			if _, ok := r.cons[0].Read(c); !ok {
				return
			}
		}
	}()
	p.Close(c)
	defer func() {
		if recover() == nil {
			t.Fatal("Write after Close did not panic")
		}
	}()
	p.Write(c, 0, 0, []byte{1}, 1)
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.BufferBlocks != 8 || cfg.HighWater != 6 || cfg.ConsumerBufferBlocks != 16 {
		t.Fatalf("defaults = %+v", cfg)
	}
	cfg = Config{BufferBlocks: 2, HighWater: 5}.withDefaults()
	if cfg.HighWater != 1 {
		t.Fatalf("high water not clamped below capacity: %+v", cfg)
	}
	if NoPreserve.String() != "No Preserve" || Preserve.String() != "Preserve" {
		t.Fatal("mode names wrong")
	}
}

func TestStatsAccounting(t *testing.T) {
	cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: 4}
	r := newRealRig(t, cfg, 1, 1, 4)
	c := r.env.Ctx()
	p := r.prod[0]
	const n = 8
	go func() {
		for s := 0; s < n; s++ {
			p.Write(c, s, 0, make([]byte, 64), 64)
		}
		p.Close(c)
	}()
	for {
		if _, ok := r.cons[0].Read(c); !ok {
			break
		}
	}
	p.Wait(c)
	r.cons[0].Wait(c)
	ps, cs := p.Stats(), r.cons[0].Stats()
	if ps.BlocksWritten != n {
		t.Fatalf("written %d", ps.BlocksWritten)
	}
	if cs.BlocksAnalyzed != n {
		t.Fatalf("analyzed %d", cs.BlocksAnalyzed)
	}
	if cs.BlocksReceived+cs.BlocksRead != n {
		t.Fatalf("received %d + read %d != %d", cs.BlocksReceived, cs.BlocksRead, n)
	}
	if ps.Messages < ps.BlocksSent+1 { // at least one message per sent block + Fin
		t.Fatalf("messages %d < sent %d + fin", ps.Messages, ps.BlocksSent)
	}
}

// TestEntryQueuePositionsSurviveGrowth drives the consumer buffer's ring
// through wrap-around and growth: a position handed out by push must keep
// naming the same entry, whatever has been popped or pushed since.
func TestEntryQueuePositionsSurviveGrowth(t *testing.T) {
	var q entryQueue
	blocks := map[uint64]*block.Block{}
	for round := 0; round < 200; round++ {
		// Push in growing runs, pop a little less: the queue wraps, then
		// outgrows 16, 32 and 64 slots.
		for i := 0; i < 3+round%7; i++ {
			b := &block.Block{}
			blocks[q.tail] = b
			q.push(entry{b: b})
		}
		for i := 0; i < 2+round%5 && q.head != q.tail; i++ {
			q.at(q.head).b = nil
			delete(blocks, q.head)
			q.head++
		}
		for pos := q.head; pos != q.tail; pos++ {
			if q.at(pos).b != blocks[pos] {
				t.Fatalf("round %d: position %d no longer names its entry (%d slots, head %d, tail %d)",
					round, pos, len(q.buf), q.head, q.tail)
			}
		}
	}
	if len(q.buf) <= 64 {
		t.Fatalf("queue never grew past 64 slots (%d): the test lost its point", len(q.buf))
	}
}
