package staging

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"zipper/internal/block"
	"zipper/internal/core"
	"zipper/internal/flow"
	"zipper/internal/place"
	"zipper/internal/rt"
	"zipper/internal/rt/realenv"
)

// rig wires producers → stager(s) → consumers over the in-process realenv
// network, with each stager spilling into its own partition of the spool
// directory.
type rig struct {
	env      *realenv.Env
	net      *realenv.Network
	prod     []*core.Producer
	cons     []*core.Consumer
	stage    []*Stager
	spool    string
	window   int
	produced []*sync.WaitGroup // every produce call's writers
}

// windDown bounds how long a rig's cleanup waits for its threads.
const windDown = 20 * time.Second

// joinWithin runs join and fails the test if it has not returned within
// windDown: a rig that cannot wind down is a deadlock worth a message, not a
// package timeout.
func joinWithin(t *testing.T, what string, join func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		join()
	}()
	select {
	case <-done:
	case <-time.After(windDown):
		t.Errorf("%s did not wind down within %v", what, windDown)
	}
}

// shutdown is the rig's t.Cleanup. A test that ends in t.Fatal leaves its
// pipeline mid-stream, and threads left running keep taking payloads from,
// and returning them to, the pool every later test in the package shares.
// So: read every consumer to the end of its stream (which un-parks the
// stagers and the writers behind them), then join writers, stagers and
// consumers. After a test that ran to completion all of this returns at
// once.
func (r *rig) shutdown(t *testing.T) {
	joinWithin(t, "rig", func() {
		c := r.env.Ctx()
		var readers sync.WaitGroup
		for _, cons := range r.cons {
			readers.Add(1)
			go func(cons *core.Consumer) {
				defer readers.Done()
				x := r.env.Ctx()
				for {
					if _, ok := cons.Read(x); !ok {
						return
					}
				}
			}(cons)
		}
		readers.Wait()
		for _, wg := range r.produced {
			wg.Wait()
		}
		for _, p := range r.prod {
			p.Close(c)
			p.Wait(c)
		}
		for _, s := range r.stage {
			s.Wait(c)
		}
		for _, cons := range r.cons {
			cons.Wait(c)
		}
	})
}

func newRig(t *testing.T, producers, consumers, stagers int, ccfg core.Config, scfg Config, window int) *rig {
	t.Helper()
	dir := t.TempDir()
	env := realenv.New()
	net := realenv.NewNetwork(consumers+stagers, window)
	fs, err := realenv.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{env: env, net: net, spool: dir, window: window}
	t.Cleanup(func() { r.shutdown(t) })
	ccfg.Recycler = block.NewRecycler(ccfg.MaxBatchBlocks)
	for q := 0; q < consumers; q++ {
		n := 0
		for p := 0; p < producers; p++ {
			if p*consumers/producers == q {
				n++
			}
		}
		r.cons = append(r.cons, core.NewConsumer(env, ccfg, q, n, net.Inbox(q), fs))
	}
	for s := 0; s < stagers; s++ {
		spill, err := fs.Partition(fmt.Sprintf("stage%d", s))
		if err != nil {
			t.Fatal(err)
		}
		cfg := scfg
		cfg.Managed, cfg.Recycler = true, ccfg.Recycler
		r.stage = append(r.stage, NewStager(env, cfg, s, net.Inbox(consumers+s), net, spill))
	}
	var pool *place.Directory
	if stagers > 0 {
		// Rank-affine: producer p relays through stager p mod stagers.
		pool = place.New(place.RankAffine(), nil)
		for s := range stagers {
			pool.Add(consumers + s)
		}
		ccfg.StagerLevel = func(addr int) *flow.Level { return r.stage[addr-consumers].Level() }
		ccfg.Directory = pool
	}
	for p := 0; p < producers; p++ {
		r.prod = append(r.prod, core.NewProducer(env, ccfg, p, p*consumers/producers, net, fs))
	}
	if pool != nil {
		retireWhenDone(env, net, pool, r.prod...)
	}
	return r
}

// retireWhenDone is the tier's janitor, as a job runs it: once every
// producer is done no relay traffic can appear, and every stager in the pool
// gets its Retire.
func retireWhenDone(env *realenv.Env, net rt.Transport, pool *place.Directory, prods ...*core.Producer) {
	go func() {
		c := env.Ctx()
		for _, p := range prods {
			p.Wait(c)
		}
		for _, addr := range pool.Members() {
			pool.Remove(addr)
			pool.Quiesce(c, addr)
			net.Send(c, addr, rt.Message{Retire: true})
		}
	}()
}

func (r *rig) produce(t *testing.T, blocks, blockBytes int) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	r.produced = append(r.produced, &wg)
	for i, p := range r.prod {
		wg.Add(1)
		go func(rank int, p *core.Producer) {
			defer wg.Done()
			c := r.env.Ctx()
			for s := 0; s < blocks; s++ {
				data := make([]byte, blockBytes)
				data[0], data[blockBytes-1] = byte(rank), byte(s)
				p.Write(c, s, 0, data, int64(blockBytes))
			}
			p.Close(c)
			p.Wait(c)
		}(i, p)
	}
	return &wg
}

// TestRelayRoundTrip pushes every block through the staging tier and checks
// nothing is lost, payloads survive, per-producer order holds on the pure
// network path, and the stager re-batches (fewer messages out than in).
func TestRelayRoundTrip(t *testing.T) {
	r := newRig(t, 3, 2, 1,
		core.Config{RoutePolicy: core.RouteStaging, DisableSteal: true, BufferBlocks: 16, MaxBatchBlocks: 4},
		Config{BufferBlocks: 1 << 20}, // never spill: pure memory relay
		2)
	const blocks = 200
	wg := r.produce(t, blocks, 64)

	var mu sync.Mutex
	total := 0
	lastSeq := map[int]int{}
	var cwg sync.WaitGroup
	for q, c := range r.cons {
		cwg.Add(1)
		go func(q int, c *core.Consumer) {
			defer cwg.Done()
			x := r.env.Ctx()
			for {
				b, ok := c.Read(x)
				if !ok {
					return
				}
				if b.Data[0] != byte(b.ID.Rank) || b.Data[len(b.Data)-1] != byte(b.ID.Step) {
					t.Errorf("block %v corrupted", b.ID)
				}
				mu.Lock()
				total++
				// With stealing disabled the relay is FIFO per producer.
				if last, seen := lastSeq[b.ID.Rank]; seen && b.ID.Seq != last+1 {
					t.Errorf("rank %d out of order: seq %d after %d", b.ID.Rank, b.ID.Seq, last)
				}
				lastSeq[b.ID.Rank] = b.ID.Seq
				mu.Unlock()
			}
		}(q, c)
	}
	wg.Wait()
	cwg.Wait()
	ctx := r.env.Ctx()
	for _, s := range r.stage {
		s.Wait(ctx)
		if err := s.Err(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range r.cons {
		c.Wait(ctx)
	}
	if total != 3*blocks {
		t.Fatalf("delivered %d blocks, want %d", total, 3*blocks)
	}
	st := r.stage[0].Stats(ctx)
	if st.BlocksIn != 3*blocks || st.BlocksForwarded != 3*blocks {
		t.Fatalf("stager moved %d in / %d out, want %d", st.BlocksIn, st.BlocksForwarded, 3*blocks)
	}
	if st.BlocksSpilled != 0 {
		t.Fatalf("unexpected spills: %d", st.BlocksSpilled)
	}
	if st.MessagesOut >= st.MessagesIn {
		t.Fatalf("no re-batching: %d messages in, %d out", st.MessagesIn, st.MessagesOut)
	}
	for i, p := range r.prod {
		ps := p.Stats()
		if ps.BlocksSent != 0 || ps.BlocksRelayed != blocks {
			t.Fatalf("producer %d: sent=%d relayed=%d, want 0/%d", i, ps.BlocksSent, ps.BlocksRelayed, blocks)
		}
	}
}

// TestSpillUnderBackpressure forces the stager past its high-water mark with
// a slow consumer and verifies overflowed blocks come back intact, in order,
// and that the spill partition is reclaimed.
func TestSpillUnderBackpressure(t *testing.T) {
	r := newRig(t, 1, 1, 1,
		core.Config{RoutePolicy: core.RouteStaging, DisableSteal: true, BufferBlocks: 32, MaxBatchBlocks: 4},
		Config{BufferBlocks: 8},
		1)
	const blocks = 120
	wg := r.produce(t, blocks, 512)

	ctx := r.env.Ctx()
	seq := 0
	for {
		b, ok := r.cons[0].Read(ctx)
		if !ok {
			break
		}
		if b.ID.Seq != seq {
			t.Fatalf("out of order: seq %d, want %d", b.ID.Seq, seq)
		}
		if b.Data[0] != 0 || b.Data[len(b.Data)-1] != byte(b.ID.Step) {
			t.Fatalf("block %v corrupted after spill cycle", b.ID)
		}
		if b.OnDisk {
			t.Fatalf("relayed block %v still marked OnDisk", b.ID)
		}
		seq++
		time.Sleep(500 * time.Microsecond) // the backpressure that fills the stager
	}
	wg.Wait()
	r.stage[0].Wait(ctx)
	r.cons[0].Wait(ctx)
	if err := r.stage[0].Err(ctx); err != nil {
		t.Fatal(err)
	}
	if seq != blocks {
		t.Fatalf("delivered %d blocks, want %d", seq, blocks)
	}
	st := r.stage[0].Stats(ctx)
	if st.BlocksSpilled == 0 {
		t.Fatal("no spills despite 8-block stager buffer and slow consumer")
	}
	ents, err := os.ReadDir(r.spool + "/stage0")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill partition not reclaimed: %d files left", len(ents))
	}
}

// TestPreserveThroughRelay runs Preserve mode end to end through the staging
// tier: every relayed block — including ones that cycled through the
// stager's spill partition — must be persisted by the consumer's output
// thread exactly as on the direct path.
func TestPreserveThroughRelay(t *testing.T) {
	r := newRig(t, 2, 1, 1,
		core.Config{RoutePolicy: core.RouteStaging, DisableSteal: true, BufferBlocks: 16,
			MaxBatchBlocks: 4, Mode: core.Preserve},
		Config{BufferBlocks: 8},
		1)
	const blocks = 60
	wg := r.produce(t, blocks, 256)

	ctx := r.env.Ctx()
	n := 0
	for {
		b, ok := r.cons[0].Read(ctx)
		if !ok {
			break
		}
		r.cons[0].ReleaseBlock(ctx, b, b.Gen())
		n++
		time.Sleep(300 * time.Microsecond)
	}
	wg.Wait()
	r.stage[0].Wait(ctx)
	r.cons[0].Wait(ctx)
	if err := r.cons[0].Err(ctx); err != nil {
		t.Fatal(err)
	}
	if n != 2*blocks {
		t.Fatalf("analyzed %d blocks, want %d", n, 2*blocks)
	}
	cs := r.cons[0].Stats()
	if cs.BlocksStored != 2*blocks {
		t.Fatalf("preserved %d blocks, want %d", cs.BlocksStored, 2*blocks)
	}
	// Every block's preserved file lives in the spool root; the stager's
	// private partition must be empty again.
	ents, err := os.ReadDir(r.spool)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, e := range ents {
		if !e.IsDir() {
			files++
		}
	}
	if files != 2*blocks {
		t.Fatalf("%d preserved files, want %d", files, 2*blocks)
	}
	stents, err := os.ReadDir(r.spool + "/stage0")
	if err != nil {
		t.Fatal(err)
	}
	if len(stents) != 0 {
		t.Fatalf("stager partition holds %d leftover files", len(stents))
	}
}

// TestFanInCreditAccounting drives many producers into one consumer through
// one stager under batching and cross-checks every counter pair across the
// three endpoint types: nothing lost, nothing double-counted, and the
// number of messages each stager admits equal to what the producers sent
// through it: all but their Fins, which go direct.
func TestFanInCreditAccounting(t *testing.T) {
	const producers, blocks = 8, 100
	r := newRig(t, producers, 1, 2,
		core.Config{RoutePolicy: core.RouteStaging, DisableSteal: true, BufferBlocks: 8, MaxBatchBlocks: 8},
		Config{BufferBlocks: 64, MaxBatchBlocks: 8},
		1)
	wg := r.produce(t, blocks, 128)

	ctx := r.env.Ctx()
	perRank := map[int]int{}
	lastSeq := map[int]int{}
	for {
		b, ok := r.cons[0].Read(ctx)
		if !ok {
			break
		}
		perRank[b.ID.Rank]++
		if last, seen := lastSeq[b.ID.Rank]; seen && b.ID.Seq <= last {
			t.Fatalf("rank %d fan-in reordered: seq %d after %d", b.ID.Rank, b.ID.Seq, last)
		}
		lastSeq[b.ID.Rank] = b.ID.Seq
	}
	wg.Wait()
	for _, s := range r.stage {
		s.Wait(ctx)
	}
	r.cons[0].Wait(ctx)

	var relayed, msgs int64
	for _, p := range r.prod {
		ps := p.Stats()
		relayed += ps.BlocksRelayed
		msgs += ps.Messages
	}
	var stIn, stOut, stMsgsIn int64
	for _, s := range r.stage {
		st := s.Stats(ctx)
		stIn += st.BlocksIn
		stOut += st.BlocksForwarded
		stMsgsIn += st.MessagesIn
	}
	cs := r.cons[0].Stats()
	total := int64(producers * blocks)
	if relayed != total || stIn != total || stOut != total || cs.BlocksReceived != total || cs.BlocksAnalyzed != total {
		t.Fatalf("counter chain broken: relayed=%d stagerIn=%d stagerOut=%d received=%d analyzed=%d want %d",
			relayed, stIn, stOut, cs.BlocksReceived, cs.BlocksAnalyzed, total)
	}
	// Every producer message but its Fin, which goes direct, crosses a stager.
	if stMsgsIn != msgs-producers {
		t.Fatalf("stager saw %d messages, producers sent %d besides their %d Fins", stMsgsIn, msgs-producers, producers)
	}
	for rank, n := range perRank {
		if n != blocks {
			t.Fatalf("rank %d delivered %d blocks, want %d", rank, n, blocks)
		}
	}
}

// TestHybridPrefersDirectWhenConsumerKeepsUp checks the routing policy's
// other end: with an eager consumer the direct window always has credit, so
// hybrid routing must leave the staging tier essentially idle.
func TestHybridPrefersDirectWhenConsumerKeepsUp(t *testing.T) {
	r := newRig(t, 1, 1, 1,
		core.Config{RoutePolicy: core.RouteHybrid, DisableSteal: true, BufferBlocks: 8},
		Config{BufferBlocks: 64},
		8) // deep window: credit effectively always available
	const blocks = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := r.env.Ctx()
		for s := 0; s < blocks; s++ {
			data := make([]byte, 64)
			r.prod[0].Write(c, s, 0, data, 64)
			// Throttled producer: the consumer genuinely keeps up, so the
			// direct window never exhausts.
			time.Sleep(100 * time.Microsecond)
		}
		r.prod[0].Close(c)
		r.prod[0].Wait(c)
	}()

	ctx := r.env.Ctx()
	n := 0
	for {
		if _, ok := r.cons[0].Read(ctx); !ok {
			break
		}
		n++
	}
	wg.Wait()
	for _, s := range r.stage {
		s.Wait(ctx)
	}
	r.cons[0].Wait(ctx)
	if n != blocks {
		t.Fatalf("delivered %d blocks, want %d", n, blocks)
	}
	ps := r.prod[0].Stats()
	if ps.BlocksSent < int64(blocks)*9/10 {
		t.Fatalf("hybrid relayed under an open window: direct=%d relayed=%d", ps.BlocksSent, ps.BlocksRelayed)
	}
}

// lossyStore injects an unreadable spill partition: spill writes succeed but
// every re-read fails, as a torn or corrupted spill file would.
type lossyStore struct{ inner rt.BlockStore }

func (s lossyStore) WriteBlock(c rt.Ctx, b *block.Block) error { return s.inner.WriteBlock(c, b) }
func (s lossyStore) ReadBlock(c rt.Ctx, id block.ID, bytes int64) (*block.Block, error) {
	return nil, errors.New("injected spill-read failure")
}
func (s lossyStore) RemoveBlock(c rt.Ctx, id block.ID) error { return s.inner.RemoveBlock(c, id) }
func (s lossyStore) OpenLog() rt.BlockLog                    { return s.inner.OpenLog() }

// TestLossyRelayStillTerminates pins the counted-termination escape hatch:
// when a stager cannot re-read spilled blocks, the relayed stream loses data
// (the run is lost, reported by Stager.Err) but the consumer's stream must
// still terminate — the forwarder declares the drops via Message.Lost, which
// counts against the Fins' declared totals. Before Lost existed this
// scenario hung the consumer forever.
func TestLossyRelayStillTerminates(t *testing.T) {
	const blocks, blockBytes = 100, 1 << 10
	dir := t.TempDir()
	env := realenv.New()
	net := realenv.NewNetwork(2, 1)
	fs, err := realenv.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spill, err := fs.Partition("stage0")
	if err != nil {
		t.Fatal(err)
	}
	pool := place.New(place.RankAffine(), nil)
	pool.Add(1)
	ccfg := core.Config{RoutePolicy: core.RouteStaging, DisableSteal: true,
		BufferBlocks: 16, MaxBatchBlocks: 4, Directory: pool, Recycler: block.NewRecycler(4)}
	cons := core.NewConsumer(env, ccfg, 0, 1, net.Inbox(0), fs)
	stg := NewStager(env, Config{BufferBlocks: 8, MaxBatchBlocks: 4, Managed: true, Recycler: ccfg.Recycler},
		0, net.Inbox(1), net, lossyStore{spill})
	prod := core.NewProducer(env, ccfg, 0, 0, net, fs)
	retireWhenDone(env, net, pool, prod)

	go func() {
		c := env.Ctx()
		for i := 0; i < blocks; i++ {
			data := make([]byte, blockBytes)
			prod.Write(c, i, 0, data, blockBytes)
		}
		prod.Close(c)
	}()
	received := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := env.Ctx()
		for {
			if _, ok := cons.Read(c); !ok {
				return
			}
			received++
			time.Sleep(2 * time.Millisecond) // lag so the stager spills
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("lossy relayed stream never terminated")
	}
	ctx := env.Ctx()
	prod.Wait(ctx)
	stg.Wait(ctx)
	cons.Wait(ctx)
	st := stg.Stats(nil)
	if st.BlocksSpilled == 0 {
		t.Skip("no spills this run; loss path not exercised")
	}
	if err := stg.Err(ctx); err == nil {
		t.Fatal("stager reported no error despite unreadable spills")
	}
	if int64(received) != blocks-st.BlocksSpilled {
		t.Fatalf("received %d blocks, want %d (sent %d, lost %d spilled)",
			received, blocks-st.BlocksSpilled, blocks, st.BlocksSpilled)
	}
}

// TestStatsTakesNoEndpointLock: a stager's Stats reads counters and gauges
// only, so polling it never waits on — and never holds up — the stager's own
// threads: with the stager's lock held, Stats still returns at once.
func TestStatsTakesNoEndpointLock(t *testing.T) {
	r := newRig(t, 1, 1, 1,
		core.Config{RoutePolicy: core.RouteStaging, DisableSteal: true, BufferBlocks: 8, MaxBatchBlocks: 4},
		Config{BufferBlocks: 64}, 2)
	r.produce(t, 32, 64)
	st, c := r.stage[0], r.env.Ctx()
	st.lk.Lock(c)
	done := make(chan struct{})
	go func() {
		st.Stats(nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Error("Stats did not return within 1s while the stager lock was held")
	}
	st.lk.Unlock(c)
	<-done
}
