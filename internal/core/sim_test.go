package core

import (
	"fmt"
	"testing"
	"time"

	"zipper/internal/block"
	"zipper/internal/fabric"
	"zipper/internal/pfs"
	"zipper/internal/rt/simenv"
	"zipper/internal/sim"
	"zipper/internal/trace"
)

// simRig wires producers and consumers over the simulated platform.
type simRig struct {
	eng  *sim.Engine
	fab  *fabric.Fabric
	fs   *pfs.PFS
	net  *simenv.Network
	st   *simenv.Store
	prod []*Producer
	cons []*Consumer
}

// newSimRig places each rank on its own node; PFS OSTs live on trailing
// nodes.
func newSimRig(cfg Config, producers, consumers, window int) *simRig {
	r := newSimRigNodes(sim.New(), producers, consumers, window)
	for i := 0; i < consumers; i++ {
		n := 0
		for p := 0; p < producers; p++ {
			if p*consumers/producers == i {
				n++
			}
		}
		env := simenv.NewEnv(r.eng, fabric.NodeID(producers+i), 0)
		r.cons = append(r.cons, NewConsumer(env, cfg, i, n, r.net.Inbox(i), r.st))
	}
	for p := 0; p < producers; p++ {
		env := simenv.NewEnv(r.eng, fabric.NodeID(p), 0)
		r.prod = append(r.prod, NewProducer(env, cfg, p, p*consumers/producers, r.net, r.st))
	}
	return r
}

// newSimRigNodes builds the machine of newSimRig — fabric, file system,
// network, store — and leaves the endpoints to the caller: producer p on
// node p, consumer i on node producers+i.
func newSimRigNodes(eng *sim.Engine, producers, consumers, window int) *simRig {
	nodes := producers + consumers + 3 // +2 OSTs +1 MDS
	fab := fabric.New(eng, fabric.Config{
		Nodes:         nodes,
		NodesPerLeaf:  16,
		LinkBandwidth: 1e9,
		LinkLatency:   time.Microsecond,
		MTU:           256 << 10,
	})
	fs := pfs.New(eng, fab, pfs.Config{
		OSTNodes:     []fabric.NodeID{fabric.NodeID(nodes - 2), fabric.NodeID(nodes - 1)},
		MDSNode:      fabric.NodeID(nodes - 3),
		OSTBandwidth: 8e8,
	})
	var consNodes []fabric.NodeID
	for i := 0; i < consumers; i++ {
		consNodes = append(consNodes, fabric.NodeID(producers+i))
	}
	return &simRig{eng: eng, fab: fab, fs: fs, net: simenv.NewNetwork(eng, fab, consNodes, window),
		st: simenv.NewStore(fs, "zipper")}
}

// runSimWorkflow drives producers that emit blocksPerStep blocks of
// blockBytes every computeTime, and consumers that spend analyzeTime per
// block. Returns the virtual end-to-end time.
func runSimWorkflow(t testing.TB, r *simRig, steps, blocksPerStep int, blockBytes int64,
	computeTime, analyzeTime time.Duration) time.Duration {
	t.Helper()
	for i, p := range r.prod {
		p := p
		env := simenv.NewEnv(r.eng, fabric.NodeID(i), 0)
		r.eng.Spawn(fmt.Sprintf("app.prod.%d", i), func(sp *sim.Proc) {
			c := env.WrapProc(sp)
			for s := 0; s < steps; s++ {
				sp.Delay(computeTime)
				for b := 0; b < blocksPerStep; b++ {
					p.Write(c, s, int64(b)*blockBytes, nil, blockBytes)
				}
			}
			p.Close(c)
			p.Wait(c)
		})
	}
	for i, cons := range r.cons {
		cons := cons
		node := cons.ID()
		env := simenv.NewEnv(r.eng, fabric.NodeID(len(r.prod)+node), 0)
		_ = i
		r.eng.Spawn(fmt.Sprintf("app.cons.%d", node), func(sp *sim.Proc) {
			c := env.WrapProc(sp)
			for {
				_, ok := cons.Read(c)
				if !ok {
					break
				}
				sp.Delay(analyzeTime)
			}
			cons.Wait(c)
		})
	}
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	return r.eng.Now()
}

func TestSimDeliveryCounts(t *testing.T) {
	r := newSimRig(Config{Recycler: block.NewRecycler(0), BufferBlocks: 8}, 4, 2, 4)
	runSimWorkflow(t, r, 10, 3, 1<<20, time.Millisecond, 100*time.Microsecond)
	var analyzed, written int64
	for _, cons := range r.cons {
		analyzed += cons.Stats().BlocksAnalyzed
		if cons.err != nil {
			t.Fatal(cons.err)
		}
	}
	for _, p := range r.prod {
		written += p.Stats().BlocksWritten
	}
	if written != 4*10*3 || analyzed != written {
		t.Fatalf("written %d analyzed %d, want both %d", written, analyzed, 4*10*3)
	}
}

func TestSimStealingRelievesStall(t *testing.T) {
	// Slow analysis: with stealing disabled the producer stalls far more.
	run := func(disable bool) (stall time.Duration, stolen int64) {
		cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: 8, HighWater: 4, DisableSteal: disable}
		r := newSimRig(cfg, 2, 1, 2)
		runSimWorkflow(t, r, 20, 4, 4<<20, 500*time.Microsecond, 30*time.Millisecond)
		for _, p := range r.prod {
			st := p.Stats()
			stall += st.WriteStall
			stolen += st.BlocksStolen
		}
		return
	}
	stallMP, stolenMP := run(true)
	stallConc, stolenConc := run(false)
	if stolenMP != 0 {
		t.Fatalf("message-passing-only stole %d blocks", stolenMP)
	}
	if stolenConc == 0 {
		t.Fatal("concurrent mode never stole despite slow consumer")
	}
	if stallConc >= stallMP {
		t.Fatalf("stealing did not reduce stall: %v (concurrent) vs %v (MP-only)", stallConc, stallMP)
	}
}

func TestSimFastConsumerNeverSteals(t *testing.T) {
	// Paper §6.2: when the producer buffer is mostly empty the concurrent
	// method falls back to message passing.
	cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: 8, HighWater: 4}
	r := newSimRig(cfg, 2, 2, 8)
	runSimWorkflow(t, r, 10, 2, 1<<20, 5*time.Millisecond, 10*time.Microsecond)
	for _, p := range r.prod {
		if stolen := p.Stats().BlocksStolen; stolen != 0 {
			t.Fatalf("producer %d stole %d blocks with a fast consumer", p.rank, stolen)
		}
	}
}

func TestSimXmitWaitGrowsUnderBackpressure(t *testing.T) {
	run := func(analyze time.Duration) int64 {
		cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: 8, DisableSteal: true}
		r := newSimRig(cfg, 4, 1, 1)
		runSimWorkflow(t, r, 10, 4, 4<<20, 100*time.Microsecond, analyze)
		var wait int64
		for i := range r.prod {
			wait += r.fab.NodeCounters(fabric.NodeID(i)).XmitWait
		}
		return wait
	}
	fast := run(10 * time.Microsecond)
	slow := run(20 * time.Millisecond)
	if slow <= fast {
		t.Fatalf("XmitWait did not grow under backpressure: fast=%d slow=%d", fast, slow)
	}
}

func TestSimPreserveStoresAll(t *testing.T) {
	cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: 8, Mode: Preserve}
	r := newSimRig(cfg, 2, 1, 4)
	runSimWorkflow(t, r, 5, 2, 1<<20, time.Millisecond, 100*time.Microsecond)
	var stored, stolen int64
	for _, cons := range r.cons {
		stored += cons.Stats().BlocksStored
	}
	for _, p := range r.prod {
		stolen += p.Stats().BlocksStolen
	}
	if stored+stolen != 2*5*2 {
		t.Fatalf("stored %d + spilled %d != %d blocks", stored, stolen, 2*5*2)
	}
	if reads, writes := r.fs.Stats(); writes == 0 || reads > writes {
		t.Fatalf("pfs reads=%d writes=%d inconsistent with preserve mode", reads, writes)
	}
}

func TestSimDeterministic(t *testing.T) {
	run := func() (time.Duration, int64) {
		cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: 8, HighWater: 4}
		r := newSimRig(cfg, 3, 2, 2)
		d := runSimWorkflow(t, r, 8, 3, 2<<20, 300*time.Microsecond, 2*time.Millisecond)
		var stolen int64
		for _, p := range r.prod {
			stolen += p.Stats().BlocksStolen
		}
		return d, stolen
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 || s1 != s2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", d1, s1, d2, s2)
	}
}

func TestSimTraceRecorderCapturesThreadActivity(t *testing.T) {
	rec := trace.NewRecorder()
	cfg := Config{Recycler: block.NewRecycler(0), BufferBlocks: 4, HighWater: 2, Recorder: rec}
	r := newSimRig(cfg, 1, 1, 1)
	runSimWorkflow(t, r, 10, 3, 4<<20, 100*time.Microsecond, 10*time.Millisecond)
	if rec.Total("zprod.0.sender", "send") == 0 {
		t.Fatal("no send spans recorded")
	}
	if r.prod[0].Stats().BlocksStolen > 0 && rec.Total("zprod.0.writer", "steal") == 0 {
		t.Fatal("steals happened but no steal spans recorded")
	}
	if rec.CountSpans("zcons.0.receiver", "recv") == 0 {
		t.Fatal("no recv spans recorded")
	}
}
