package simenv

import (
	"testing"
	"time"

	"zipper/internal/block"
	"zipper/internal/fabric"
	"zipper/internal/pfs"
	"zipper/internal/rt"
	"zipper/internal/sim"
)

func rig() (*sim.Engine, *fabric.Fabric, *pfs.PFS) {
	e := sim.New()
	f := fabric.New(e, fabric.Config{
		Nodes: 6, NodesPerLeaf: 6, LinkBandwidth: 1e9, LinkLatency: time.Microsecond,
	})
	fs := pfs.New(e, f, pfs.Config{
		OSTNodes: []fabric.NodeID{5}, OSTBandwidth: 5e8,
	})
	return e, f, fs
}

func TestEnvThreadsAndClock(t *testing.T) {
	e, _, _ := rig()
	env := NewEnv(e, 0, 0)
	var at time.Duration
	env.Go("w", func(c rt.Ctx) {
		c.Sleep(7 * time.Millisecond)
		at = c.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 7*time.Millisecond {
		t.Fatalf("thread clock = %v", at)
	}
}

func TestCopyDelayChargesMemoryBandwidth(t *testing.T) {
	e, _, _ := rig()
	env := NewEnv(e, 0, 1e9) // 1 GB/s
	var took time.Duration
	env.Go("w", func(c rt.Ctx) {
		start := c.Now()
		env.CopyDelay(c, 1<<20)
		took = c.Now() - start
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := time.Duration(float64(1<<20) / 1e9 * float64(time.Second))
	if took != want {
		t.Fatalf("CopyDelay = %v, want %v", took, want)
	}
}

func TestForeignContextRejected(t *testing.T) {
	e, _, _ := rig()
	env := NewEnv(e, 0, 0)
	lk := env.NewLock("l")
	defer func() {
		if recover() == nil {
			t.Fatal("foreign context accepted")
		}
	}()
	lk.Lock(badCtx{})
}

type badCtx struct{}

func (badCtx) Now() time.Duration  { return 0 }
func (badCtx) Sleep(time.Duration) {}

func TestNetworkWindowBackpressureAndXmitWait(t *testing.T) {
	e, f, _ := rig()
	net := NewNetwork(e, f, []fabric.NodeID{1}, 1)
	env := NewEnv(e, 0, 0)
	var sendDone [2]time.Duration
	env.Go("sender", func(c rt.Ctx) {
		net.Send(c, 0, rt.Message{From: 0, Blocks: []*block.Block{block.NewSized(block.ID{}, 0, 1<<20)}})
		sendDone[0] = c.Now()
		net.Send(c, 0, rt.Message{From: 0, Blocks: []*block.Block{block.NewSized(block.ID{Seq: 1}, 0, 1<<20)}})
		sendDone[1] = c.Now()
	})
	envC := NewEnv(e, 1, 0)
	envC.Go("receiver", func(c rt.Ctx) {
		c.Sleep(100 * time.Millisecond) // hold the window hostage
		for i := 0; i < 2; i++ {
			if _, ok := net.Inbox(0).Recv(c); !ok {
				t.Error("recv failed")
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The second send had to wait for the receiver to free a credit.
	if sendDone[1] < 100*time.Millisecond {
		t.Fatalf("second send finished at %v, before the window freed", sendDone[1])
	}
	if w := f.NodeCounters(0).XmitWait; w == 0 {
		t.Fatal("credit stall did not accrue XmitWait")
	}
}

// TestNetworkReportsWindowCredit is realenv's TestTransportsReportWindowCredit
// on the simulated network: the whole window fresh, within [0, window] while
// a receiver that takes nothing for 100ms lets a flood back up — and empty
// by the time it does — and whole again once everything has been received.
func TestNetworkReportsWindowCredit(t *testing.T) {
	const window, total = 3, 20
	e, f, _ := rig()
	net := NewNetwork(e, f, []fabric.NodeID{1}, window)
	if got := net.Credits(0); got != window {
		t.Fatalf("fresh network reports %d credits, want %d", got, window)
	}
	var ranDry bool
	NewEnv(e, 0, 0).Go("sender", func(c rt.Ctx) {
		for i := 0; i < total; i++ {
			cr := net.Credits(0)
			if cr < 0 || cr > window {
				t.Errorf("before send %d: %d credits, window %d", i, cr, window)
			}
			ranDry = ranDry || cr == 0
			net.Send(c, 0, rt.Message{From: 0, Blocks: []*block.Block{block.NewSized(block.ID{Seq: i}, 0, 4<<10)}})
		}
	})
	NewEnv(e, 1, 0).Go("receiver", func(c rt.Ctx) {
		c.Sleep(100 * time.Millisecond)
		if cr := net.Credits(0); cr != 0 {
			t.Errorf("after 100ms of flood with nothing received: %d credits, want 0", cr)
		}
		for i := 0; i < total; i++ {
			if m, ok := net.Inbox(0).Recv(c); !ok || m.Blocks[0].ID.Seq != i {
				t.Errorf("receive %d: ok=%v", i, ok)
			}
			c.Sleep(time.Millisecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ranDry {
		t.Fatal("the sender never saw the window run dry")
	}
	if got := net.Credits(0); got != window {
		t.Fatalf("%d credits after everything was received, want %d", got, window)
	}
}

func TestStoreUsesCallerNode(t *testing.T) {
	e, f, fs := rig()
	st := NewStore(fs, "t")
	env := NewEnv(e, 2, 0)
	env.Go("w", func(c rt.Ctx) {
		b := block.NewSized(block.ID{Rank: 2, Step: 1, Seq: 0}, 0, 1<<20)
		if err := st.WriteBlock(c, b); err != nil {
			t.Error(err)
		}
		if b.OnDisk {
			t.Error("WriteBlock marked the caller's block OnDisk")
		}
		got, err := st.ReadBlock(c, b.ID, b.Bytes)
		if err != nil {
			t.Error(err)
		}
		if got.Bytes != 1<<20 || !got.OnDisk {
			t.Errorf("read back %+v", got)
		}
		if err := st.RemoveBlock(c, b.ID); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The write traveled node 2 -> OST node 5 over the fabric.
	if c := f.NodeCounters(2); c.XmitData == 0 {
		t.Fatal("store write produced no fabric traffic from the client node")
	}
}

func TestWireBytesAccounting(t *testing.T) {
	m := rt.Message{Blocks: []*block.Block{block.NewSized(block.ID{}, 0, 1000)}}
	if got := wireBytes(m); got != 1000+messageOverhead {
		t.Fatalf("wireBytes = %d", got)
	}
	m.Disk = []rt.DiskRef{{}, {}}
	if got := wireBytes(m); got != 1000+messageOverhead+2*diskIDWireBytes {
		t.Fatalf("wireBytes with refs = %d", got)
	}
	if got := wireBytes(rt.Message{Fin: true}); got != messageOverhead {
		t.Fatalf("fin wireBytes = %d", got)
	}
	// A batch charges the message header once plus one descriptor per extra
	// block — strictly cheaper than the same blocks sent individually.
	batch := rt.Message{Blocks: []*block.Block{
		block.NewSized(block.ID{}, 0, 1000),
		block.NewSized(block.ID{Seq: 1}, 0, 500),
		block.NewSized(block.ID{Seq: 2}, 0, 250),
	}}
	want := int64(1750 + messageOverhead + 2*blockWireBytes)
	if got := wireBytes(batch); got != want {
		t.Fatalf("batched wireBytes = %d, want %d", got, want)
	}
}

// TestLogChargesOneWritePerBatch pins the simulated write-ahead log's cost
// model: a batch is one PFS write of its headers plus wire bytes at the
// segment's tail (encoded blocks charge their encoded size), a read is one
// PFS read of the record, and only the first append to a segment pays the
// metadata server. Logs opened through partitions of one root store never
// share segment names.
func TestLogChargesOneWritePerBatch(t *testing.T) {
	e, _, fs := rig()
	root := NewStore(fs, "zipper")
	part := root.Partition("zipper-stage0")
	env := NewEnv(e, 2, 0)
	env.Go("w", func(c rt.Ctx) {
		log := part.OpenLog()
		enc := block.NewSized(block.ID{Seq: 2}, 0, 1<<20)
		enc.Enc, enc.EncBytes = 2, 1000
		batch := []*block.Block{
			block.NewSized(block.ID{Seq: 0}, 0, 4096),
			block.NewSized(block.ID{Seq: 1}, 0, 4096),
			enc,
		}
		refs := make([]rt.LogRef, len(batch))
		t0 := c.Now()
		if err := log.Append(c, batch, refs); err != nil {
			t.Error(err)
		}
		first := c.Now() - t0
		if _, w := fs.Stats(); w != 1 {
			t.Errorf("a 3-block batch made %d PFS writes, want 1", w)
		}
		want := int64(3*rt.RecordHeaderBytes + 4096 + 4096 + 1000)
		if got := fs.Size("zipper-stage0/wal-1-0.seg"); got != want {
			t.Errorf("segment extent %d after the batch, want %d", got, want)
		}
		if refs[2].Len != 1000 || refs[2].Off != 2*(rt.RecordHeaderBytes+4096) {
			t.Errorf("encoded block's ref = %+v", refs[2])
		}
		t0 = c.Now()
		if err := log.Append(c, batch[:1], refs[:1]); err != nil {
			t.Error(err)
		}
		if second := c.Now() - t0; second >= first {
			t.Errorf("second append took %v, first %v: the segment create was charged twice", second, first)
		}
		// The store keeps no contents: the header the caller kept is the
		// block, and the read leaves it as it was.
		if err := log.Read(c, refs[2], enc); err != nil {
			t.Error(err)
		} else if enc.Bytes != 1<<20 || enc.Enc != 2 || enc.EncBytes != 1000 || enc.OnDisk {
			t.Errorf("read back %+v", enc)
		}
		if r, _ := fs.Stats(); r != 1 {
			t.Errorf("%d PFS reads, want 1", r)
		}
		if err := log.Read(c, rt.LogRef{Seg: 3}, enc); err == nil {
			t.Error("read of a segment the log never had succeeded")
		}

		// A respawned instance's log on the same partition, opened through a
		// second Partition call as the workflow does.
		next := root.Partition("zipper-stage0").OpenLog()
		if err := next.Append(c, batch[:1], refs[:1]); err != nil {
			t.Error(err)
		}
		if fs.Size("zipper-stage0/wal-2-0.seg") == 0 {
			t.Error("the second log did not get a segment name of its own")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
