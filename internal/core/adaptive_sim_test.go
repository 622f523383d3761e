package core

import (
	"sync"
	"testing"
	"time"

	"zipper/internal/block"
	"zipper/internal/fabric"
	"zipper/internal/flow"
	"zipper/internal/pfs"
	"zipper/internal/place"
	"zipper/internal/rt"
	"zipper/internal/rt/simenv"
	"zipper/internal/sim"
	"zipper/internal/staging"
)

// routeCapture wraps the simulated network, recording the destination and
// virtual time of every producer send while preserving credit visibility.
type routeCapture struct {
	inner *simenv.Network
	mu    sync.Mutex
	dests []int
	times []time.Duration
}

func (t *routeCapture) Send(c rt.Ctx, to int, m rt.Message) {
	if len(m.Blocks) > 0 { // data sends only: Fins and ID-only sends don't split
		t.mu.Lock()
		t.dests = append(t.dests, to)
		t.times = append(t.times, c.Now())
		t.mu.Unlock()
	}
	t.inner.Send(c, to, m)
}

func (t *routeCapture) Credits(to int) int { return t.inner.Credits(to) }

// stagedSimRig wires one producer (node 0) through one stager (node 2, holding
// stagerBlocks) to one consumer (node 1) on the simulated platform, with two
// OSTs of ostBandwidth (nodes 3-4) and an MDS (node 5) behind them. The
// stager is the one member of a rank-affine pool, retired once the producer
// is done. wrap, when non-nil, interposes on the producer's transport.
func stagedSimRig(cfg Config, stagerBlocks int, ostBandwidth float64, wrap func(*simenv.Network) rt.Transport) (*sim.Engine, *Producer, *Consumer) {
	eng := sim.New()
	fab := fabric.New(eng, fabric.Config{
		Nodes: 6, NodesPerLeaf: 16, LinkBandwidth: 1e9, LinkLatency: time.Microsecond, MTU: 256 << 10,
	})
	fs := pfs.New(eng, fab, pfs.Config{
		OSTNodes: []fabric.NodeID{3, 4}, MDSNode: 5, OSTBandwidth: ostBandwidth,
	})
	net := simenv.NewNetwork(eng, fab, []fabric.NodeID{1, 2}, 2)
	store := simenv.NewStore(fs, "zipper")
	var tr rt.Transport = net
	if wrap != nil {
		tr = wrap(net)
	}
	cons := NewConsumer(simenv.NewEnv(eng, 1, 0), cfg, 0, 1, net.Inbox(0), store)
	stagerEnv := simenv.NewEnv(eng, 2, 0)
	stg := staging.NewStager(stagerEnv,
		staging.Config{BufferBlocks: stagerBlocks, MaxBatchBlocks: 2, Managed: true, Recycler: cfg.Recycler},
		0, net.Inbox(1), net, simenv.NewStore(fs, "zipper-stage0"))
	cfg.StagerLevel = func(addr int) *flow.Level { return stg.Level() }
	pool := place.New(place.RankAffine(), nil)
	pool.Add(1)
	cfg.Directory = pool
	prod := NewProducer(simenv.NewEnv(eng, 0, 0), cfg, 0, 0, tr, store)
	eng.Spawn("retire", func(sp *sim.Proc) {
		c := stagerEnv.WrapProc(sp)
		prod.Wait(c)
		for _, addr := range pool.Members() {
			pool.Remove(addr)
			pool.Quiesce(c, addr)
			net.Send(c, addr, rt.Message{Retire: true})
		}
	})
	return eng, prod, cons
}

// adaptiveStepRun wires one producer through one stager to one consumer on
// the simulated platform and drives a step-change workload: the consumer
// analyzes fast, then slows 30× for a mid-stream window while the producer
// keeps writing well past the recovery, then recovers. It returns the
// producer's send log and the virtual times at which the slowdown started
// and ended.
func adaptiveStepRun(t *testing.T) (dests []int, times []time.Duration, slowStart, slowEnd time.Duration, ps ProducerStats) {
	t.Helper()
	const (
		blocks     = 300
		blockBytes = 64 << 10
		slowFrom   = 80
		slowTo     = 130
	)
	var cap *routeCapture
	eng, prod, cons := stagedSimRig(Config{Recycler: block.NewRecycler(0),
		BufferBlocks: 8, HighWater: 6, MaxBatchBlocks: 2,
		RoutePolicy: RouteAdaptive,
		Adaptive:    flow.Tuning{Tau: 2 * time.Millisecond, Decay: 10 * time.Millisecond},
	}, 64, 8e8, func(net *simenv.Network) rt.Transport {
		cap = &routeCapture{inner: net}
		return cap
	})

	prodEnv := simenv.NewEnv(eng, 0, 0)
	eng.Spawn("app.prod", func(sp *sim.Proc) {
		c := prodEnv.WrapProc(sp)
		for s := 0; s < blocks; s++ {
			sp.Delay(2 * time.Millisecond)
			prod.Write(c, s, 0, nil, blockBytes)
		}
		prod.Close(c)
		prod.Wait(c)
	})
	consEnv := simenv.NewEnv(eng, 1, 0)
	eng.Spawn("app.cons", func(sp *sim.Proc) {
		c := consEnv.WrapProc(sp)
		n := 0
		for {
			_, ok := cons.Read(c)
			if !ok {
				break
			}
			switch {
			case n == slowFrom:
				slowStart = sp.Now()
			case n == slowTo:
				slowEnd = sp.Now()
			}
			if n >= slowFrom && n < slowTo {
				sp.Delay(6 * time.Millisecond) // the step-change slowdown
			} else {
				sp.Delay(200 * time.Microsecond)
			}
			n++
		}
		cons.Wait(c)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return cap.dests, cap.times, slowStart, slowEnd, prod.Stats()
}

// relayShare counts the fraction of sends addressed to the stager (endpoint
// 1) within [from, to).
func relayShare(dests []int, times []time.Duration, from, to time.Duration) (share float64, n int) {
	relays := 0
	for i, d := range dests {
		if times[i] < from || times[i] >= to {
			continue
		}
		n++
		if d == 1 {
			relays++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(relays) / float64(n), n
}

// TestAdaptiveStepChangeConvergence is the end-to-end controller test on the
// simulated platform: a step-change consumer slowdown mid-run must shift the
// adaptive split toward the staging relay, and the split must come back to
// the direct path after the consumer recovers — within the bounded window
// the virtual-time phases define.
func TestAdaptiveStepChangeConvergence(t *testing.T) {
	dests, times, slowStart, slowEnd, ps := adaptiveStepRun(t)
	if ps.BlocksWritten != 300 {
		t.Fatalf("wrote %d blocks, want 300", ps.BlocksWritten)
	}
	if ps.BlocksRelayed == 0 {
		t.Fatal("the adaptive controller never used the staging tier")
	}
	if slowStart == 0 || slowEnd <= slowStart {
		t.Fatalf("phase markers broken: slow=[%v,%v]", slowStart, slowEnd)
	}
	end := times[len(times)-1] + 1

	// During the slowdown the relay must carry the bulk of the batches; the
	// settle margin tolerates the in-flight batches of the step instant.
	settle := 10 * time.Millisecond
	slow, n := relayShare(dests, times, slowStart+settle, slowEnd)
	if n == 0 || slow < 0.6 {
		t.Fatalf("slow phase relayed %.0f%% of %d batches, want > 60%%", slow*100, n)
	}
	// After recovery the controller must hand traffic back to the direct
	// path within a bounded number of batches: allow a few Decay constants,
	// then require a mostly-direct tail.
	recover := slowEnd + 60*time.Millisecond
	tail, n := relayShare(dests, times, recover, end)
	if n == 0 || tail > 0.3 {
		t.Fatalf("post-recovery relayed %.0f%% of %d batches, want < 30%%", tail*100, n)
	}
}

// TestAdaptiveStepChangeDeterministic pins the controller's simenv
// reproducibility end to end: two identical runs must produce the identical
// send-by-send routing sequence.
func TestAdaptiveStepChangeDeterministic(t *testing.T) {
	d1, t1, _, _, _ := adaptiveStepRun(t)
	d2, t2, _, _, _ := adaptiveStepRun(t)
	if len(d1) != len(d2) {
		t.Fatalf("send counts diverged: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] || t1[i] != t2[i] {
			t.Fatalf("send %d diverged: (%d,%v) vs (%d,%v)", i, d1[i], t1[i], d2[i], t2[i])
		}
	}
}
