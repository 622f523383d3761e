package core

import (
	"sync"
	"testing"
	"time"

	"zipper/internal/block"
	"zipper/internal/flow"
	"zipper/internal/place"
	"zipper/internal/rt"
	"zipper/internal/rt/realenv"
	"zipper/internal/staging"
)

// alternatingRouter relays every other batch — a minimal custom policy that
// exercises the Config.NewRouter plug-in point.
type alternatingRouter struct {
	mu sync.Mutex
	n  int
}

func (a *alternatingRouter) Route(flow.Signals) flow.Route {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	if a.n%2 == 0 {
		return flow.Relay
	}
	return flow.Direct
}
func (*alternatingRouter) ObserveSend(flow.Route, time.Duration, time.Duration, int, int64) {}
func (*alternatingRouter) ObserveStall(time.Duration, time.Duration)                        {}

// TestCustomRouterPlugin wires a NewRouter policy through a real
// producer/stager/consumer rig — deliberately leaving RoutePolicy at its
// RouteDirect zero value, the trap case: the custom router relays data
// batches, so the producer's direct Fin must declare them, or the consumer
// would count the stream finished while relayed blocks sit in the stager.
func TestCustomRouterPlugin(t *testing.T) {
	env := realenv.New()
	net := realenv.NewNetwork(2, 2) // consumer endpoint 0, stager endpoint 1
	fs, err := realenv.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Recycler: block.NewRecycler(0),
		BufferBlocks: 8, MaxBatchBlocks: 2, DisableSteal: true,
		NewRouter: func() flow.Router { return &alternatingRouter{} },
	}
	cons := NewConsumer(env, cfg, 0, 1, net.Inbox(0), fs)
	spill, err := fs.Partition("stage0")
	if err != nil {
		t.Fatal(err)
	}
	stg := staging.NewStager(env, staging.Config{BufferBlocks: 32, Managed: true, Recycler: cfg.Recycler},
		0, net.Inbox(1), net, spill)
	cfg.StagerLevel = func(addr int) *flow.Level { return stg.Level() }
	pool := place.New(place.RankAffine(), nil)
	pool.Add(1)
	cfg.Directory = pool
	prod := NewProducer(env, cfg, 0, 0, net, fs)

	const blocks = 100
	go func() {
		c := env.Ctx()
		for s := 0; s < blocks; s++ {
			data := make([]byte, 64)
			data[0] = byte(s)
			prod.Write(c, s, 0, data, 64)
		}
		prod.Close(c)
	}()
	ctx := env.Ctx()
	n := 0
	for {
		b, ok := cons.Read(ctx)
		if !ok {
			break
		}
		if b.Data[0] != byte(b.ID.Step) {
			t.Fatalf("block %v corrupted", b.ID)
		}
		n++
	}
	prod.Wait(ctx)
	for _, addr := range pool.Members() {
		pool.Remove(addr)
		pool.Quiesce(ctx, addr)
		net.Send(ctx, addr, rt.Message{Retire: true})
	}
	stg.Wait(ctx)
	cons.Wait(ctx)
	if n != blocks {
		t.Fatalf("delivered %d blocks, want %d — relayed data stranded behind a direct Fin?", n, blocks)
	}
	ps := prod.Stats()
	if ps.BlocksSent == 0 || ps.BlocksRelayed == 0 {
		t.Fatalf("custom router not in charge: sent=%d relayed=%d", ps.BlocksSent, ps.BlocksRelayed)
	}
	if ps.BlocksSent+ps.BlocksRelayed != blocks {
		t.Fatalf("split %d+%d != %d", ps.BlocksSent, ps.BlocksRelayed, blocks)
	}
}
