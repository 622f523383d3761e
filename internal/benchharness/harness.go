// Package benchharness is the single source of truth for the measurement
// workloads shared by the in-repo benchmarks (bench_test.go) and the
// baseline tools (cmd/benchbatch, cmd/benchstaging): the batching workload
// pushes blocks through a one-deep receive window — the backpressured
// regime where batches form — and the staging workload couples fast
// producers to a deliberately slow consumer — the consumer-bound regime the
// in-transit tier exists for. Keeping all callers on this harness keeps the
// committed BENCH_*.json baselines comparable to the in-repo benchmarks.
package benchharness

import (
	"sync"
	"time"

	"zipper"
)

// Variant is one batching-protocol configuration of the comparison.
type Variant struct {
	Name   string
	Batch  int  // MaxBatchBlocks
	Pooled bool // NewPayload/Release vs a fresh allocation per block
}

// Variants is the canonical comparison: the seed's one-block-per-message
// protocol with per-block allocation, then pooled payloads at rising batch
// caps.
var Variants = []Variant{
	{Name: "seed-1x-unpooled", Batch: 1, Pooled: false},
	{Name: "pooled-batch=1", Batch: 1, Pooled: true},
	{Name: "pooled-batch=4", Batch: 4, Pooled: true},
	{Name: "pooled-batch=16", Batch: 16, Pooled: true},
}

// Run pushes `blocks` blocks of blockBytes through a fresh one-producer
// one-consumer job configured for the variant, waits for the stream to
// drain, and returns the producer's stats (Messages/BlocksSent is the
// batching efficiency).
func Run(spoolDir string, v Variant, blocks, blockBytes int) (zipper.ProducerStats, error) {
	job, err := zipper.NewJob(zipper.Config{
		Producers: 1, Consumers: 1, SpoolDir: spoolDir,
		BufferBlocks: 64, Window: 1, DisableSteal: true,
		MaxBatchBlocks: v.Batch,
	})
	if err != nil {
		return zipper.ProducerStats{}, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var sink byte
		for {
			blk, ok := job.Consumer(0).Read()
			if !ok {
				_ = sink
				return
			}
			sink ^= blk.Data[0] ^ blk.Data[len(blk.Data)-1]
			if v.Pooled {
				blk.Release()
			}
		}
	}()
	p := job.Producer(0)
	for i := 0; i < blocks; i++ {
		var data []byte
		if v.Pooled {
			data = zipper.NewPayload(blockBytes)
		} else {
			data = make([]byte, blockBytes)
		}
		data[0], data[blockBytes-1] = byte(i), byte(i>>8)
		p.Write(i, 0, data)
	}
	p.Close()
	<-done
	job.Wait()
	return p.Stats(), nil
}

// StagingVariant is one routing configuration of the staging comparison.
type StagingVariant struct {
	Name    string
	Stagers int
	Policy  zipper.RoutePolicy
}

// StagingVariants is the canonical three-mode comparison: the paper's
// two-channel in-situ protocol, everything through the in-transit relay,
// and per-batch hybrid routing.
var StagingVariants = []StagingVariant{
	{Name: "in-situ", Stagers: 0, Policy: zipper.RouteDirect},
	{Name: "in-transit", Stagers: 1, Policy: zipper.RouteStaging},
	{Name: "hybrid", Stagers: 1, Policy: zipper.RouteHybrid},
}

// AdaptiveVariants is the canonical closed-loop comparison: the reactive
// hybrid policy against the adaptive flow controller, on the same
// saturation-prone workloads.
var AdaptiveVariants = []StagingVariant{
	{Name: "hybrid", Stagers: 1, Policy: zipper.RouteHybrid},
	{Name: "adaptive", Stagers: 1, Policy: zipper.RouteAdaptive},
}

// FlowScenario shapes one adaptive-routing measurement.
type FlowScenario struct {
	Name       string
	Producers  int
	Blocks     int // per producer
	BlockBytes int
	// Analyze is the consumer's busy time per block.
	Analyze time.Duration
	// StagerBufferBlocks sizes the stager's in-memory buffer.
	StagerBufferBlocks int
	// DisableSteal turns the work-stealing writer off (the paper's
	// message-passing-only baseline), isolating the routing decision.
	DisableSteal bool
	// BurstBlocks/BurstPause, when nonzero, make generation bursty: after
	// every BurstBlocks writes each producer idles for BurstPause.
	BurstBlocks int
	BurstPause  time.Duration
}

// FlowScenarios is the canonical pair.
//
// slow-consumer is the regime the ROADMAP's closed-loop item names: the
// consumer lags steadily, the staging tier has the RAM to absorb the whole
// stream (dedicated staging ranks trading memory for producer liberation),
// and stealing is off so routing is the only relief valve. The reactive
// hybrid policy polls window credit, which looks healthy at every decision
// instant even though the pipeline is backlogged, so it keeps sending
// direct and the producers eat the whole consumer-bound backlog as Write
// stall. The adaptive controller's stall EWMA sees the backlog and shifts
// the split into the staging tier, which drains the producers at memory
// speed.
//
// bursty keeps the work-stealing writer on (so the ViaDisk comparison is
// live) and slams a moderately provisioned stager with bursts: both
// channels saturate transiently and the controller must rebalance each
// burst and relax between bursts.
var FlowScenarios = []FlowScenario{
	{Name: "slow-consumer", Producers: 2, Blocks: 1500, BlockBytes: 32 << 10,
		Analyze: 250 * time.Microsecond, StagerBufferBlocks: 3000, DisableSteal: true},
	{Name: "bursty", Producers: 2, Blocks: 1500, BlockBytes: 32 << 10,
		Analyze: 150 * time.Microsecond, StagerBufferBlocks: 128,
		BurstBlocks: 250, BurstPause: 25 * time.Millisecond},
}

// RunFlow runs one routing variant against one flow scenario and returns
// the job-wide aggregate stats after the stream drains.
func RunFlow(spoolDir string, v StagingVariant, sc FlowScenario) (zipper.JobStats, error) {
	job, err := zipper.NewJob(zipper.Config{
		Producers: sc.Producers, Consumers: 1, SpoolDir: spoolDir,
		BufferBlocks: 16, Window: 2, MaxBatchBlocks: 8,
		Staging:      zipper.StagingConfig{Stagers: v.Stagers, BufferBlocks: sc.StagerBufferBlocks, RoutePolicy: v.Policy},
		DisableSteal: sc.DisableSteal,
	})
	if err != nil {
		return zipper.JobStats{}, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var sink byte
		for {
			blk, ok := job.Consumer(0).Read()
			if !ok {
				_ = sink
				return
			}
			sink ^= blk.Data[0] ^ blk.Data[len(blk.Data)-1]
			for t0 := time.Now(); time.Since(t0) < sc.Analyze; {
			}
			blk.Release()
		}
	}()
	for p := 0; p < sc.Producers; p++ {
		go func(p int) {
			prod := job.Producer(p)
			for i := 0; i < sc.Blocks; i++ {
				if sc.BurstBlocks > 0 && i > 0 && i%sc.BurstBlocks == 0 {
					time.Sleep(sc.BurstPause)
				}
				data := zipper.NewPayload(sc.BlockBytes)
				data[0], data[sc.BlockBytes-1] = byte(i), byte(i>>8)
				prod.Write(i, 0, data)
			}
			prod.Close()
		}(p)
	}
	<-done
	job.Wait()
	return job.Stats(), nil
}

// ElasticScenario shapes the bursty workload of the elastic-staging
// comparison: each producer emits Bursts bursts of BurstBlocks blocks at
// memory speed, idling BurstPause between them, against a consumer that
// analyzes steadily. The bursts need the whole stager ceiling; the pauses
// need almost none of it — exactly the regime where a fixed pool must choose
// between stalling producers (sized for the average) and idling nodes
// (sized for the peak), and an elastic pool does neither.
type ElasticScenario struct {
	Producers   int
	Bursts      int
	BurstBlocks int // per producer per burst
	BurstPause  time.Duration
	BlockBytes  int
	// Analyze is the consumer's busy time per block.
	Analyze time.Duration
	// StagerBufferBlocks sizes each stager endpoint's in-memory buffer.
	StagerBufferBlocks int
}

// ElasticScenarioDefault is the committed-baseline workload.
var ElasticScenarioDefault = ElasticScenario{
	Producers: 4, Bursts: 4, BurstBlocks: 300, BurstPause: 400 * time.Millisecond,
	BlockBytes: 32 << 10, Analyze: 100 * time.Microsecond, StagerBufferBlocks: 256,
}

// ElasticVariant is one pool-sizing configuration of the elastic comparison.
type ElasticVariant struct {
	Name    string
	Stagers int // reserved endpoint ceiling
	Elastic zipper.ElasticConfig
}

// ElasticVariants is the canonical three-way comparison: a fixed pool sized
// for the average load (cheap but stalls under bursts), a fixed pool sized
// for the peak (smooth but pays four nodes all run long), and the elastic
// pool that grows into the ceiling during bursts and drains between them.
var ElasticVariants = []ElasticVariant{
	{Name: "fixed-small", Stagers: 1},
	{Name: "fixed-large", Stagers: 4},
	{Name: "elastic", Stagers: 4, Elastic: zipper.ElasticConfig{
		Enabled: true, MinStagers: 1, MaxStagers: 4,
		Interval: time.Millisecond, Cooldown: 4 * time.Millisecond,
	}},
}

// RunElastic runs one pool-sizing variant against the bursty scenario on the
// real platform and returns the job-wide aggregate stats (including the
// scaling timeline and stager node-seconds) after the stream drains.
// Stealing is disabled so the producers' only relief is the staging tier —
// the pool size is the variable under test — and routing is the adaptive
// controller, which sheds each burst into the tier as the stall EWMA rises
// (PR 3's closed loop; a credit-polling reactive policy would barely touch
// the tier and hide the pool size entirely).
func RunElastic(spoolDir string, v ElasticVariant, sc ElasticScenario) (zipper.JobStats, error) {
	job, err := zipper.NewJob(zipper.Config{
		Producers: sc.Producers, Consumers: 1, SpoolDir: spoolDir,
		BufferBlocks: 16, Window: 2, MaxBatchBlocks: 8,
		Staging:      zipper.StagingConfig{Stagers: v.Stagers, BufferBlocks: sc.StagerBufferBlocks, RoutePolicy: zipper.RouteAdaptive, Elastic: v.Elastic},
		DisableSteal: true,
	})
	if err != nil {
		return zipper.JobStats{}, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var sink byte
		for {
			blk, ok := job.Consumer(0).Read()
			if !ok {
				_ = sink
				return
			}
			sink ^= blk.Data[0] ^ blk.Data[len(blk.Data)-1]
			for t0 := time.Now(); time.Since(t0) < sc.Analyze; {
			}
			blk.Release()
		}
	}()
	for p := 0; p < sc.Producers; p++ {
		go func(p int) {
			prod := job.Producer(p)
			i := 0
			for b := 0; b < sc.Bursts; b++ {
				if b > 0 {
					time.Sleep(sc.BurstPause)
				}
				for k := 0; k < sc.BurstBlocks; k++ {
					data := zipper.NewPayload(sc.BlockBytes)
					data[0], data[sc.BlockBytes-1] = byte(i), byte(i>>8)
					prod.Write(i, 0, data)
					i++
				}
			}
			prod.Close()
		}(p)
	}
	<-done
	job.Wait()
	return job.Stats(), nil
}

// PlacementScenario shapes the skewed-rate workload of the placement
// comparison: per burst, producer p emits BurstBlocks[p] blocks flat out
// (a 10:1 skew by default), idling BurstPause between bursts while the
// consumer catches up. The fast producer's burst does not fit any one
// stager's buffer but does fit the tier's aggregate buffering — exactly the
// regime where assignment is everything. Under rank-affine placement the
// torrent funnels through the one stager rank 0 is wired to (overflow
// spills, the producer stalls) while three stagers sit empty; a load-aware
// policy absorbs the same burst across the whole tier. A single consumer
// keeps the tier the queueing point — relay imbalance is the variable under
// test. (A globally oversubscribed workload would show nothing: every
// buffer pegs full, occupancies tie, and placement cannot matter.)
type PlacementScenario struct {
	Producers int
	Consumers int
	Stagers   int
	Bursts    int
	// BurstBlocks is each producer's blocks per burst (len == Producers) —
	// the skew.
	BurstBlocks []int
	BurstPause  time.Duration
	BlockBytes  int
	// Analyze is each consumer's busy time per block.
	Analyze time.Duration
	// StagerBufferBlocks sizes each stager endpoint's in-memory buffer.
	StagerBufferBlocks int
}

// Total is the block count across all producers and bursts.
func (sc PlacementScenario) Total() int64 {
	var t int64
	for _, b := range sc.BurstBlocks {
		t += int64(b)
	}
	return t * int64(sc.Bursts)
}

// PlacementScenarioDefault is the committed-baseline workload.
var PlacementScenarioDefault = PlacementScenario{
	Producers: 4, Consumers: 1, Stagers: 4,
	Bursts: 6, BurstBlocks: []int{1000, 100, 100, 100}, BurstPause: 150 * time.Millisecond,
	BlockBytes: 32 << 10, Analyze: 100 * time.Microsecond, StagerBufferBlocks: 512,
}

// PlacementVariant is one policy configuration of the placement comparison.
type PlacementVariant struct {
	Name      string
	Placement zipper.Placement
}

// PlacementVariants is the canonical comparison: the fixed rank-affine
// assignment of earlier revisions against the two directory policies.
var PlacementVariants = []PlacementVariant{
	{Name: "rank-affine", Placement: zipper.RankAffine},
	{Name: "least-occupancy", Placement: zipper.LeastOccupancy},
	{Name: "hash-ring", Placement: zipper.HashRing},
}

// RunPlacement runs one placement policy against the skewed scenario on the
// real platform and returns the job-wide aggregate stats (including the
// per-stager relay split behind RelayImbalance) after the stream drains.
// Everything relays (RouteStaging) and stealing is off, so endpoint
// assignment is the only variable: where each batch lands is exactly what
// the policy decided.
func RunPlacement(spoolDir string, v PlacementVariant, sc PlacementScenario) (zipper.JobStats, error) {
	job, err := zipper.NewJob(zipper.Config{
		Producers: sc.Producers, Consumers: sc.Consumers, SpoolDir: spoolDir,
		BufferBlocks: 16, Window: 2, MaxBatchBlocks: 8,
		Staging:      zipper.StagingConfig{Stagers: sc.Stagers, BufferBlocks: sc.StagerBufferBlocks, RoutePolicy: zipper.RouteStaging, Placement: v.Placement},
		DisableSteal: true,
	})
	if err != nil {
		return zipper.JobStats{}, err
	}
	var wg sync.WaitGroup
	for q := 0; q < sc.Consumers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			var sink byte
			for {
				blk, ok := job.Consumer(q).Read()
				if !ok {
					_ = sink
					return
				}
				sink ^= blk.Data[0] ^ blk.Data[len(blk.Data)-1]
				for t0 := time.Now(); time.Since(t0) < sc.Analyze; {
				}
				blk.Release()
			}
		}(q)
	}
	for p := 0; p < sc.Producers; p++ {
		go func(p int) {
			prod := job.Producer(p)
			i := 0
			for b := 0; b < sc.Bursts; b++ {
				if b > 0 {
					time.Sleep(sc.BurstPause)
				}
				for k := 0; k < sc.BurstBlocks[p]; k++ {
					data := zipper.NewPayload(sc.BlockBytes)
					data[0], data[sc.BlockBytes-1] = byte(i), byte(i>>8)
					prod.Write(i, 0, data)
					i++
				}
			}
			prod.Close()
		}(p)
	}
	wg.Wait()
	job.Wait()
	return job.Stats(), nil
}

// RunStaging pushes `blocks` blocks of blockBytes from each of `producers`
// producers through a fresh job whose single consumer busy-analyzes each
// block for `analyze` — generation deliberately outruns analysis, so the
// direct window is exhausted most of the run and the routing policy decides
// where the overflow goes: the producer's blocking buffer (WriteStall), the
// file-system steal path (BlocksStolen), or the staging tier
// (BlocksRelayed). The stager buffer is sized to hold the whole burst in
// memory — dedicated staging ranks trade RAM for producer liberation, which
// is the tier's entire bargain — while its high-water mark still exercises
// some spilling. Returns the job-wide aggregate stats after the stream
// drains.
func RunStaging(spoolDir string, v StagingVariant, producers, blocks, blockBytes int, analyze time.Duration) (zipper.JobStats, error) {
	job, err := zipper.NewJob(zipper.Config{
		Producers: producers, Consumers: 1, SpoolDir: spoolDir,
		BufferBlocks: 16, Window: 2, MaxBatchBlocks: 8,
		Staging: zipper.StagingConfig{Stagers: v.Stagers, BufferBlocks: producers * blocks, RoutePolicy: v.Policy},
	})
	if err != nil {
		return zipper.JobStats{}, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var sink byte
		for {
			blk, ok := job.Consumer(0).Read()
			if !ok {
				_ = sink
				return
			}
			sink ^= blk.Data[0] ^ blk.Data[len(blk.Data)-1]
			// Busy-analyze: a timer sleep would round the cost up to the
			// scheduler's granularity and drown the comparison in noise.
			for t0 := time.Now(); time.Since(t0) < analyze; {
			}
			blk.Release()
		}
	}()
	for p := 0; p < producers; p++ {
		go func(p int) {
			prod := job.Producer(p)
			for i := 0; i < blocks; i++ {
				data := zipper.NewPayload(blockBytes)
				data[0], data[blockBytes-1] = byte(i), byte(i>>8)
				prod.Write(i, 0, data)
			}
			prod.Close()
		}(p)
	}
	<-done
	job.Wait()
	return job.Stats(), nil
}

// WireVariant is one payload-reduction configuration of the wire
// comparison.
type WireVariant struct {
	Name   string
	Reduce zipper.ReduceConfig
}

// WireVariants is the canonical comparison: the raw relay, then the same
// stream compressed at the producer before it ever touches a socket.
var WireVariants = []WireVariant{
	{Name: "raw"},
	{Name: "compress", Reduce: zipper.ReduceConfig{Operator: zipper.ReduceCompress}},
}

// RunWire pushes `blocks` blocks of blockBytes from each of `producers`
// producers through a real-TCP staged job (every block crosses two wire
// legs: producer→stager over a socket, stager→consumer over the listener
// loopback) under the variant's reduction config. The payload is a smooth
// plateau field — the shape simulation output takes and the reason
// in-transit compression pays. Returns the job-wide stats; BytesOnWire vs
// BytesReduced is the measurement.
func RunWire(spoolDir string, v WireVariant, producers, blocks, blockBytes int) (zipper.JobStats, error) {
	job, err := zipper.NewJob(zipper.Config{
		Producers: producers, Consumers: 1, SpoolDir: spoolDir,
		TCPAddr:      "127.0.0.1:0",
		BufferBlocks: 16, Window: 2, MaxBatchBlocks: 8, DisableSteal: true,
		Staging: zipper.StagingConfig{
			Stagers: 1, BufferBlocks: producers * blocks,
			RoutePolicy: zipper.RouteStaging,
			Reduce:      v.Reduce,
		},
	})
	if err != nil {
		return zipper.JobStats{}, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var sink byte
		for {
			blk, ok := job.Consumer(0).Read()
			if !ok {
				_ = sink
				return
			}
			sink ^= blk.Data[0] ^ blk.Data[len(blk.Data)-1]
			blk.Release()
		}
	}()
	for p := 0; p < producers; p++ {
		go func(p int) {
			prod := job.Producer(p)
			for i := 0; i < blocks; i++ {
				data := zipper.NewPayload(blockBytes)
				for j := range data {
					// Plateaus 64 bytes wide, drifting with the step: locally
					// constant like a physical field, distinct across blocks.
					data[j] = byte((j / 64) + i + p)
				}
				prod.Write(i, 0, data)
			}
			prod.Close()
		}(p)
	}
	<-done
	job.Wait()
	return job.Stats(), nil
}
