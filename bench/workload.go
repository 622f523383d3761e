package main

import (
	"math"
	"time"

	"zipper"
)

// Load shape shared by every workload: a closed loop of P producer
// goroutines that each write their next block only after Producer.Write
// returns, and Q consumer goroutines — the paper's 2:1 rank ratio at its
// smallest, the minimum that still has fan-in.
const (
	producers = 2
	consumers = 1

	// floodStep is how many blocks make one "step" (and one driver span) on
	// a flood workload; on a bursty workload a step is a burst.
	floodStep = 4096

	// refSeconds is what a run at -scale 1 takes, to the nearest few
	// seconds, on the reference host (see README.md). -seconds maps to a
	// scale through it.
	refSeconds = 25.0
)

// workload is one named benchmark scenario. Names are fixed: later issues
// cite them verbatim.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	blocks     int // per producer at scale 1
	blockBytes int
	// burst > 0 makes the workload bursty: each producer writes burst
	// blocks, then "computes" for pause (a sleep on an absolute deadline)
	// before the next burst. blocks/burst bursts at scale 1.
	burst int
	pause time.Duration
	// analyze is the consumer's busy-spin per block (a timer sleep would
	// round up to scheduler granularity).
	analyze time.Duration
	// sample is the 1-in-N rate of the per-block clock reads (latency
	// stamps and, on the traced pass, per-call spans): 1 everywhere except
	// the smallest-block flood, where a clock read per block would be a
	// tenth of the work measured.
	sample int
	// rankBase is what the runtime's producer ranks start at: 0 in a job of
	// its own, the job's global rank offset on a shared fleet.
	rankBase int

	config func(spool string) zipper.Config
}

// blocksAt is the per-producer block count at a scale: whole bursts on a
// bursty workload (at least two, so there is a compute phase), at least one
// step otherwise.
func (w *workload) blocksAt(scale float64) int {
	if w.burst > 0 {
		bursts := int(math.Round(float64(w.blocks/w.burst) * scale))
		if bursts < 2 {
			bursts = 2
		}
		return bursts * w.burst
	}
	n := int(math.Round(float64(w.blocks) * scale))
	if n < 64 {
		n = 64
	}
	return n
}

// stepBlocks is the number of blocks per step (the Step of every BlockID
// and the unit of a driver span).
func (w *workload) stepBlocks() int {
	if w.burst > 0 {
		return w.burst
	}
	return floodStep
}

func base(spool string) zipper.Config {
	return zipper.Config{Producers: producers, Consumers: consumers, SpoolDir: spool, MaxBatchBlocks: 8}
}

// quietFault is the failure detector on timings that a loaded but healthy
// run never trips: the default 500 µs heartbeat / 2 ms TTL evicts live
// stagers whenever the scheduler is late, and an eviction makes a run
// invalid here.
var quietFault = zipper.FaultConfig{Enabled: true, Heartbeat: 10 * time.Millisecond, LeaseTTL: time.Second}

var workloads = []*workload{
	{
		name: "insitu-flood",
		why: "The paper's message path alone at the smallest block, so per-message cost dominates; bypasses staging, " +
			"reduce, place, elastic, fault, FileStore and TCP: changes there must leave it flat.",
		blocks: 8_000_000, blockBytes: 4 << 10, sample: 16,
		config: func(spool string) zipper.Config {
			c := base(spool)
			c.BufferBlocks, c.Window, c.DisableSteal = 64, 4, true
			return c
		},
	},
	{
		name: "relay-fault-flood",
		why: "Every block crosses a pool-managed, fault-protected, ring-connected stager tier: the relay hop, " +
			"the per-block write-ahead journal, per-batch placement claims and spill do the work.",
		blocks: 550_000, blockBytes: 16 << 10, sample: 1,
		config: func(spool string) zipper.Config {
			c := base(spool)
			c.BufferBlocks, c.Window, c.DisableSteal = 16, 4, true
			c.Staging = zipper.StagingConfig{Stagers: 2, BufferBlocks: 256, RoutePolicy: zipper.RouteStaging,
				Placement: zipper.LeastOccupancy, RingDepth: 64}
			c.Fault = quietFault
			return c
		},
	},
	{
		name: "wire-compress",
		why: "Loopback TCP plus producer-side flate on every block and decode at the consumer, through a fixed " +
			"rank-affine stager: reduce and the frame-v5 writer/reader dominate; no place, elastic, fault or ring.",
		blocks: 150_000, blockBytes: 64 << 10, sample: 1,
		config: func(spool string) zipper.Config {
			c := base(spool)
			c.TCPAddr = "127.0.0.1:0"
			c.BufferBlocks, c.Window, c.DisableSteal = 16, 2, true
			c.Staging = zipper.StagingConfig{Stagers: 1, BufferBlocks: 256, RoutePolicy: zipper.RouteStaging,
				Reduce: zipper.ReduceConfig{Operator: zipper.ReduceCompress}}
			return c
		},
	},
	{
		name: "fullstack-bursty",
		why: "Every tier on at once (adaptive routing, elastic pool, placement, fault, reduce-on-pressure, ring, " +
			"stealing) under bursts that a 100 us/block analysis drains between compute phases: burst absorption.",
		blocks: 60_000, blockBytes: 32 << 10, sample: 1,
		burst: 1000, pause: 300 * time.Millisecond, analyze: 100 * time.Microsecond,
		config: func(spool string) zipper.Config {
			c := base(spool)
			c.BufferBlocks, c.Window = 16, 2
			c.Staging = zipper.StagingConfig{Stagers: 2, BufferBlocks: 256, RoutePolicy: zipper.RouteAdaptive,
				Placement: zipper.LeastOccupancy, RingDepth: 64,
				Elastic: zipper.ElasticConfig{Enabled: true, MinStagers: 1, MaxStagers: 2},
				Reduce:  zipper.ReduceConfig{Operator: zipper.ReduceCompress, OnPressure: true}}
			c.Fault = quietFault
			return c
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
