// benchring records the intra-node fast-path baseline in two sections. The
// transport section pushes a single sender's batched messages through the
// SPSC ring transport and through the classic channel network at 1-, 4-,
// and 16-block batches — the per-message synchronization-overhead claim.
// The reduce section encodes the same compressible blocks through the
// single inline encoder (the pre-pipeline sender-thread behavior) and
// through the parallel reduction pipeline at GOMAXPROCS workers — the
// encode-throughput claim — and then runs a real staged job with both fast
// paths on to prove the accounting identity still holds: every raw payload
// byte is either carried on the wire or reduced away. It writes everything
// as JSON so CI and future optimization PRs have a committed reference
// point, and fails when a claim stops holding: the ring must at least
// halve ns/message on 1-block traffic, and the parallel pipeline must
// reach 1.5x inline encode throughput when the host has cores to
// parallelize across (on a serial host the gate degrades to an overhead
// bound — see reduceGate).
//
// Usage:
//
//	benchring [-o BENCH_ring.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"zipper"
	"zipper/internal/block"
	"zipper/internal/reduce"
	"zipper/internal/rt/realenv"
)

// minProcs floors GOMAXPROCS for both sections: the transport measurement
// needs the sender and receiver threads genuinely interleaving, and the
// reduce section needs room for the pipeline's workers. Like
// cmd/benchwire, the floor restores concurrent progress on small hosts —
// but it cannot mint physical cores, which is why the reduce gate consults
// runtime.NumCPU (see reduceGate). A note is printed when the floor
// engages.
const minProcs = 8

const (
	transportMessages = 500_000
	transportDepth    = 1024

	reduceRounds     = 8
	reduceBlocks     = 64
	reduceBlockBytes = 64 << 10

	identityProducers  = 4
	identityBlocks     = 60
	identityBlockBytes = 8 << 10
)

// TransportRow is one transport measurement: one sender, one receiver,
// `transportMessages` messages of a fixed batch size.
type TransportRow struct {
	Transport    string  `json:"transport"`
	BlocksPerMsg int     `json:"blocks_per_msg"`
	NsPerMessage float64 `json:"ns_per_message"`
	NsPerBlock   float64 `json:"ns_per_block"`
}

// ReduceRow is one encode-throughput measurement over the shared
// compressible workload.
type ReduceRow struct {
	Mode          string  `json:"mode"`
	Workers       int     `json:"workers"`
	Blocks        int64   `json:"blocks"`
	ThroughputMBs float64 `json:"throughput_mb_per_s"`
}

// Report is the file layout of BENCH_ring.json.
type Report struct {
	GoVersion         string         `json:"go_version"`
	NumCPU            int            `json:"num_cpu"`
	TransportMessages int            `json:"transport_messages"`
	TransportDepth    int            `json:"transport_depth"`
	ReduceRounds      int            `json:"reduce_rounds"`
	ReduceBlocks      int            `json:"reduce_blocks_per_round"`
	ReduceBlockBytes  int            `json:"reduce_block_bytes"`
	TransportRows     []TransportRow `json:"transport_rows"`
	RingSpeedup1Block float64        `json:"ring_speedup_1block"`
	ReduceRows        []ReduceRow    `json:"reduce_rows"`
	ReduceSpeedup     float64        `json:"reduce_speedup"`
	ReduceGate        float64        `json:"reduce_gate"`
	IdentityRaw       int64          `json:"identity_bytes_raw_two_legs"`
	IdentityOnWire    int64          `json:"identity_bytes_on_wire"`
	IdentityReduced   int64          `json:"identity_bytes_reduced"`
}

// transportRow measures one transport/batch-size pair, keeping the best of
// three runs: on a timeshared host a single run can absorb an unrelated
// scheduling hiccup, and the minimum is the run least polluted by it.
func transportRow(ring bool, blocksPerMsg int) TransportRow {
	name := "channel"
	if ring {
		name = "ring"
	}
	best := realenv.TransportBenchResult{}
	for rep := 0; rep < 3; rep++ {
		r := realenv.BenchTransport(ring, transportMessages, blocksPerMsg, transportDepth)
		if rep == 0 || r.NsPerMessage < best.NsPerMessage {
			best = r
		}
	}
	return TransportRow{
		Transport: name, BlocksPerMsg: blocksPerMsg,
		NsPerMessage: best.NsPerMessage, NsPerBlock: best.NsPerBlock,
	}
}

// reduceWorkload pre-builds every round's batch outside the timed region:
// plateau payloads 64 bytes wide drifting per block, the shape simulation
// output takes and the reason compression pays.
func reduceWorkload() [][]*block.Block {
	rounds := make([][]*block.Block, reduceRounds)
	for r := range rounds {
		batch := make([]*block.Block, reduceBlocks)
		for i := range batch {
			data := make([]byte, reduceBlockBytes)
			for j := range data {
				data[j] = byte((j / 64) + i + r)
			}
			batch[i] = block.New(block.ID{Rank: i % 4, Step: r, Seq: i}, 0, data)
		}
		rounds[r] = batch
	}
	return rounds
}

func reduceRow(workers int) (ReduceRow, error) {
	cfg := reduce.Config{Operator: reduce.Compress}
	rounds := reduceWorkload()
	start := time.Now()
	if workers == 0 {
		enc := reduce.NewEncoder(cfg)
		for _, batch := range rounds {
			for _, b := range batch {
				if err := enc.EncodeBlock(b); err != nil {
					return ReduceRow{}, err
				}
			}
		}
	} else {
		p := reduce.NewPipeline(cfg, workers)
		defer p.Close()
		for _, batch := range rounds {
			if err := p.EncodeBatch(batch); err != nil {
				return ReduceRow{}, err
			}
		}
	}
	elapsed := time.Since(start)
	mode := "inline"
	if workers != 0 {
		mode = "parallel"
	}
	total := int64(reduceRounds * reduceBlocks)
	for _, batch := range rounds {
		for _, b := range batch {
			if b.Enc != uint8(reduce.Compress) {
				return ReduceRow{}, fmt.Errorf("%s: block %v left unencoded", mode, b.ID)
			}
		}
	}
	row := ReduceRow{Mode: mode, Workers: workers, Blocks: total}
	if ns := elapsed.Nanoseconds(); ns > 0 {
		row.ThroughputMBs = float64(total*reduceBlockBytes) / (float64(ns) / 1e9) / 1e6
	}
	return row, nil
}

// identityRun proves the two fast paths compose without bending the
// conservation law: a staged job with the ring transport and the parallel
// pipeline both on must still account every raw byte as either on-wire or
// reduced, across both relay legs.
func identityRun() (raw, onWire, reduced int64, err error) {
	dir, err := os.MkdirTemp("", "benchring")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	job, err := zipper.NewJob(zipper.Config{
		Producers: identityProducers, Consumers: 1, SpoolDir: dir,
		BufferBlocks: 16, Window: 2, MaxBatchBlocks: 8, DisableSteal: true,
		Staging: zipper.StagingConfig{
			Stagers: 1, BufferBlocks: identityProducers * identityBlocks,
			RoutePolicy: zipper.RouteStaging,
			RingDepth:   64,
			Reduce:      zipper.ReduceConfig{Operator: zipper.ReduceCompress, Workers: -1},
		},
	})
	if err != nil {
		return 0, 0, 0, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			blk, ok := job.Consumer(0).Read()
			if !ok {
				return
			}
			blk.Release()
		}
	}()
	for p := 0; p < identityProducers; p++ {
		go func(p int) {
			prod := job.Producer(p)
			for i := 0; i < identityBlocks; i++ {
				data := zipper.NewPayload(identityBlockBytes)
				for j := range data {
					data[j] = byte((j / 64) + i + p)
				}
				prod.Write(i, 0, data)
			}
			prod.Close()
		}(p)
	}
	<-done
	job.Wait()
	st := job.Stats()
	raw = 2 * int64(identityProducers*identityBlocks) * int64(identityBlockBytes)
	return raw, st.BytesOnWire, st.BytesReduced, nil
}

// reduceGate picks the throughput gate the parallel pipeline must clear.
// With ≥ 2 physical cores the pipeline must earn its keep: 1.5x inline.
// On a serial host parallel encode cannot beat inline no matter how the
// pipeline is built — the codec is pure CPU — so the gate degrades to an
// overhead bound: the pipeline may cost at most 30% over inline. The
// committed JSON records which gate applied (reduce_gate) next to num_cpu
// so a reader comparing files across hosts sees why the numbers differ.
func reduceGate(numCPU int) float64 {
	if numCPU >= 2 {
		return 1.5
	}
	return 0.7
}

func main() {
	out := flag.String("o", "BENCH_ring.json", "output file")
	flag.Parse()
	if procs := runtime.GOMAXPROCS(0); procs < minProcs {
		runtime.GOMAXPROCS(minProcs)
		fmt.Fprintf(os.Stderr,
			"benchring: raising GOMAXPROCS %d -> %d: the transport and pipeline need concurrently progressing threads; on few-core hosts un-floored numbers describe the scheduler, not the fast path\n",
			procs, minProcs)
	}

	rep := Report{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		TransportMessages: transportMessages, TransportDepth: transportDepth,
		ReduceRounds: reduceRounds, ReduceBlocks: reduceBlocks, ReduceBlockBytes: reduceBlockBytes,
	}

	for _, blocks := range []int{1, 4, 16} {
		ch := transportRow(false, blocks)
		rg := transportRow(true, blocks)
		rep.TransportRows = append(rep.TransportRows, ch, rg)
		if blocks == 1 && rg.NsPerMessage > 0 {
			rep.RingSpeedup1Block = ch.NsPerMessage / rg.NsPerMessage
		}
		fmt.Printf("transport %2d-block: channel %8.1f ns/msg, ring %8.1f ns/msg (%.2fx)\n",
			blocks, ch.NsPerMessage, rg.NsPerMessage, ch.NsPerMessage/rg.NsPerMessage)
	}

	inline, err := reduceRow(0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchring:", err)
		os.Exit(1)
	}
	parallel, err := reduceRow(-1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchring:", err)
		os.Exit(1)
	}
	rep.ReduceRows = []ReduceRow{inline, parallel}
	if inline.ThroughputMBs > 0 {
		rep.ReduceSpeedup = parallel.ThroughputMBs / inline.ThroughputMBs
	}
	rep.ReduceGate = reduceGate(rep.NumCPU)
	fmt.Printf("reduce: inline %.1f MB/s, parallel %.1f MB/s (%.2fx, gate %.2fx on %d cpu)\n",
		inline.ThroughputMBs, parallel.ThroughputMBs, rep.ReduceSpeedup, rep.ReduceGate, rep.NumCPU)

	raw, onWire, reduced, err := identityRun()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchring: identity run:", err)
		os.Exit(1)
	}
	rep.IdentityRaw, rep.IdentityOnWire, rep.IdentityReduced = raw, onWire, reduced
	fmt.Printf("identity: %d on wire + %d reduced == %d raw\n", onWire, reduced, raw)

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchring: FAIL: "+format+"\n", args...)
		os.Exit(1)
	}
	if rep.RingSpeedup1Block < 2.0 {
		fail("ring is %.2fx channel ns/message on 1-block traffic, want ≥ 2x", rep.RingSpeedup1Block)
	}
	if rep.ReduceSpeedup < rep.ReduceGate {
		fail("parallel reduce is %.2fx inline throughput, want ≥ %.2fx (num_cpu %d)",
			rep.ReduceSpeedup, rep.ReduceGate, rep.NumCPU)
	}
	if onWire+reduced != raw {
		fail("accounting leak with ring + parallel reduce: %d on wire + %d reduced != %d raw", onWire, reduced, raw)
	}
	if reduced == 0 {
		fail("compressible payload reduced nothing through the parallel pipeline")
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchring:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchring:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}
