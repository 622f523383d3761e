package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"zipper"
	"zipper/internal/block"
	"zipper/internal/exp"
	"zipper/internal/flow"
	"zipper/internal/place"
	"zipper/internal/reduce"
	"zipper/internal/rt"
	"zipper/internal/rt/realenv"
	"zipper/internal/staging"
	"zipper/internal/workflow"
)

// Unit-cost probes: direct timed calls into each layer's exported
// functions at one workload's block size and batch shape. They look at the
// layers from outside and change nothing inside them; a probe that stops
// compiling means the layer's API moved and the benchmark needs its own
// change.

// probeBudget is how long one timing loop runs (tests pass less).
const probeBudget = 150 * time.Millisecond

// perOp runs fn in batches of batch calls until budget has passed and
// returns the nanoseconds one call took.
func perOp(budget time.Duration, batch int, fn func()) float64 {
	for i := 0; i < batch; i++ { // warm caches and pools
		fn()
	}
	var n int
	start := nanotime()
	for nanotime()-start < int64(budget) {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
	}
	return float64(nanotime()-start) / float64(n)
}

// runProbes takes every unit cost at w's shape. dir is a scratch directory
// on the run's spool file system; budget is how long each timing loop runs.
func runProbes(w *workload, dir string, seed int64, budget time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	cfg := w.config("")
	batch := cfg.MaxBatchBlocks
	ts := makeTemplates(seed, w.blockBytes)
	c := realenv.New().Ctx()

	m["block.pool_cycle_ns"] = perOp(budget, 1024, func() {
		b := block.New(block.ID{}, 0, block.GetPayload(w.blockBytes))
		b.Release()
	})
	r := rng(seed)
	m["driver.fill_ns_per_block"] = perOp(budget, 256, func() {
		tmpl := int(r.next() % nTemplates)
		data := zipper.NewPayload(w.blockBytes)
		copy(data, ts[tmpl].data)
		putHeader(data, nanotime(), 0, 0, 0, tmpl)
		block.New(block.ID{}, 0, data).Release()
	})
	{
		out := &consumerOut{seen: [][]uint64{make([]uint64, 1), make([]uint64, 1)}}
		data := append([]byte(nil), ts[0].data...)
		putHeader(data, 0, 0, 0, 0, 0)
		blk := zipper.Block{Data: data}
		// seq 0 takes the full-checksum path; weigh it 1 in crcEvery.
		full := perOp(budget, 256, func() { verify(w, &blk, 1, ts, out) })
		putHeader(data, 0, 0, 0, 1, 0)
		blk.ID.Seq = 1
		edge := perOp(budget, 256, func() { verify(w, &blk, 2, ts, out) })
		m["driver.verify_ns_per_block"] = (full + float64(crcEvery-1)*edge) / crcEvery
	}

	const depth = 64
	m["realenv.chan_ns_per_msg"] = realenv.BenchTransport(false, 200_000, batch, depth).NsPerMessage
	m["realenv.ring_ns_per_msg"] = realenv.BenchTransport(true, 200_000, batch, depth).NsPerMessage
	frames := 64 << 20 / (batch * w.blockBytes)
	m["realenv.frame_write_ns_per_block"] = realenv.BenchWriteFrame(frames, batch, w.blockBytes, 0).NsPerBlock

	fs, err := realenv.NewFileStore(filepath.Join(dir, "filestore"))
	if err != nil {
		return nil, err
	}
	// File-per-block cost at the raw block size and at the size a
	// flate-encoded block spills at.
	m["reduce.probe_ratio"] = probeRatio(ts)
	small := int(float64(w.blockBytes) / m["reduce.probe_ratio"])
	for _, sz := range []struct {
		key   string
		bytes int
	}{{"realenv.filestore", w.blockBytes}, {"realenv.filestore_encoded", small}} {
		const n, rounds = 512, 5
		blocks := make([]*block.Block, n)
		for i := range blocks {
			blocks[i] = block.New(block.ID{Rank: 0, Step: 0, Seq: i}, 0, ts[i%nTemplates].data[:sz.bytes])
		}
		var writes, reads []float64
		for round := 0; round < rounds; round++ {
			start := nanotime()
			for _, b := range blocks {
				if err := fs.WriteBlock(c, b); err != nil {
					return nil, err
				}
			}
			wrote := nanotime()
			for _, b := range blocks {
				if _, err := fs.ReadBlock(c, b.ID, b.Bytes); err != nil {
					return nil, err
				}
			}
			read := nanotime()
			for _, b := range blocks {
				if err := fs.RemoveBlock(c, b.ID); err != nil {
					return nil, err
				}
			}
			writes = append(writes, float64(wrote-start)/n/1e3)
			reads = append(reads, float64(read-wrote)/n/1e3)
		}
		m[sz.key+"_write_us"], m[sz.key+"_read_us"] = median(writes), median(reads)
	}

	if m["staging.replay_us_per_block"], err = probeReplay(filepath.Join(dir, "replay"), ts, batch); err != nil {
		return nil, err
	}
	if err := probeReduce(m, ts, batch, budget); err != nil {
		return nil, err
	}

	router := flow.NewAdaptive(flow.Tuning{})
	sig := flow.Signals{Backlog: 4, Capacity: 16, HighWater: 12, Credits: 1, StagerCredits: 2,
		StagerQueued: 100, StagerCapacity: 256, Batch: batch}
	m["flow.route_ns"] = perOp(budget, 1024, func() {
		sig.Now += time.Microsecond
		router.Route(sig)
	})
	levels := []flow.Level{flow.NewLevel(256, 0), flow.NewLevel(256, 0)}
	dir2 := place.New(place.LeastOccupancy(), func(addr int) *flow.Level { return &levels[addr] })
	dir2.Add(0)
	dir2.Add(1)
	m["place.claim_ns"] = perOp(budget, 1024, func() {
		addr, _ := dir2.Claim(0)
		dir2.Done(addr)
	})

	// The runtime's own CPU per block at this shape: the workload's own
	// producer and consumer knobs on a direct in-situ job, then the same job
	// relayed through one plain stager. Each takes its messages' transport
	// cost out, so the budget's rows do not overlap. The stager's buffer
	// holds the whole probe, so the relay never spills: spill is filestore
	// cost, priced in its own row.
	n := 128 << 20 / w.blockBytes / producers
	direct := w.config(filepath.Join(dir, "direct"))
	direct.TCPAddr, direct.DisableSteal = "", true
	direct.Staging, direct.Fault = zipper.StagingConfig{}, zipper.FaultConfig{}
	relay := direct
	relay.SpoolDir = filepath.Join(dir, "relay")
	relay.Staging = zipper.StagingConfig{Stagers: 1, BufferBlocks: 2 * producers * n, RoutePolicy: zipper.RouteStaging}
	flood := &workload{name: "probe", blockBytes: w.blockBytes, sample: 1 << 30}
	// One short job's CPU time swings with whatever else the host is doing;
	// the median of five does not.
	cpuPerBlock := func(cfg zipper.Config) (float64, error) {
		var tries []float64
		for try := 0; try < 5; try++ {
			job, err := zipper.NewJob(cfg)
			if err != nil {
				return 0, err
			}
			cpu0 := cpuSeconds()
			_, cons, _, _ := driveJob(flood, job, n, seed, ts, nil)
			cpu := cpuSeconds() - cpu0
			st := job.Stats()
			if cons.corrupt+cons.duplicated > 0 || st.BlocksAnalyzed != int64(producers*n) {
				return 0, fmt.Errorf("probe job lost or damaged blocks")
			}
			msgs := float64(st.Messages)
			for _, s := range st.Stagers {
				msgs += float64(s.MessagesOut)
			}
			own := float64(producers*n) * (m["driver.fill_ns_per_block"] + m["driver.verify_ns_per_block"])
			tries = append(tries, (cpu*1e9-msgs*m["realenv.chan_ns_per_msg"]-own)/float64(producers*n))
		}
		return median(tries), nil
	}
	if m["core.cpu_ns_per_block"], err = cpuPerBlock(direct); err != nil {
		return nil, err
	}
	relayed, err := cpuPerBlock(relay)
	if err != nil {
		return nil, err
	}
	m["staging.relay_cpu_ns_per_block"] = max(0, relayed-m["core.cpu_ns_per_block"])

	if err := probeRecovery(m, filepath.Join(dir, "recovery"), seed, ts, w.blockBytes); err != nil {
		return nil, err
	}
	if err := probeFleet(m, filepath.Join(dir, "fleet"), seed, ts, w.blockBytes); err != nil {
		return nil, err
	}

	// The simulated platform on the paper's Stampede2 CFD configuration:
	// virtual time repeats bit for bit, so a change that moves it changed
	// the protocol, not the speed of this host.
	start := nanotime()
	res := workflow.RunZipper(exp.CFDStampede2(204, 10))
	if !res.OK {
		return nil, fmt.Errorf("simulated workflow failed: %s", res.Fail)
	}
	m["workflow.sim_wall_s"] = float64(nanotime()-start) / 1e9
	m["workflow.sim_t2s_virtual_s"] = res.E2E.Seconds()
	return m, nil
}

// probeReplay prices the write-ahead journal's round trip: a managed,
// journaling stager admits 1,000 blocks nobody drains, is killed, and
// staging.Replay re-forwards what it stranded. The result is the admission
// time per block plus the replay time per replayed block.
func probeReplay(dir string, ts []template, batch int) (float64, error) {
	const blocks = 1000
	spill, err := realenv.NewFileStore(dir)
	if err != nil {
		return 0, err
	}
	env := realenv.New()
	c := env.Ctx()
	net := realenv.NewNetwork(2, 4) // endpoint 0: the consumer inbox; 1: the stager
	journal := staging.NewJournal()
	st := staging.NewStager(env, staging.Config{BufferBlocks: 2 * blocks, MaxBatchBlocks: batch,
		Managed: true, Journal: journal}, 0, net.Inbox(1), net.Port(), spill)
	start := nanotime()
	for seq := 0; seq < blocks; {
		msg := rt.Message{From: 0, Dest: 0}
		for k := 0; k < batch && seq < blocks; k, seq = k+1, seq+1 {
			data := zipper.NewPayload(len(ts[0].data))
			copy(data, ts[seq%nTemplates].data)
			msg.Blocks = append(msg.Blocks, block.New(block.ID{Rank: 0, Step: 0, Seq: seq}, 0, data))
		}
		net.Send(c, 1, msg)
	}
	for st.Stats(c).BlocksIn < blocks {
		time.Sleep(50 * time.Microsecond)
	}
	admitted := nanotime() - start
	st.Kill(c)
	// Only now drain the consumer inbox: the forwarder was parked on its
	// window, so nearly everything admitted is still owed.
	var got int64
	var drain sync.WaitGroup
	drain.Add(1)
	go func() {
		defer drain.Done()
		in := net.Inbox(0)
		for {
			msg, ok := in.Recv(c)
			if !ok || msg.Retire {
				return
			}
			for _, b := range msg.Blocks {
				got++
				b.Release()
			}
		}
	}()
	if st.NeedsRetire(c) {
		net.Send(c, 1, rt.Message{Retire: true})
	}
	st.Wait(c)
	t0 := nanotime()
	replayed, _, lost := staging.Replay(c, journal, spill, net)
	replay := nanotime() - t0
	net.Send(c, 0, rt.Message{Retire: true}) // ends the drain goroutine
	drain.Wait()
	if lost != 0 || got != blocks || replayed == 0 {
		return 0, fmt.Errorf("replay probe: %d of %d blocks arrived, %d replayed, %d lost", got, blocks, replayed, lost)
	}
	return (float64(admitted)/blocks + float64(replay)/float64(replayed)) / 1e3, nil
}

// probeRatio is how far flate shrinks the workload's payloads.
func probeRatio(ts []template) float64 {
	enc := reduce.NewEncoder(reduce.Config{Operator: reduce.Compress})
	var raw, wire int64
	for i := range ts {
		data := zipper.NewPayload(len(ts[i].data))
		copy(data, ts[i].data)
		b := block.New(block.ID{Seq: i}, 0, data)
		if err := enc.EncodeBlock(b); err != nil {
			return 1
		}
		raw, wire = raw+b.Bytes, wire+b.WireBytes()
		b.Release()
	}
	return float64(raw) / float64(wire)
}

// probeReduce prices the flate operator on the workload's payloads: encode
// and decode per block, and the shared worker pool against inline encoding
// of one batch.
func probeReduce(m map[string]float64, ts []template, batch int, budget time.Duration) error {
	cfg := reduce.Config{Operator: reduce.Compress}
	enc, dec := reduce.NewEncoder(cfg), reduce.NewDecoder()
	fresh := func(i int) *block.Block {
		data := zipper.NewPayload(len(ts[0].data))
		copy(data, ts[i%nTemplates].data)
		return block.New(block.ID{Seq: i}, 0, data)
	}
	var encNs, decNs int64
	var n int
	for start := nanotime(); nanotime()-start < int64(budget); n++ {
		b := fresh(n)
		t0 := nanotime()
		if err := enc.EncodeBlock(b); err != nil {
			return err
		}
		t1 := nanotime()
		if err := dec.DecodeBlock(b); err != nil {
			return err
		}
		encNs, decNs = encNs+t1-t0, decNs+nanotime()-t1
		b.Release()
	}
	m["reduce.encode_us_per_block"] = float64(encNs) / float64(n) / 1e3
	m["reduce.decode_us_per_block"] = float64(decNs) / float64(n) / 1e3

	pipe := reduce.NewPipeline(cfg, -1)
	defer pipe.Close()
	var inlineNs, pipeNs int64
	var firstErr error
	for start := nanotime(); nanotime()-start < int64(budget); {
		a, b := make([]*block.Block, batch), make([]*block.Block, batch)
		for i := range a {
			a[i], b[i] = fresh(i), fresh(i)
		}
		t0 := nanotime()
		for _, blk := range a {
			if err := enc.EncodeBlock(blk); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		t1 := nanotime()
		if err := pipe.EncodeBatch(b); err != nil && firstErr == nil {
			firstErr = err
		}
		inlineNs, pipeNs = inlineNs+t1-t0, pipeNs+nanotime()-t1
		for i := range a {
			a[i].Release()
			b[i].Release()
		}
	}
	m["reduce.pipeline_speedup"] = float64(inlineNs) / float64(pipeNs)
	return firstErr
}

// probeRecovery crashes one of two stagers in the middle of a 20,000-block
// relay job and times crash → journal replayed. Recovery has no end-to-end
// workload by design: a kill made t2s_s three times as noisy.
func probeRecovery(m map[string]float64, dir string, seed int64, ts []template, blockBytes int) error {
	cfg := base(dir)
	cfg.BufferBlocks, cfg.Window, cfg.DisableSteal = 16, 4, true
	cfg.Staging = zipper.StagingConfig{Stagers: 2, BufferBlocks: 256, RoutePolicy: zipper.RouteStaging}
	// Detector timings loose enough that a loaded host does not evict the
	// healthy stager too; recovery time is mostly the lease running out.
	cfg.Fault = zipper.FaultConfig{Enabled: true, Heartbeat: 5 * time.Millisecond, LeaseTTL: 100 * time.Millisecond}
	job, err := zipper.NewJob(cfg)
	if err != nil {
		return err
	}
	const blocks = 20_000 / producers
	// A consumer slower than the producers keeps blocks resident in the
	// victim, so the replay has work.
	w := &workload{name: "probe", blockBytes: blockBytes, sample: 1 << 30, analyze: 20 * time.Microsecond}
	replays := func() (n int) {
		for _, ev := range job.Stats().FailoverEvents {
			if ev.Kind == "replay" {
				n++
			}
		}
		return n
	}
	var recovery int64
	var inject sync.WaitGroup
	inject.Add(1)
	go func() {
		defer inject.Done()
		for job.Stats().BlocksAnalyzed < blocks/2 {
			time.Sleep(time.Millisecond)
		}
		before := replays()
		if !job.InjectStagerCrash(0) {
			return
		}
		crash := nanotime()
		for nanotime() < crash+int64(10*time.Second) {
			if replays() > before {
				recovery = nanotime() - crash
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	_, cons, _, _ := driveJob(w, job, blocks, seed, ts, nil)
	inject.Wait()
	st := job.Stats()
	if recovery == 0 || cons.corrupt+cons.duplicated > 0 {
		return fmt.Errorf("recovery probe: no replay observed (evictions %d, corrupt %d, duplicated %d)",
			st.Evictions, cons.corrupt, cons.duplicated)
	}
	m["fault.recovery_ms"] = float64(recovery) / 1e6
	m["fault.recovery_blocks_lost"] = float64(st.BlocksLost + int64(producers*blocks) - st.BlocksAnalyzed)
	return nil
}

// probeFleet runs three 10,000-block jobs at once on one shared two-stager
// fleet: the multi-job control plane, which no end-to-end workload covers.
func probeFleet(m map[string]float64, dir string, seed int64, ts []template, blockBytes int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fleet, err := zipper.NewFleet(zipper.FleetConfig{Stagers: 2, StagerBufferBlocks: 256, SpoolDir: dir,
		MaxBatchBlocks: 8})
	if err != nil {
		return err
	}
	const blocks = 10_000 / producers
	prios := []zipper.Priority{zipper.PriorityLow, zipper.PriorityNormal, zipper.PriorityHigh}
	errs := make([]error, len(prios))
	var wg sync.WaitGroup
	start := nanotime()
	for i, prio := range prios {
		cfg := zipper.Config{Producers: producers, Consumers: consumers, BufferBlocks: 16, Window: 4,
			MaxBatchBlocks: 8, DisableSteal: true, Quota: zipper.QuotaConfig{Priority: prio}}
		cfg.Staging.RoutePolicy = zipper.RouteStaging
		job, err := fleet.Submit(cfg)
		if err != nil {
			fleet.Close()
			return err
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &workload{name: "probe", blockBytes: blockBytes, sample: 1 << 30, rankBase: i * producers}
			_, cons, _, _ := driveJob(w, job, blocks, seed+int64(i), ts, nil)
			if st := job.Stats(); cons.corrupt+cons.duplicated > 0 || st.BlocksAnalyzed != producers*blocks {
				errs[i] = fmt.Errorf("fleet probe: job %d analysed %d of %d blocks", i, st.BlocksAnalyzed, producers*blocks)
			}
		}(i)
	}
	wg.Wait()
	m["control.fleet_t2s_s"] = float64(nanotime()-start) / 1e9
	fleet.Close()
	m["control.preemptions"] = float64(fleet.Stats().Preemptions)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
