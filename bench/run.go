package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"zipper"
)

// epoch anchors every clock read of the driver; it is initialised with the
// package, a few milliseconds after the process starts, so it also marks
// the start of set-up.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// Payload layout: bytes 0–31 are the driver's header, the rest is copied
// from one of nTemplates pre-generated fields.
const (
	headerLen  = 32
	nTemplates = 64
	// crcEvery is the 1-in-N rate of the full-body checksum; every block
	// gets the header, length and body-edge checks.
	crcEvery = 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// rng is a splitmix64 generator: the whole run's inputs are a function of
// -seed and nothing else.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

type template struct {
	data []byte
	crc  uint32 // CRC-32C of data[headerLen:]
}

// makeTemplates builds the payload fields: smooth plateaus 64 bytes wide
// whose level drifts along the block — the shape simulation output takes
// and the one BENCH_wire.json's reduction numbers were taken on.
func makeTemplates(seed int64, blockBytes int) []template {
	r := rng(seed)
	ts := make([]template, nTemplates)
	for t := range ts {
		level, drift := byte(r.next()), byte(1+r.next()%3)
		data := make([]byte, blockBytes)
		for j := range data {
			data[j] = level + byte(j/64)*drift
		}
		ts[t] = template{data: data, crc: crc32.Checksum(data[headerLen:], castagnoli)}
	}
	return ts
}

// span is one driver-side trace record. A step span covers one step of one
// actor; its children (same step, parent set) carry the summed duration and
// call count of one kind of API call inside it, so a step's self time is
// its length minus its children's busy time.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Actor  string `json:"actor"`
	Name   string `json:"name"`
	Step   int    `json:"step"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns,omitempty"`
	Calls  int64  `json:"calls,omitempty"`
}

// tracer collects spans in memory; they are written out once, at exit.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// step records a step span and its children. busy/calls are parallel to
// names; children with no calls are skipped.
func (t *tracer) step(actor string, step int, start, end int64, names []string, busy, calls []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Actor: actor, Name: "step", Step: step, Start: start, End: end})
	for i, n := range names {
		if calls[i] == 0 {
			continue
		}
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: id, Actor: actor, Name: n, Step: step,
			Start: start, End: end, Busy: busy[i], Calls: calls[i]})
	}
}

// runResult is what one run of one workload measured. E2E holds the
// end-to-end metrics; Layer the per-layer metrics this run can see by
// itself (Job.Stats and MemStats always; driver spans and polled occupancy
// only when traced).
type runResult struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Scale          float64            `json:"scale"`
	Traced         bool               `json:"traced"`
	BlocksWritten  int64              `json:"blocks_written"`
	BlocksFailed   int64              `json:"blocks_failed"`
	Missing        int64              `json:"missing"`
	Duplicated     int64              `json:"duplicated"`
	Corrupt        int64              `json:"corrupt"`
	ConsumerErr    string             `json:"consumer_err,omitempty"`
	LatencySamples int64              `json:"latency_samples"`
	MBPerSec       float64            `json:"mb_per_s"`
	E2E            map[string]float64 `json:"e2e"`
	Layer          map[string]float64 `json:"layer"`

	spans []span
}

// ok reports whether every block arrived once and intact, nothing errored
// and the failure detector stayed quiet.
func (r *runResult) ok() bool {
	return r.BlocksFailed == 0 && r.ConsumerErr == "" && r.Layer["fault.evictions"] == 0
}

// producerOut is one producer goroutine's measurements.
type producerOut struct {
	first, closed int64 // first Write entered, Close returned
	paused        int64 // scheduled compute time
	writeBusy     int64 // summed Write call time (traced; scaled by the sample rate)
	closeDur      int64
	writeHist     hist // per-call Write durations (traced)
	late          hist // how late each burst started against its deadline
}

// consumerOut is the consumer goroutine's measurements.
type consumerOut struct {
	done                       int64 // Read returned ok=false
	latency                    hist  // write→analyzed
	readWait, analyze, release int64 // summed span time (traced; scaled by the sample rate)
	corrupt, duplicated        int64
	seen                       [][]uint64 // per-producer bitmap of sequence numbers
}

// putHeader stamps the driver's header over the first bytes of a payload.
func putHeader(data []byte, ts int64, rank, step, seq, tmpl int) {
	binary.LittleEndian.PutUint64(data[0:], uint64(ts))
	binary.LittleEndian.PutUint32(data[8:], uint32(rank))
	binary.LittleEndian.PutUint32(data[12:], uint32(step))
	binary.LittleEndian.PutUint64(data[16:], uint64(seq))
	binary.LittleEndian.PutUint32(data[24:], uint32(tmpl))
	binary.LittleEndian.PutUint32(data[28:], 0)
}

// produce is one simulation rank: bursts of Writes separated by compute
// phases slept on absolute deadlines. On a flood workload the whole stream
// is one burst.
func produce(w *workload, p *zipper.Producer, rank, blocks int, seed int64, ts []template, tr *tracer, start <-chan struct{}) *producerOut {
	out := &producerOut{}
	r := rng(seed*1_000_003 + int64(rank) + 1)
	burst, stepBlocks := blocks, w.stepBlocks()
	if w.burst > 0 {
		burst = w.burst
	}
	actor, names := fmt.Sprintf("producer%d", rank), []string{"write", "pause"}
	<-start
	out.first = nanotime()
	stepStart, busy, calls := out.first, make([]int64, 2), make([]int64, 2)
	for seq := 0; seq < blocks; seq++ {
		if tr != nil && seq > 0 && seq%stepBlocks == 0 {
			now := nanotime()
			tr.step(actor, seq/stepBlocks-1, stepStart, now, names, busy, calls)
			stepStart, busy, calls = now, make([]int64, 2), make([]int64, 2)
		}
		if seq > 0 && seq%burst == 0 {
			// Compute phase: a sleep to an absolute deadline, so that how
			// late the next burst starts is measured, not hidden.
			begin := nanotime()
			deadline := begin + int64(w.pause)
			time.Sleep(time.Duration(deadline - nanotime()))
			now := nanotime()
			out.late.add(now - deadline)
			out.paused += int64(w.pause)
			busy[1], calls[1] = now-begin, 1
		}
		x := r.next()
		tmpl := int(x % nTemplates)
		data := zipper.NewPayload(w.blockBytes)
		copy(data, ts[tmpl].data)
		// Which blocks carry a stamp is drawn, not counted: every 16th
		// block would always be the head of a batch.
		sampled := (x>>32)%uint64(w.sample) == 0
		var stamp int64
		if sampled {
			stamp = nanotime()
		}
		step := seq / stepBlocks
		putHeader(data, stamp, rank, step, seq, tmpl)
		if tr != nil && sampled {
			p.Write(step, int64(seq)*int64(w.blockBytes), data)
			d := nanotime() - stamp
			out.writeHist.add(d)
			busy[0] += d * int64(w.sample)
			calls[0] += int64(w.sample)
		} else {
			p.Write(step, int64(seq)*int64(w.blockBytes), data)
		}
	}
	t0 := nanotime()
	p.Close()
	out.closed = nanotime()
	out.closeDur = out.closed - t0
	if tr != nil {
		tr.step(actor, (blocks-1)/stepBlocks, stepStart, out.closed, names, busy, calls)
	}
	out.writeBusy = int64(out.writeHist.sum) * int64(w.sample)
	return out
}

// consume is the analysis rank: read, verify, spin for the analysis cost,
// release. Verification is part of the analysis the latency is taken to.
func consume(w *workload, c *zipper.Consumer, blocks int, ts []template, tr *tracer) *consumerOut {
	out := &consumerOut{seen: make([][]uint64, producers)}
	for i := range out.seen {
		out.seen[i] = make([]uint64, (blocks+63)/64)
	}
	names := []string{"read_wait", "analyze", "release"}
	r := rng(1)
	stepBlocks := w.stepBlocks() * producers
	stepStart, busy, calls := nanotime(), make([]int64, 3), make([]int64, 3)
	for n := 0; ; n++ {
		timed := tr != nil && r.next()%uint64(w.sample) == 0
		var t0, t1, t2 int64
		if timed {
			t0 = nanotime()
		}
		blk, ok := c.Read()
		if !ok {
			break
		}
		if timed {
			t1 = nanotime()
		}
		stamp, sampled := verify(w, &blk, blocks, ts, out)
		if w.analyze > 0 {
			for s := nanotime(); nanotime()-s < int64(w.analyze); {
			}
		}
		if sampled || timed {
			t2 = nanotime()
			if sampled {
				out.latency.add(t2 - stamp)
			}
		}
		blk.Release()
		if timed {
			t3 := nanotime()
			k := int64(w.sample)
			busy[0] += (t1 - t0) * k
			busy[1] += (t2 - t1) * k
			busy[2] += (t3 - t2) * k
			calls[0], calls[1], calls[2] = calls[0]+k, calls[1]+k, calls[2]+k
		}
		if tr != nil && (n+1)%stepBlocks == 0 {
			now := nanotime()
			tr.step("consumer0", n/stepBlocks, stepStart, now, names, busy, calls)
			out.readWait, out.analyze, out.release = out.readWait+busy[0], out.analyze+busy[1], out.release+busy[2]
			stepStart, busy, calls = now, make([]int64, 3), make([]int64, 3)
		}
	}
	out.done = nanotime()
	if tr != nil {
		tr.step("consumer0", (producers*blocks-1)/stepBlocks, stepStart, out.done, names, busy, calls)
		out.readWait, out.analyze, out.release = out.readWait+busy[0], out.analyze+busy[1], out.release+busy[2]
	}
	return out
}

// verify checks one delivered block against what its producer wrote: the
// header must name the block the runtime says it is, the length must
// match, the body's first and last 8 bytes (and every crcEvery-th block's
// whole body checksum) must match the template, and no block may arrive
// twice. It returns the write stamp and whether the block carries one (the
// producer stamps one block in w.sample).
func verify(w *workload, blk *zipper.Block, blocks int, ts []template, out *consumerOut) (stamp int64, sampled bool) {
	d := blk.Data
	if len(d) != w.blockBytes {
		out.corrupt++
		return 0, false
	}
	stamp = int64(binary.LittleEndian.Uint64(d[0:]))
	rank := int(binary.LittleEndian.Uint32(d[8:]))
	step := int(binary.LittleEndian.Uint32(d[12:]))
	seq := int(binary.LittleEndian.Uint64(d[16:]))
	tmpl := int(binary.LittleEndian.Uint32(d[24:]))
	if rank != blk.ID.Rank-w.rankBase || step != blk.ID.Step || seq != blk.ID.Seq ||
		rank < 0 || rank >= producers || seq < 0 || seq >= blocks || tmpl < 0 || tmpl >= nTemplates {
		out.corrupt++
		return 0, false
	}
	if word, bit := seq/64, uint64(1)<<(seq%64); out.seen[rank][word]&bit != 0 {
		out.duplicated++
	} else {
		out.seen[rank][word] |= bit
	}
	t := &ts[tmpl]
	n := len(d)
	if string(d[headerLen:headerLen+8]) != string(t.data[headerLen:headerLen+8]) ||
		string(d[n-8:]) != string(t.data[n-8:]) ||
		(seq%crcEvery == 0 && crc32.Checksum(d[headerLen:], castagnoli) != t.crc) {
		out.corrupt++
	}
	return stamp, stamp != 0
}

// poller samples Job.Stats every 10 ms on the traced pass: time-averaged
// queue occupancy, from which residence follows by Little's law.
type poller struct {
	stop, done         chan struct{}
	samples            int64
	consumerQ, stagerQ float64
	statsCall          int64 // summed Job.Stats call time
}

func startPoller(job *zipper.Job) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			t0 := nanotime()
			st := job.Stats()
			p.statsCall += nanotime() - t0
			p.samples++
			for _, c := range st.Consumers {
				p.consumerQ += float64(c.Queued)
			}
			for _, s := range st.Stagers {
				if !s.Drained {
					p.stagerQ += float64(s.Queued)
				}
			}
		}
	}()
	return p
}

func (p *poller) finish() {
	close(p.stop)
	<-p.done
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark. It reads VmHWM
// and not ru_maxrss: a re-executed child's ru_maxrss starts at the size its
// parent had when it forked, and the parent has run the probes.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// driveJob runs one job of blocks blocks per producer to completion and
// returns every goroutine's measurements, with the time the goroutines
// were released (t0) and the time Job.Wait returned (end).
func driveJob(w *workload, job *zipper.Job, blocks int, seed int64, ts []template, tr *tracer) (prods []*producerOut, cons *consumerOut, t0, end int64) {
	start := make(chan struct{})
	prods = make([]*producerOut, producers)
	var wg sync.WaitGroup
	for rank := 0; rank < producers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			prods[rank] = produce(w, job.Producer(rank), rank, blocks, seed, ts, tr, start)
		}(rank)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cons = consume(w, job.Consumer(0), blocks, ts, tr)
	}()
	t0 = nanotime()
	close(start)
	wg.Wait()
	job.Wait()
	return prods, cons, t0, nanotime()
}

// runWorkload is one run: set-up (spool, templates, a warm-up job pushing
// 2 % of the blocks through the same Config so the payload and
// flate-writer pools are full, then NewJob), the timed job, verification.
func runWorkload(w *workload, seed int64, scale float64, spool string, traced bool) (*runResult, error) {
	blocks := w.blocksAt(scale)
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(spool, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ts := makeTemplates(seed, w.blockBytes)

	warm := *w
	warm.pause = 0
	warmBlocks := blocks / 50
	if warmBlocks < 64 {
		warmBlocks = 64
	}
	wjob, err := zipper.NewJob(w.config(dir + "/warm"))
	if err != nil {
		return nil, err
	}
	_, wcons, _, _ := driveJob(&warm, wjob, warmBlocks, seed+1, ts, nil)
	if wcons.corrupt+wcons.duplicated > 0 {
		return nil, fmt.Errorf("%s: warm-up job delivered %d corrupt and %d duplicated blocks", w.name, wcons.corrupt, wcons.duplicated)
	}

	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	tNew := nanotime()
	job, err := zipper.NewJob(w.config(dir + "/run"))
	if err != nil {
		return nil, err
	}
	newJob := nanotime() - tNew
	var poll *poller
	if traced {
		poll = startPoller(job)
	}
	runtime.GC() // every run starts its timed region from a collected heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()

	prods, cons, t0, end := driveJob(w, job, blocks, seed, ts, tr)

	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	if poll != nil {
		poll.finish()
	}
	st := job.Stats()

	res := &runResult{Workload: w.name, Seed: seed, Scale: scale, Traced: traced,
		BlocksWritten: st.BlocksWritten, Corrupt: cons.corrupt, Duplicated: cons.duplicated,
		LatencySamples: int64(cons.latency.n)}
	for _, bm := range cons.seen {
		got := 0
		for _, word := range bm {
			got += bits.OnesCount64(word)
		}
		res.Missing += int64(blocks - got)
	}
	res.BlocksFailed = res.Missing + res.Duplicated + res.Corrupt
	if err := job.Consumer(0).Err(); err != nil {
		res.ConsumerErr = err.Error()
	}
	if st.BlocksWritten != int64(producers*blocks) {
		res.ConsumerErr += fmt.Sprintf(" runtime counted %d blocks written, driver wrote %d", st.BlocksWritten, producers*blocks)
	}

	t2s := float64(end-t0) / 1e9
	var simIO float64
	for _, p := range prods {
		if io := float64(p.closed-p.first-p.paused) / 1e9; io > simIO {
			simIO = io
		}
	}
	res.MBPerSec = float64(producers*blocks) * float64(w.blockBytes) / 1e6 / t2s
	res.E2E = map[string]float64{
		"setup_s":        float64(t0) / 1e9,
		"t2s_s":          t2s,
		"sim_io_s":       simIO,
		"latency_p50_ms": cons.latency.quantile(0.50) / 1e6,
		"latency_p99_ms": cons.latency.quantile(0.99) / 1e6,
		"cpu_s":          cpu,
		"peak_rss_mb":    peakRSSMB(),
	}
	res.Layer = statsLayer(st)
	total := float64(producers * blocks)
	res.Layer["go.alloc_bytes_per_block"] = float64(m1.TotalAlloc-m0.TotalAlloc) / total
	res.Layer["go.mallocs_per_block"] = float64(m1.Mallocs-m0.Mallocs) / total
	res.Layer["go.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	res.Layer["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	var late hist
	for _, p := range prods {
		late.merge(&p.late)
	}
	res.Layer["driver.gen_late_p99_ms"] = late.quantile(0.99) / 1e6
	if traced {
		var writes hist
		var writeBusy, closeDur int64
		for _, p := range prods {
			writes.merge(&p.writeHist)
			writeBusy = max(writeBusy, p.writeBusy)
			closeDur = max(closeDur, p.closeDur)
		}
		res.Layer["zipper.new_job_ms"] = float64(newJob) / 1e6
		res.Layer["zipper.write_call_s"] = float64(writeBusy) / 1e9
		res.Layer["zipper.write_call_p99_us"] = writes.quantile(0.99) / 1e3
		res.Layer["zipper.close_s"] = float64(closeDur) / 1e9
		res.Layer["zipper.read_wait_s"] = float64(cons.readWait) / 1e9
		res.Layer["zipper.release_s"] = float64(cons.release) / 1e9
		res.Layer["zipper.wait_tail_s"] = float64(end-cons.done) / 1e9
		res.Layer["driver.analyze_s"] = float64(cons.analyze) / 1e9
		if poll.samples > 0 {
			n := float64(poll.samples)
			rate := total / t2s
			res.Layer["zipper.stats_call_us"] = float64(poll.statsCall) / n / 1e3
			res.Layer["core.consumer_queue_avg"] = poll.consumerQ / n
			res.Layer["core.consumer_residence_ms"] = poll.consumerQ / n / rate * 1e3
			res.Layer["staging.queue_avg"] = poll.stagerQ / n
			res.Layer["staging.residence_ms"] = poll.stagerQ / n / rate * 1e3
		}
		res.spans = tr.spans
	}
	return res, nil
}

// statsLayer turns the job's final Stats into per-layer metrics.
func statsLayer(st zipper.JobStats) map[string]float64 {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	written := float64(st.BlocksWritten)
	var viaDisk, in, forwarded, out, maxQ, bursts float64
	for _, c := range st.Consumers {
		viaDisk += float64(c.BlocksRead)
	}
	for _, s := range st.Stagers {
		in += float64(s.BlocksIn)
		forwarded += float64(s.BlocksForwarded)
		out += float64(s.MessagesOut)
		bursts += float64(s.ReduceBursts)
		if q := float64(s.MaxQueued); q > maxQ {
			maxQ = q
		}
	}
	raw := float64(st.BytesOnWire + st.BytesReduced)
	return map[string]float64{
		"core.blocks_sent":        float64(st.BlocksSent),
		"core.blocks_relayed":     float64(st.BlocksRelayed),
		"core.blocks_stolen":      float64(st.BlocksStolen),
		"core.via_disk_frac":      div(viaDisk, written),
		"core.messages":           float64(st.Messages),
		"core.blocks_per_msg":     div(float64(st.BlocksSent+st.BlocksRelayed), float64(st.Messages)),
		"core.write_stall_s":      st.WriteStall,
		"realenv.bytes_on_wire":   float64(st.BytesOnWire),
		"staging.blocks_in":       in,
		"staging.blocks_spilled":  float64(st.BlocksSpilled),
		"staging.spill_frac":      div(float64(st.BlocksSpilled), in),
		"staging.rebatch_ratio":   div(forwarded, out),
		"staging.max_queued":      maxQ,
		"staging.relay_imbalance": st.RelayImbalance,
		"staging.reduce_bursts":   bursts,
		"reduce.ratio":            max(1, div(raw, float64(st.BytesOnWire))),
		"reduce.bytes_reduced":    float64(st.BytesReduced), // for the budget, not a named metric
		"flow.staging_share":      div(float64(st.BlocksRelayed), written),
		"elastic.scale_events":    float64(len(st.ScaleEvents)),
		"elastic.node_seconds":    st.StagerNodeSeconds,
		"fault.evictions":         float64(st.Evictions),
	}
}
