package zipper

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"zipper/internal/floatbuf"
)

func TestJobValidation(t *testing.T) {
	dir := t.TempDir()
	base := Config{Producers: 1, Consumers: 1, SpoolDir: dir}
	bad := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero producers", func(c *Config) { c.Producers = 0 }},
		{"more consumers than producers", func(c *Config) { c.Consumers = 2 }},
		{"missing spool dir", func(c *Config) { c.SpoolDir = "" }},
		{"negative BufferBlocks", func(c *Config) { c.BufferBlocks = -1 }},
		{"negative HighWater", func(c *Config) { c.HighWater = -4 }},
		{"HighWater above BufferBlocks", func(c *Config) { c.BufferBlocks = 8; c.HighWater = 9 }},
		{"HighWater above the default buffer", func(c *Config) { c.HighWater = 9 }},
		{"negative ConsumerBufferBlocks", func(c *Config) { c.ConsumerBufferBlocks = -1 }},
		{"negative MaxBatchBlocks", func(c *Config) { c.MaxBatchBlocks = -2 }},
		{"negative Window", func(c *Config) { c.Window = -1 }},
		{"negative Stagers", func(c *Config) { c.Staging.Stagers = -1 }},
		{"negative StagerBufferBlocks", func(c *Config) { c.Staging.BufferBlocks = -1 }},
		{"RoutePolicy out of range", func(c *Config) { c.Staging.RoutePolicy = RoutePolicy(7) }},
		{"staging policy without stagers", func(c *Config) { c.Staging.RoutePolicy = RouteHybrid }},
	}
	for _, tc := range bad {
		cfg := base
		tc.mut(&cfg)
		if _, err := NewJob(cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		} else if err.Error() == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
	// The boundary cases that must stay legal.
	ok := []func(*Config){
		func(c *Config) { c.BufferBlocks = 8; c.HighWater = 8 }, // clamped, not rejected
		func(c *Config) { c.HighWater = 8 },                     // the default buffer: clamped too
		func(c *Config) { c.Staging.Stagers = 2; c.Staging.RoutePolicy = RouteHybrid },
	}
	for i, mut := range ok {
		cfg := base
		mut(&cfg)
		job, err := NewJob(cfg)
		if err != nil {
			t.Errorf("legal config %d rejected: %v", i, err)
			continue
		}
		job.Producer(0).Close()
		for {
			if _, open := job.Consumer(0).Read(); !open {
				break
			}
		}
		job.Wait()
	}
}

func TestJobRoundTrip(t *testing.T) {
	job, err := NewJob(Config{Producers: 3, Consumers: 2, SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 8
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := job.Producer(i)
			for s := 0; s < steps; s++ {
				p.Write(s, int64(s), floatbuf.Encode([]float64{float64(i), float64(s)}))
			}
			p.Close()
		}()
	}
	var mu sync.Mutex
	got := map[BlockID][]float64{}
	var cwg sync.WaitGroup
	for q := 0; q < 2; q++ {
		q := q
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				blk, ok := job.Consumer(q).Read()
				if !ok {
					return
				}
				mu.Lock()
				got[blk.ID] = floatbuf.Decode(blk.Data)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cwg.Wait()
	job.Wait()
	if len(got) != 3*steps {
		t.Fatalf("got %d blocks, want %d", len(got), 3*steps)
	}
	for id, vals := range got {
		if vals[0] != float64(id.Rank) || vals[1] != float64(id.Step) {
			t.Fatalf("block %+v corrupted: %v", id, vals)
		}
	}
	for q := 0; q < 2; q++ {
		if err := job.Consumer(q).Err(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJobStealingVisibleInStats(t *testing.T) {
	job, err := NewJob(Config{
		Producers: 1, Consumers: 1, SpoolDir: t.TempDir(),
		BufferBlocks: 4, HighWater: 2, Window: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	go func() {
		p := job.Producer(0)
		for s := 0; s < n; s++ {
			p.Write(s, 0, make([]byte, 2048))
		}
		p.Close()
	}()
	viaDisk := 0
	for {
		blk, ok := job.Consumer(0).Read()
		if !ok {
			break
		}
		if blk.ViaDisk {
			viaDisk++
		}
		time.Sleep(2 * time.Millisecond)
	}
	job.Wait()
	ps := job.Producer(0).Stats()
	cs := job.Consumer(0).Stats()
	if ps.BlocksStolen == 0 {
		t.Fatal("no stealing under slow consumer")
	}
	if int64(viaDisk) != ps.BlocksStolen || cs.BlocksRead != ps.BlocksStolen {
		t.Fatalf("disk-path accounting mismatch: viaDisk=%d stolen=%d read=%d",
			viaDisk, ps.BlocksStolen, cs.BlocksRead)
	}
	if ps.BlocksWritten != n || cs.BlocksAnalyzed != n {
		t.Fatalf("written=%d analyzed=%d want %d", ps.BlocksWritten, cs.BlocksAnalyzed, n)
	}
}

func TestJobBatchingAndPooledPayloads(t *testing.T) {
	// The full public-API loop: pooled payloads written by the producer,
	// batched over the network, verified and released by the consumer. The
	// release/rewrite cycle must never corrupt a block in flight.
	job, err := NewJob(Config{
		Producers: 2, Consumers: 1, SpoolDir: t.TempDir(),
		BufferBlocks: 16, MaxBatchBlocks: 8, Window: 1, DisableSteal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 200
	const blockBytes = 1024
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := job.Producer(i)
			for s := 0; s < steps; s++ {
				data := NewPayload(blockBytes)
				for j := range data {
					data[j] = byte(i ^ s)
				}
				p.Write(s, 0, data)
			}
			p.Close()
		}()
	}
	n := 0
	for {
		blk, ok := job.Consumer(0).Read()
		if !ok {
			break
		}
		want := byte(blk.ID.Rank ^ blk.ID.Step)
		for _, v := range blk.Data {
			if v != want {
				t.Fatalf("block %+v corrupted: %d != %d", blk.ID, v, want)
			}
		}
		blk.Release()
		n++
	}
	wg.Wait()
	job.Wait()
	if n != 2*steps {
		t.Fatalf("analyzed %d blocks, want %d", n, 2*steps)
	}
	ps := job.Producer(0).Stats()
	if ps.Messages == 0 || ps.Messages > ps.BlocksSent+1 {
		t.Fatalf("message accounting off: %d messages for %d sent blocks", ps.Messages, ps.BlocksSent)
	}
}

// TestJobDirectCycleAllocs pins what one block costs the allocator on the
// direct path, end to end: nothing, once the job is warm. The header Write
// builds the block in and the slice the sender lists a message's blocks in
// both come back through the job's free list — the consumer hands in what the
// application releases and what the receiver has emptied — and the pooled
// payload, the consumer buffer entry and the Release add nothing either. Two
// legs: one block at a time, where every Write finds the runtime idle and
// wakes it (the trickle path), and a pipelined run, where batches form.
func TestJobDirectCycleAllocs(t *testing.T) {
	job, err := NewJob(Config{Producers: 1, Consumers: 1, SpoolDir: t.TempDir(), DisableSteal: true,
		BufferBlocks: 64, MaxBatchBlocks: 8, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, c := job.Producer(0), job.Consumer(0)
	cycle := func() {
		p.Write(0, 0, NewPayload(4096))
		blk, ok := c.Read()
		if !ok {
			t.Fatal("stream ended early")
		}
		blk.Release()
	}
	for i := 0; i < 64; i++ {
		cycle() // warm the payload pool, the consumer buffer and the free list
	}
	if n := testing.AllocsPerRun(500, cycle); n > 0.25 {
		t.Errorf("one Write → Read → Release cycle allocates %.2f times, want ≤ 0.25", n)
	}

	const blocks = 4096
	pipelined := func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < blocks; i++ {
				p.Write(1, int64(i), NewPayload(4096))
			}
		}()
		for i := 0; i < blocks; i++ {
			blk, ok := c.Read()
			if !ok {
				t.Error("stream ended early")
				break
			}
			blk.Release()
		}
		<-done
	}
	pipelined() // warm: more headers are in flight than one at a time
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pipelined()
	runtime.ReadMemStats(&m1)
	limit := 0.25
	if raceEnabled {
		// The payload pool drops a quarter of what it is handed.
		limit = 0.75
	}
	if perBlock := float64(m1.Mallocs-m0.Mallocs) / blocks; perBlock > limit {
		t.Errorf("a pipelined run allocates %.2f times per block, want ≤ %.2f", perBlock, limit)
	}
	p.Close()
	if _, ok := c.Read(); ok {
		t.Error("block delivered after Close")
	}
	job.Wait()
	if st := job.Stats(); st.BlocksWritten != st.BlocksAnalyzed || st.BlocksWritten != 64+501+2*blocks {
		t.Errorf("written %d, analyzed %d, want %d of each", st.BlocksWritten, st.BlocksAnalyzed, 64+501+2*blocks)
	}
}

// TestJobRelayCycleAllocs pins what the crash journal costs the allocator on
// the relay path: a block through a fault-protected stager may cost no more
// than through a plain one. The journal is the stager's own queue plus the
// segment log, so admission records nothing of its own. Two jobs with the
// pipelined shape of TestJobDirectCycleAllocs relay everything through one
// stager, one with Fault off and one with it on, and the Fault-on leg may
// allocate at most 0.05 times and 10 % of the bytes per block more.
func TestJobRelayCycleAllocs(t *testing.T) {
	// Every block pays what the journal costs. A spill adds what re-reading
	// its blocks costs, on either spill path, and whether the stager spills
	// at all depends on when the host descheduled the consumer: a pass that
	// spilled measures the host, so each leg reports its cheapest pass of
	// those that did not.
	const blocks, passes, maxPasses = 4096, 3, 100
	leg := func(fault FaultConfig) (mallocs, bytes float64) {
		job, err := NewJob(Config{Producers: 1, Consumers: 1, SpoolDir: t.TempDir(), DisableSteal: true,
			BufferBlocks: 64, MaxBatchBlocks: 8, Window: 4,
			Staging: StagingConfig{Stagers: 1, RoutePolicy: RouteStaging}, Fault: fault})
		if err != nil {
			t.Fatal(err)
		}
		p, c := job.Producer(0), job.Consumer(0)
		step := 0
		pipelined := func() {
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < blocks; i++ {
					p.Write(step, int64(i), NewPayload(4096))
				}
			}()
			for i := 0; i < blocks; i++ {
				blk, ok := c.Read()
				if !ok {
					t.Error("stream ended early")
					break
				}
				blk.Release()
			}
			<-done
			step++
		}
		pipelined() // warm the pools, the free lists and the stager's queue
		mallocs, bytes = math.Inf(1), math.Inf(1)
		run, clean := 0, 0
		for ; clean < passes && run < maxPasses; run++ {
			spilled := job.Stats().BlocksSpilled
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			pipelined()
			runtime.ReadMemStats(&m1)
			if job.Stats().BlocksSpilled != spilled {
				continue
			}
			clean++
			mallocs = min(mallocs, float64(m1.Mallocs-m0.Mallocs)/blocks)
			bytes = min(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/blocks)
		}
		p.Close()
		job.Wait()
		if st := job.Stats(); st.BlocksAnalyzed != int64(run+1)*blocks || st.BlocksRelayed != int64(run+1)*blocks {
			t.Errorf("fault %v: analyzed %d, relayed %d, want %d of each", fault.Enabled, st.BlocksAnalyzed, st.BlocksRelayed, (run+1)*blocks)
		}
		if clean == 0 {
			t.Fatalf("fault %v: the stager spilled in every one of %d passes", fault.Enabled, run)
		}
		t.Logf("fault %v: %d passes, %d without a spill", fault.Enabled, run, clean)
		return mallocs, bytes
	}
	offMallocs, offBytes := leg(FaultConfig{})
	onMallocs, onBytes := leg(FaultConfig{Enabled: true, Heartbeat: 10 * time.Millisecond, LeaseTTL: time.Second})
	t.Logf("per block: Fault off %.2f mallocs, %.0f B; Fault on %.2f mallocs, %.0f B", offMallocs, offBytes, onMallocs, onBytes)
	if onMallocs > offMallocs+0.05 {
		t.Errorf("the journal costs %.2f mallocs per block (%.2f on, %.2f off), want ≤ 0.05", onMallocs-offMallocs, onMallocs, offMallocs)
	}
	if onBytes > 1.10*offBytes {
		t.Errorf("the journal costs %.0f B per block (%.0f on, %.0f off), want ≤ 10 %%", onBytes-offBytes, onBytes, offBytes)
	}
}

// TestJobStealCycleAllocs pins what one block costs the allocator on the
// file-system path: a stolen block's payload goes back to the pool once the
// file system holds the copy, so it is there for the consumer-side read (or
// the application's next NewPayload) instead of being dropped to the collector
// — descriptors, disk refs and what a file costs on either end (handle, stat,
// path: about 1.1 KB a block until steals share a segment log) are all a
// steal may allocate.
func TestJobStealCycleAllocs(t *testing.T) {
	job, err := NewJob(Config{Producers: 1, Consumers: 1, SpoolDir: t.TempDir(), BufferBlocks: 8, HighWater: 1, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	const (
		blocks     = 400
		blockBytes = 32 << 10
	)
	p, c := job.Producer(0), job.Consumer(0)
	step := 0
	// With nobody reading, the window and the consumer buffer fill and the
	// writer thread takes everything else to disk; then the application
	// catches up. All on one goroutine, so a pass measures only the runtime.
	pass := func() {
		for i := 0; i < blocks; i++ {
			data := NewPayload(blockBytes)
			data[0], data[blockBytes-1] = byte(step), byte(step>>8)
			p.Write(step, 0, data)
			step++
		}
		for i := 0; i < blocks; i++ {
			blk, ok := c.Read()
			if !ok {
				t.Fatal("stream ended early")
			}
			if s := blk.ID.Step; len(blk.Data) != blockBytes || blk.Data[0] != byte(s) || blk.Data[blockBytes-1] != byte(s>>8) {
				t.Fatalf("block %+v did not survive the trip", blk.ID)
			}
			blk.Release()
		}
	}
	pass() // warm the payload pool
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pass()
	runtime.ReadMemStats(&m1)
	p.Close()
	if _, ok := c.Read(); ok {
		t.Error("block delivered after Close")
	}
	job.Wait()
	st := job.Stats()
	if st.BlocksStolen < st.BlocksWritten/2 {
		t.Fatalf("only %d of %d blocks were stolen: the job is not steal-heavy", st.BlocksStolen, st.BlocksWritten)
	}
	limit := uint64(2 << 10)
	if raceEnabled {
		// The pool drops a quarter of what it is handed, and a stolen block
		// hands its payload over twice (at the steal, and after the read):
		// half a payload a block, where the parent allocates more than one.
		limit = blockBytes * 3 / 4
	}
	if perBlock := (m1.TotalAlloc - m0.TotalAlloc) / blocks; perBlock >= limit {
		t.Errorf("a steal-heavy job allocates %d B per %d B block written (%d of %d stolen), want < %d: stolen payloads must be recycled",
			perBlock, blockBytes, st.BlocksStolen, st.BlocksWritten, limit)
	}
}

// TestJobStagingRoundTrip runs the public API through the in-transit tier
// under both staging policies and checks Job.Stats ties the whole pipeline
// together: written = direct + relayed + stolen = analyzed, with relayed
// traffic flowing through the stager counters.
func TestJobStagingRoundTrip(t *testing.T) {
	for _, policy := range []RoutePolicy{RouteStaging, RouteHybrid} {
		job, err := NewJob(Config{
			Producers: 4, Consumers: 2, SpoolDir: t.TempDir(),
			Staging:      StagingConfig{Stagers: 2, BufferBlocks: 16, RoutePolicy: policy},
			BufferBlocks: 8, Window: 1, MaxBatchBlocks: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		const blocks = 150
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := job.Producer(i)
				for s := 0; s < blocks; s++ {
					data := NewPayload(256)
					for j := range data {
						data[j] = byte(i ^ s)
					}
					p.Write(s, 0, data)
				}
				p.Close()
			}()
		}
		var mu sync.Mutex
		n := 0
		var cwg sync.WaitGroup
		for q := 0; q < 2; q++ {
			q := q
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				for {
					blk, ok := job.Consumer(q).Read()
					if !ok {
						return
					}
					want := byte(blk.ID.Rank ^ blk.ID.Step)
					for _, v := range blk.Data {
						if v != want {
							t.Errorf("policy %v: block %+v corrupted", policy, blk.ID)
							break
						}
					}
					blk.Release()
					mu.Lock()
					n++
					mu.Unlock()
					time.Sleep(50 * time.Microsecond) // lag enough to exercise relay + spill
				}
			}()
		}
		wg.Wait()
		cwg.Wait()
		job.Wait()
		if n != 4*blocks {
			t.Fatalf("policy %v: analyzed %d blocks, want %d", policy, n, 4*blocks)
		}
		st := job.Stats()
		if len(st.Producers) != 4 || len(st.Consumers) != 2 || len(st.Stagers) != 2 {
			t.Fatalf("policy %v: Stats shape %d/%d/%d", policy, len(st.Producers), len(st.Consumers), len(st.Stagers))
		}
		if st.BlocksWritten != 4*blocks || st.BlocksAnalyzed != 4*blocks {
			t.Fatalf("policy %v: written=%d analyzed=%d want %d", policy, st.BlocksWritten, st.BlocksAnalyzed, 4*blocks)
		}
		if st.BlocksSent+st.BlocksRelayed+st.BlocksStolen != st.BlocksWritten {
			t.Fatalf("policy %v: channel split %d+%d+%d != %d", policy,
				st.BlocksSent, st.BlocksRelayed, st.BlocksStolen, st.BlocksWritten)
		}
		if policy == RouteStaging {
			if st.BlocksSent != 0 {
				t.Fatalf("in-transit policy sent %d blocks direct", st.BlocksSent)
			}
			if st.BlocksRelayed == 0 {
				t.Fatal("in-transit policy relayed nothing")
			}
		}
		var stagerIn int64
		for _, ss := range st.Stagers {
			stagerIn += ss.BlocksIn
			if ss.BlocksIn != ss.BlocksForwarded {
				t.Fatalf("stager in/out mismatch: %+v", ss)
			}
		}
		if stagerIn != st.BlocksRelayed {
			t.Fatalf("relayed %d but stagers saw %d", st.BlocksRelayed, stagerIn)
		}
	}
}

// TestJobStagingPreserve couples Preserve mode with the staging relay at
// the public-API level: every block must land on the file system whichever
// of the three channels it traveled.
func TestJobStagingPreserve(t *testing.T) {
	job, err := NewJob(Config{
		Producers: 2, Consumers: 1, SpoolDir: t.TempDir(), Preserve: true,
		Staging:      StagingConfig{Stagers: 1, BufferBlocks: 8, RoutePolicy: RouteStaging},
		BufferBlocks: 8, Window: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 40
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := job.Producer(i)
			for s := 0; s < blocks; s++ {
				p.Write(s, 0, []byte{byte(i), byte(s)})
			}
			p.Close()
		}()
	}
	n := 0
	for {
		blk, ok := job.Consumer(0).Read()
		if !ok {
			break
		}
		blk.Release()
		n++
	}
	wg.Wait()
	job.Wait()
	if err := job.Consumer(0).Err(); err != nil {
		t.Fatal(err)
	}
	if n != 2*blocks {
		t.Fatalf("analyzed %d blocks, want %d", n, 2*blocks)
	}
	st := job.Stats()
	cs := st.Consumers[0]
	if cs.BlocksStored+st.BlocksStolen != 2*blocks {
		t.Fatalf("preserve through relay persisted %d+%d blocks, want %d",
			cs.BlocksStored, st.BlocksStolen, 2*blocks)
	}
}

func TestJobPreserve(t *testing.T) {
	dir := t.TempDir()
	job, err := NewJob(Config{Producers: 1, Consumers: 1, SpoolDir: dir, Preserve: true})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		p := job.Producer(0)
		for s := 0; s < 5; s++ {
			p.Write(s, 0, []byte{byte(s)})
		}
		p.Close()
	}()
	for {
		if _, ok := job.Consumer(0).Read(); !ok {
			break
		}
	}
	job.Wait()
	cs := job.Consumer(0).Stats()
	ps := job.Producer(0).Stats()
	if cs.BlocksStored+ps.BlocksStolen != 5 {
		t.Fatalf("preserve mode persisted %d+%d blocks, want 5", cs.BlocksStored, ps.BlocksStolen)
	}
}
