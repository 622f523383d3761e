package zipper

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConfigErrorTyped pins the typed validation surface: every NewJob
// rejection is a *ConfigError naming the offending field, with a non-empty
// reason and the descriptive prose preserved in Error().
func TestConfigErrorTyped(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name  string
		field string
		cfg   Config
	}{
		{"no producers", "Producers",
			Config{Consumers: 1, SpoolDir: dir}},
		{"more consumers than producers", "Consumers",
			Config{Producers: 1, Consumers: 2, SpoolDir: dir}},
		{"missing spool dir", "SpoolDir",
			Config{Producers: 1, Consumers: 1}},
		{"negative buffer", "BufferBlocks",
			Config{Producers: 1, Consumers: 1, SpoolDir: dir, BufferBlocks: -1}},
		{"negative stagers via flat alias", "Staging.Stagers",
			Config{Producers: 1, Consumers: 1, SpoolDir: dir, Staging: StagingConfig{Stagers: -1}}},
		{"relay policy without stagers", "Staging.Stagers",
			Config{Producers: 1, Consumers: 1, SpoolDir: dir, Staging: StagingConfig{RoutePolicy: RouteStaging}}},
		{"elastic with RouteDirect", "Staging.Elastic",
			Config{Producers: 2, Consumers: 1, SpoolDir: dir, Staging: StagingConfig{Stagers: 2, Elastic: ElasticConfig{Enabled: true}}}},
		{"fault without staging tier", "Fault",
			Config{Producers: 1, Consumers: 1, SpoolDir: dir,
				Fault: FaultConfig{Enabled: true}}},
		{"fault with RouteDirect", "Fault",
			Config{Producers: 2, Consumers: 1, SpoolDir: dir, Staging: StagingConfig{Stagers: 2},
				Fault: FaultConfig{Enabled: true}}},
		{"fault lease inside heartbeat", "Fault",
			Config{Producers: 2, Consumers: 1, SpoolDir: dir, Staging: StagingConfig{Stagers: 2, RoutePolicy: RouteStaging},
				Fault: FaultConfig{Enabled: true,
					Heartbeat: time.Millisecond, LeaseTTL: time.Millisecond}}},
	}
	for _, tc := range cases {
		_, err := NewJob(tc.cfg)
		if err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %T is not a *ConfigError: %v", tc.name, err, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("%s: Field = %q, want %q (reason: %s)", tc.name, ce.Field, tc.field, ce.Reason)
		}
		if ce.Reason == "" {
			t.Errorf("%s: empty Reason", tc.name)
		}
		if ce.Error() == "" {
			t.Errorf("%s: empty Error()", tc.name)
		}
	}
}

// TestFaultJobCrashChurn is the real-platform stress of the survivable data
// plane: stagers are hard-killed while producers are mid-relay, and the run
// must still terminate with every block analyzed and zero blocks lost — the
// failure detector evicts the corpses, the recovery reader replays their
// journals, and replacements respawn into the freed slots. Run under -race
// this also checks the monitor/heartbeat/journal locking. It runs on both
// wires: over TCP every eviction's Retire waits on the producers'
// connections, so what a crash strands in flight lands as orphans first.
func TestFaultJobCrashChurn(t *testing.T) {
	const (
		producers   = 4
		consumers   = 2
		bursts      = 3
		burstBlocks = 120
		blockBytes  = 8 << 10
		pause       = 50 * time.Millisecond
		total       = producers * bursts * burstBlocks
	)
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			job, err := NewJob(Config{
				Producers: producers, Consumers: consumers, SpoolDir: t.TempDir(), TCPAddr: w.tcpAddr,
				BufferBlocks: 16, Window: 2, MaxBatchBlocks: 4, DisableSteal: true,
				Staging: StagingConfig{
					Stagers: 3, BufferBlocks: 32, RoutePolicy: RouteStaging,
				},
				// Generous timings: realenv scheduling jitter must not evict healthy
				// members faster than the test can reason about (fencing keeps even
				// a spurious eviction sound, but the assertions below count kills).
				Fault: FaultConfig{Enabled: true, Heartbeat: 2 * time.Millisecond, LeaseTTL: 25 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			var readers sync.WaitGroup
			for q := 0; q < consumers; q++ {
				readers.Add(1)
				go func(q int) {
					defer readers.Done()
					var sink byte
					for {
						blk, ok := job.Consumer(q).Read()
						if !ok {
							_ = sink
							return
						}
						sink ^= blk.Data[0]
						blk.Release()
					}
				}(q)
			}
			for p := 0; p < producers; p++ {
				go func(p int) {
					prod := job.Producer(p)
					i := 0
					for b := 0; b < bursts; b++ {
						if b > 0 {
							time.Sleep(pause)
						}
						for k := 0; k < burstBlocks; k++ {
							data := NewPayload(blockBytes)
							data[0] = byte(i)
							prod.Write(i, 0, data)
							i++
						}
					}
					prod.Close()
				}(p)
			}
			// Hard-kill two of the three stagers mid-run, spaced a burst apart. The
			// kills happen strictly before Wait, so the failure detector is still
			// running (its final forced sweep catches even a kill whose lease never
			// lapsed).
			kills := 0
			time.Sleep(20 * time.Millisecond)
			if job.InjectStagerCrash(0) {
				kills++
			}
			time.Sleep(pause)
			if job.InjectStagerCrash(1) {
				kills++
			}
			if kills == 0 {
				t.Fatal("no crash could be injected: the tier drained before the test reached it")
			}
			readers.Wait()
			job.Wait()

			st := job.Stats()
			if st.BlocksAnalyzed != total {
				t.Fatalf("analyzed %d of %d blocks after %d injected crashes", st.BlocksAnalyzed, total, kills)
			}
			if st.BlocksLost != 0 {
				t.Fatalf("BlocksLost = %d, want 0: spool replay should recover every journaled block", st.BlocksLost)
			}
			if st.Evictions < int64(kills) {
				t.Fatalf("Evictions = %d, want ≥ %d (one per injected crash)", st.Evictions, kills)
			}
			var evictedInsts int
			for _, sg := range st.Stagers {
				if sg.Evicted {
					evictedInsts++
					if sg.Health != "evicted" {
						t.Errorf("evicted instance reports Health %q", sg.Health)
					}
					if !sg.Drained {
						t.Error("evicted instance not marked Drained")
					}
				}
			}
			if int64(evictedInsts) != st.Evictions {
				t.Errorf("%d instances marked Evicted, but Evictions = %d", evictedInsts, st.Evictions)
			}
			var evicts, replays int
			for _, ev := range st.FailoverEvents {
				switch ev.Kind {
				case "evict":
					evicts++
				case "replay":
					replays++
				case "respawn", "abandon":
				default:
					t.Fatalf("unknown failover event kind %q", ev.Kind)
				}
			}
			if evicts != replays {
				t.Errorf("%d evict events but %d replay events: every eviction must be replayed", evicts, replays)
			}
			if int64(evicts) != st.Evictions {
				t.Errorf("%d evict events, but Evictions = %d", evicts, st.Evictions)
			}
			if st.ReplayedBlocks > 0 {
				var perInst int64
				for _, sg := range st.Stagers {
					perInst += sg.ReplayedBlocks
				}
				if perInst != st.ReplayedBlocks {
					t.Errorf("per-instance ReplayedBlocks sum %d != job total %d", perInst, st.ReplayedBlocks)
				}
			}
		})
	}
}

// TestFaultJobCrashWhileOverflowing kills a stager at the point the
// by-reference journal made new: a consumer an order of magnitude slower
// than the producers has the tier absorbing, so the victim's queue holds
// blocks in memory (journaled by reference) and blocks its spiller moved to
// the log, with an overflow append as likely as not in flight. The run must
// still analyze every block exactly once and declare none lost.
func TestFaultJobCrashWhileOverflowing(t *testing.T) {
	const (
		producers  = 2
		blocks     = 400
		blockBytes = 8 << 10
	)
	job, err := NewJob(Config{
		Producers: producers, Consumers: 1, SpoolDir: t.TempDir(),
		BufferBlocks: 16, Window: 1, MaxBatchBlocks: 4, DisableSteal: true,
		Staging: StagingConfig{Stagers: 2, BufferBlocks: 16, RoutePolicy: RouteStaging},
		Fault:   FaultConfig{Enabled: true, Heartbeat: 2 * time.Millisecond, LeaseTTL: 25 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var seen [producers][blocks]int
	var analyzed atomic.Int64
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			blk, ok := job.Consumer(0).Read()
			if !ok {
				return
			}
			seen[blk.ID.Rank][blk.ID.Step]++
			analyzed.Add(1)
			blk.Release()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for p := 0; p < producers; p++ {
		go func(p int) {
			prod := job.Producer(p)
			for i := 0; i < blocks; i++ {
				prod.Write(i, 0, NewPayload(blockBytes))
			}
			prod.Close()
		}(p)
	}
	// Wait for a stager that has both overflowed and resident blocks.
	killed := false
	for deadline := time.Now().Add(20 * time.Second); !killed && time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		for slot, sg := range job.Stats().Stagers {
			if sg.BlocksSpilled > 0 && sg.Queued > 0 && !sg.Drained {
				killed = job.InjectStagerCrash(slot)
				break
			}
		}
		if analyzed.Load() == producers*blocks {
			break
		}
	}
	<-read
	job.Wait()
	if !killed {
		t.Fatal("no stager ever held overflowed and resident blocks at once: the scenario did not form")
	}
	st := job.Stats()
	if st.BlocksAnalyzed != producers*blocks || st.BlocksLost != 0 {
		t.Fatalf("analyzed %d of %d blocks, %d lost", st.BlocksAnalyzed, producers*blocks, st.BlocksLost)
	}
	for p := range seen {
		for i, n := range seen[p] {
			if n != 1 {
				t.Fatalf("producer %d block %d analyzed %d times", p, i, n)
			}
		}
	}
	if st.Evictions == 0 || st.ReplayedBlocks == 0 {
		t.Fatalf("%d evictions, %d blocks replayed: the crash went unnoticed", st.Evictions, st.ReplayedBlocks)
	}
}

// TestFaultOffIsInert pins that a zero FaultConfig changes nothing: the
// fault machinery (journals, heartbeats, monitor) must stay out of the
// data path, and the stats surface must stay zero.
func TestFaultOffIsInert(t *testing.T) {
	job, err := NewJob(Config{
		Producers: 2, Consumers: 1, SpoolDir: t.TempDir(),
		Staging: StagingConfig{Stagers: 2, RoutePolicy: RouteStaging}, DisableSteal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 40
	for p := 0; p < 2; p++ {
		go func(p int) {
			prod := job.Producer(p)
			for i := 0; i < steps; i++ {
				data := NewPayload(4 << 10)
				data[0] = byte(i)
				prod.Write(i, 0, data)
			}
			prod.Close()
		}(p)
	}
	n := 0
	for {
		blk, ok := job.Consumer(0).Read()
		if !ok {
			break
		}
		n++
		blk.Release()
	}
	job.Wait()
	if n != 2*steps {
		t.Fatalf("analyzed %d of %d blocks", n, 2*steps)
	}
	if job.InjectStagerCrash(0) {
		t.Error("InjectStagerCrash succeeded with the fault plane off")
	}
	st := job.Stats()
	if st.Evictions != 0 || st.ReplayedBlocks != 0 || st.BlocksLost != 0 || len(st.FailoverEvents) != 0 {
		t.Fatalf("fault-off stats not inert: evictions=%d replayed=%d lost=%d events=%d",
			st.Evictions, st.ReplayedBlocks, st.BlocksLost, len(st.FailoverEvents))
	}
	for _, sg := range st.Stagers {
		if sg.Health != "" || sg.Evicted {
			t.Fatalf("fault-off stager reports health %q evicted=%v", sg.Health, sg.Evicted)
		}
	}
}

// TestFaultJournalSegmentsReclaimed pushes ~23 log segments' worth of blocks
// through a fault-protected tier and watches the stager partitions. The log
// takes only what a stager evicts from memory, and delivery releases that
// space as it goes.
//
// overflowing: an analysis of 100 µs a block behind producers that may run
// 256 blocks (8 MiB, two segments) ahead each keeps the tier absorbing, so
// most of the stream crosses the log while it runs — and the partitions must
// never hold more than a fraction of what was written, or delivered records
// are not being reclaimed.
//
// quiet: the analysis keeps up and the producers are never more than 4 MiB
// ahead of it, so next to nothing is written: the partitions never hold more
// than a segment or two and under a tenth of the blocks overflow (a scheduler
// hiccup may park a forwarder long enough for one).
//
// Either way a clean Job.Wait leaves every stager partition empty.
func TestFaultJournalSegmentsReclaimed(t *testing.T) {
	t.Run("overflowing", func(t *testing.T) { journalSegmentsReclaimed(t, 256, 100*time.Microsecond) })
	t.Run("quiet", func(t *testing.T) { journalSegmentsReclaimed(t, 64, 0) })
}

// journalSegmentsReclaimed runs the stream with producers at most lead blocks
// ahead of an analysis that takes perBlock a block.
func journalSegmentsReclaimed(t *testing.T, lead int64, perBlock time.Duration) {
	const (
		producers  = 2
		blocks     = 1500
		blockBytes = 32 << 10
		segBytes   = 4 << 20
		segments   = producers * blocks * blockBytes / segBytes
	)
	var analyzed [producers]atomic.Int64
	dir := t.TempDir()
	job, err := NewJob(Config{
		Producers: producers, Consumers: 1, SpoolDir: dir,
		BufferBlocks: 16, Window: 2, MaxBatchBlocks: 8, DisableSteal: true,
		Staging: StagingConfig{Stagers: 2, BufferBlocks: 64, RoutePolicy: RouteStaging},
		Fault:   FaultConfig{Enabled: true, Heartbeat: 5 * time.Millisecond, LeaseTTL: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	segFiles := func() int {
		names, err := filepath.Glob(filepath.Join(dir, "stage*", "wal-*.seg"))
		if err != nil {
			t.Error(err)
		}
		return len(names)
	}
	for p := 0; p < producers; p++ {
		go func(p int) {
			prod := job.Producer(p)
			for i := 0; i < blocks; i++ {
				for int64(i)-analyzed[p].Load() > lead {
					time.Sleep(50 * time.Microsecond)
				}
				data := NewPayload(blockBytes)
				data[0] = byte(i)
				prod.Write(i, 0, data)
			}
			prod.Close()
		}(p)
	}
	n, maxFiles := 0, 0
	for {
		blk, ok := job.Consumer(0).Read()
		if !ok {
			break
		}
		if n%64 == 0 {
			maxFiles = max(maxFiles, segFiles())
		}
		n++
		analyzed[blk.ID.Rank].Add(1)
		blk.Release()
		if perBlock > 0 {
			time.Sleep(perBlock)
		}
	}
	job.Wait()
	st := job.Stats()
	if n != producers*blocks || st.BlocksLost != 0 || st.Evictions != 0 {
		t.Fatalf("analyzed %d of %d blocks, %d lost, %d evictions", n, producers*blocks, st.BlocksLost, st.Evictions)
	}
	var spilled int64
	for _, sg := range st.Stagers {
		spilled += sg.BlocksSpilled
	}
	written := int(spilled * blockBytes / segBytes) // segments' worth that crossed the log
	t.Logf("%d of %d blocks overflowed (%d of %d segments' worth); at most %d segment files at once", spilled, producers*blocks, written, segments, maxFiles)
	if perBlock > 0 {
		if written < segments/3 {
			t.Fatalf("only %d blocks (%d segments' worth) overflowed behind a slow analysis: the tier never absorbed, so nothing was there to reclaim", spilled, written)
		}
		if maxFiles == 0 {
			t.Fatal("never saw a segment file: the overflow is not reaching the stager partitions")
		}
		if maxFiles > written/2 {
			t.Fatalf("partitions grew to %d segment files for %d segments' worth of overflow: delivered records are not reclaimed", maxFiles, written)
		}
	} else {
		if maxFiles > 4 {
			t.Fatalf("partitions grew to %d segment files on a quiet tier: the log is taking more than overflow", maxFiles)
		}
		if spilled > producers*blocks/10 {
			t.Fatalf("%d of %d blocks overflowed to the log on a quiet tier", spilled, producers*blocks)
		}
	}
	parts, err := filepath.Glob(filepath.Join(dir, "stage*"))
	if err != nil || len(parts) == 0 {
		t.Fatalf("no stager partitions under the spool (%v)", err)
	}
	for _, part := range parts {
		ents, err := os.ReadDir(part)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Fatalf("%s holds %d entries after a clean Wait (first: %s)", part, len(ents), ents[0].Name())
		}
	}
}
