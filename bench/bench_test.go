package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"zipper"
)

// TestWorkloadsExerciseTheirLayers runs every workload at a five-hundredth
// of its size, untraced and traced, with every unit probe, and pins the
// bypass facts each workload exists for: a config drift that lets a
// workload stop exercising its layer fails here, not in a later issue's
// numbers.
func TestWorkloadsExerciseTheirLayers(t *testing.T) {
	spool, err := newSpool("") // where the benchmark itself would put it: t.TempDir() is usually a disk
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(spool) })
	r := &runner{spool: spool, inProcess: true}
	probes, err := runProbes(workloadByName("relay-fault-flood"), spool, 1, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			untraced, err := r.run(w, 1, 0.002, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := r.run(w, 1, 0.002, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []*runResult{untraced, traced} {
				if !res.ok() || res.BlocksWritten != int64(producers*w.blocksAt(0.002)) {
					t.Fatalf("traced=%v: %d blocks written, %d failed (%d missing, %d duplicated, %d corrupt), evictions %v, error %q",
						res.Traced, res.BlocksWritten, res.BlocksFailed, res.Missing, res.Duplicated, res.Corrupt,
						res.Layer["fault.evictions"], res.ConsumerErr)
				}
				for _, d := range endToEnd {
					if v := res.E2E[d.name]; !(v > 0) || math.IsInf(v, 0) {
						t.Errorf("traced=%v: end-to-end metric %s = %v, want a positive number", res.Traced, d.name, v)
					}
				}
			}
			if len(traced.spans) == 0 {
				t.Error("the traced run recorded no spans")
			}
			layer := layerMetrics(w, untraced, traced, probes)
			for _, d := range perLayer {
				if v, ok := layer[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (present %v), want a finite number", d.name, v, ok)
				}
			}
			if len(layer) != len(perLayer) {
				t.Errorf("layerMetrics returned %d metrics, BENCHMARK.json names %d", len(layer), len(perLayer))
			}

			written := float64(traced.BlocksWritten)
			switch w.name {
			case "insitu-flood":
				if layer["staging.blocks_in"] != 0 || layer["core.blocks_stolen"] != 0 || layer["core.blocks_sent"] != written {
					t.Errorf("insitu-flood must bypass staging and the file-system path: staging.blocks_in %v, core.blocks_stolen %v, core.blocks_sent %v of %v",
						layer["staging.blocks_in"], layer["core.blocks_stolen"], layer["core.blocks_sent"], written)
				}
			case "relay-fault-flood", "wire-compress":
				if layer["core.blocks_relayed"] != written {
					t.Errorf("%s must relay every block: core.blocks_relayed %v of %v", w.name, layer["core.blocks_relayed"], written)
				}
				if w.name == "wire-compress" && layer["reduce.ratio"] < 2 {
					t.Errorf("wire-compress must compress: reduce.ratio %v", layer["reduce.ratio"])
				}
			case "fullstack-bursty":
				if layer["core.blocks_sent"] == 0 || layer["core.blocks_relayed"] == 0 || layer["core.blocks_stolen"] == 0 {
					t.Errorf("fullstack-bursty must use all three channels: sent %v, relayed %v, stolen %v",
						layer["core.blocks_sent"], layer["core.blocks_relayed"], layer["core.blocks_stolen"])
				}
			}
		})
	}
}

// TestVerifyCountsDamage checks the checker: a block that is damaged,
// mislabelled, truncated or delivered twice must count as failed.
func TestVerifyCountsDamage(t *testing.T) {
	w := workloadByName("insitu-flood")
	ts := makeTemplates(1, w.blockBytes)
	fresh := func(seq int) zipper.Block {
		data := append([]byte(nil), ts[3].data...)
		putHeader(data, 7, 1, 0, seq, 3)
		return zipper.Block{ID: zipper.BlockID{Rank: 1, Step: 0, Seq: seq}, Data: data}
	}
	out := &consumerOut{seen: [][]uint64{make([]uint64, 1), make([]uint64, 1)}}
	blk := fresh(0)
	if stamp, sampled := verify(w, &blk, 64, ts, out); out.corrupt != 0 || out.duplicated != 0 || stamp != 7 || !sampled {
		t.Fatalf("intact block: corrupt %d, duplicated %d, stamp %d, sampled %v", out.corrupt, out.duplicated, stamp, sampled)
	}
	verify(w, &blk, 64, ts, out)
	if out.duplicated != 1 {
		t.Errorf("second delivery: duplicated = %d, want 1", out.duplicated)
	}
	damage := map[string]func(b *zipper.Block){
		"body middle (seq 16 is checksummed)": func(b *zipper.Block) { b.Data[len(b.Data)/2] ^= 1 },
		"body first byte":                     func(b *zipper.Block) { b.Data[headerLen] ^= 1 },
		"body last byte":                      func(b *zipper.Block) { b.Data[len(b.Data)-1] ^= 1 },
		"wrong block id":                      func(b *zipper.Block) { b.ID.Step++ },
		"truncated":                           func(b *zipper.Block) { b.Data = b.Data[:len(b.Data)-1] },
	}
	for name, hurt := range damage {
		blk := fresh(16)
		out.seen[1][0] = 0
		before := out.corrupt
		hurt(&blk)
		verify(w, &blk, 64, ts, out)
		if out.corrupt != before+1 {
			t.Errorf("%s: corrupt went from %d to %d, want +1", name, before, out.corrupt)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.add(v * 1000) // 1 µs … 100 ms, uniform
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 100_000 * 1000
		if got := h.quantile(q); math.Abs(got/want-1) > 0.02 {
			t.Errorf("quantile(%v) = %v, want %v within 2%%", q, got, want)
		}
	}
	var empty hist
	if empty.quantile(0.5) != 0 {
		t.Error("an empty histogram's quantile must be 0")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the benchmark driver and
// later issues read, in step with the tables this program measures by, and
// inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}

	var wantW []wl
	for _, w := range workloads {
		wantW = append(wantW, wl{w.name, w.why})
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(file.Workloads, wantW) {
		t.Errorf("BENCHMARK.json workloads differ from workload.go:\n got %+v\nwant %+v", file.Workloads, wantW)
	}
	var wantE, wantL []metric
	for _, d := range endToEnd {
		b := d.bound
		wantE = append(wantE, metric{d.name, d.unit, d.better, &b})
	}
	for _, d := range perLayer {
		wantL = append(wantL, metric{d.name, d.unit, d.better, nil})
	}
	if !reflect.DeepEqual(file.EndToEnd, wantE) {
		t.Errorf("BENCHMARK.json end_to_end differs from metrics.go")
	}
	if !reflect.DeepEqual(file.PerLayer, wantL) {
		t.Errorf("BENCHMARK.json per_layer differs from metrics.go")
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) || len(file.Command) == 0 {
		t.Errorf("BENCHMARK.json paths %v, command %v", file.Paths, file.Command)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.name)
		if !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") || d.bound < 0 || d.bound > 0.25 {
			t.Errorf("metric %s: unit %q, better %q, bound %v", d.name, d.unit, d.better, d.bound)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end must contain setup_s in s, lower is better")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, the contract allows 2 to 8", n)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, the contract allows 16 and 128", len(endToEnd), len(perLayer))
	}
	// 4 + 22 runs per workload, each of run_seconds plus set-up, inside 3420 s.
	if file.RunSeconds < 1 || file.RunSeconds > 60 || (4+22*len(workloads))*(file.RunSeconds+4) > 3420-240 {
		t.Errorf("run_seconds %d does not leave the driver's %d runs room inside 3420 s", file.RunSeconds, 4+22*len(workloads))
	}
}
