package main

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"zipper/internal/model"
)

// metricDef names one metric of the benchmark. BENCHMARK.json carries the
// same tables (bench_test.go keeps the two in step); later issues cite the
// names verbatim.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the baseline's median the metric may worsen by
}

// endToEnd is what a user of the runtime feels, measured with tracing off,
// one value per workload per run. BENCHMARK.json has one bound per metric
// for all workloads, so each is set from the workload on which the metric
// repeats worst, at two to three times the spread seen between identical
// runs on the reference host (README.md has the numbers) — which on that
// host is the contract's ceiling for every one of them: two goroutines
// spinning on its two vCPUs already vary by ±15 % over a few minutes. The
// issue's seventh metric, latency_p99_ms, did not survive that on
// insitu-flood (identical sets spread by 17–35 %), and with one metric list
// for all workloads it could not be dropped there alone: it is reported as
// driver.latency_p99_ms, per layer and unbounded.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"t2s_s", "s", "lower", 0.25},
	{"sim_io_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is the traced pass's output, <layer>.<metric> with this repo's
// package names as layers. See README.md for each metric's source and the
// end-to-end metric it should move.
var perLayer = []metricDef{
	// Driver spans around its own calls into the public API.
	{name: "zipper.new_job_ms", unit: "ms", better: "lower"},
	{name: "zipper.write_call_s", unit: "s", better: "lower"},
	{name: "zipper.write_call_p99_us", unit: "us", better: "lower"},
	{name: "zipper.close_s", unit: "s", better: "lower"},
	{name: "zipper.read_wait_s", unit: "s", better: "lower"},
	{name: "zipper.release_s", unit: "s", better: "lower"},
	{name: "zipper.wait_tail_s", unit: "s", better: "lower"},
	{name: "zipper.stats_call_us", unit: "us", better: "lower"},
	// Job.Stats at the end of the run, and polled every 10 ms.
	{name: "core.blocks_sent", unit: "count", better: "higher"},
	{name: "core.blocks_relayed", unit: "count", better: "higher"},
	{name: "core.blocks_stolen", unit: "count", better: "lower"},
	{name: "core.via_disk_frac", unit: "frac", better: "lower"},
	{name: "core.messages", unit: "count", better: "lower"},
	{name: "core.blocks_per_msg", unit: "ratio", better: "higher"},
	{name: "core.write_stall_s", unit: "s", better: "lower"},
	{name: "core.consumer_queue_avg", unit: "count", better: "lower"},
	{name: "core.consumer_residence_ms", unit: "ms", better: "lower"},
	{name: "core.cpu_ns_per_block", unit: "ns", better: "lower"},
	{name: "block.pool_cycle_ns", unit: "ns", better: "lower"},
	{name: "go.alloc_bytes_per_block", unit: "B", better: "lower"},
	{name: "go.mallocs_per_block", unit: "count", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "realenv.chan_ns_per_msg", unit: "ns", better: "lower"},
	{name: "realenv.ring_ns_per_msg", unit: "ns", better: "lower"},
	{name: "realenv.frame_write_ns_per_block", unit: "ns", better: "lower"},
	{name: "realenv.filestore_write_us", unit: "us", better: "lower"},
	{name: "realenv.filestore_read_us", unit: "us", better: "lower"},
	{name: "realenv.bytes_on_wire", unit: "B", better: "lower"},
	{name: "staging.blocks_in", unit: "count", better: "higher"},
	{name: "staging.blocks_spilled", unit: "count", better: "lower"},
	{name: "staging.spill_frac", unit: "frac", better: "lower"},
	{name: "staging.rebatch_ratio", unit: "ratio", better: "higher"},
	{name: "staging.max_queued", unit: "count", better: "lower"},
	{name: "staging.relay_imbalance", unit: "ratio", better: "lower"},
	{name: "staging.reduce_bursts", unit: "count", better: "lower"},
	{name: "staging.queue_avg", unit: "count", better: "lower"},
	{name: "staging.residence_ms", unit: "ms", better: "lower"},
	{name: "staging.relay_cpu_ns_per_block", unit: "ns", better: "lower"},
	{name: "staging.replay_us_per_block", unit: "us", better: "lower"},
	{name: "reduce.encode_us_per_block", unit: "us", better: "lower"},
	{name: "reduce.decode_us_per_block", unit: "us", better: "lower"},
	{name: "reduce.pipeline_speedup", unit: "ratio", better: "higher"},
	{name: "reduce.ratio", unit: "ratio", better: "higher"},
	{name: "flow.route_ns", unit: "ns", better: "lower"},
	{name: "flow.staging_share", unit: "frac", better: "higher"},
	{name: "place.claim_ns", unit: "ns", better: "lower"},
	{name: "elastic.scale_events", unit: "count", better: "lower"},
	{name: "elastic.node_seconds", unit: "s", better: "lower"},
	{name: "fault.evictions", unit: "count", better: "lower"},
	{name: "fault.recovery_ms", unit: "ms", better: "lower"},
	{name: "fault.recovery_blocks_lost", unit: "count", better: "lower"},
	{name: "control.fleet_t2s_s", unit: "s", better: "lower"},
	{name: "control.preemptions", unit: "count", better: "lower"},
	{name: "workflow.sim_t2s_virtual_s", unit: "s", better: "lower"},
	{name: "workflow.sim_wall_s", unit: "s", better: "lower"},
	{name: "model.t2s_pred_s", unit: "s", better: "lower"},
	{name: "model.residual_frac", unit: "frac", better: "lower"},
	// The layer budget: unit cost × operation count, against cpu_s.
	{name: "budget.core_s", unit: "s", better: "lower"},
	{name: "budget.realenv_s", unit: "s", better: "lower"},
	{name: "budget.filestore_s", unit: "s", better: "lower"},
	{name: "budget.staging_s", unit: "s", better: "lower"},
	{name: "budget.reduce_s", unit: "s", better: "lower"},
	{name: "budget.driver_s", unit: "s", better: "lower"},
	{name: "budget.explained_frac", unit: "frac", better: "higher"},
	{name: "driver.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "driver.analyze_s", unit: "s", better: "lower"},
	{name: "driver.trace_overhead_frac", unit: "frac", better: "lower"},
	{name: "driver.gen_late_p99_ms", unit: "ms", better: "lower"},
}

// budgetRows are the layer-budget table's rows, in print order.
var budgetRows = []string{"budget.core_s", "budget.realenv_s", "budget.filestore_s", "budget.staging_s",
	"budget.reduce_s", "budget.driver_s"}

// layerMetrics assembles one workload's per-layer metrics from an untraced
// run, a traced run of the same inputs and the unit-cost probes taken at
// the workload's block and batch shape. Spans and polled occupancy can only
// come from the traced run; everything both runs have (Job.Stats at the
// end, MemStats) is taken from the untraced one, the run the end-to-end
// metrics describe — polling Job.Stats is itself a load, and on
// wire-compress it is enough to tip the stager into spilling.
func layerMetrics(w *workload, untraced, traced *runResult, probes map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for _, src := range []map[string]float64{traced.Layer, untraced.Layer, probes} {
		for k, v := range src {
			m[k] = v
		}
	}
	m["driver.trace_overhead_frac"] = traced.E2E["t2s_s"]/untraced.E2E["t2s_s"] - 1
	m["driver.latency_p99_ms"] = untraced.E2E["latency_p99_ms"]

	// The budget prices the operations Job.Stats counted at the probes'
	// unit costs. Rows do not overlap: the core and staging unit costs are
	// CPU per block with their own message cost taken out, realenv is every
	// message (and, over TCP, every frame) the run sent, filestore every
	// block file written or read back, reduce every block encoded and
	// decoded, driver the benchmark's own fill, verify and analysis spin.
	written := float64(untraced.BlocksWritten)
	relayed, stolen, spilled := m["core.blocks_relayed"], m["core.blocks_stolen"], m["staging.blocks_spilled"]
	cfg := w.config("")
	msgs := m["core.messages"]
	if r := m["staging.rebatch_ratio"]; r > 0 {
		msgs += m["staging.blocks_in"] / r
	}
	perMsg := m["realenv.chan_ns_per_msg"]
	if cfg.Staging.RingDepth > 0 {
		perMsg = m["realenv.ring_ns_per_msg"]
	}
	m["budget.core_s"] = written * m["core.cpu_ns_per_block"] / 1e9
	m["budget.realenv_s"] = msgs * perMsg / 1e9
	if cfg.TCPAddr != "" {
		m["budget.realenv_s"] += written * m["realenv.frame_write_ns_per_block"] / 1e9
	}
	journaled := 0.0
	if cfg.Fault.Enabled {
		journaled = m["staging.blocks_in"] // the write-ahead journal: one raw file per admitted block
	}
	rawRW := m["realenv.filestore_write_us"] + m["realenv.filestore_read_us"]
	spillRW := rawRW
	if cfg.Staging.Reduce.Enabled() {
		spillRW = m["realenv.filestore_encoded_write_us"] + m["realenv.filestore_encoded_read_us"]
	}
	m["budget.filestore_s"] = (journaled*m["realenv.filestore_write_us"] + stolen*rawRW + spilled*spillRW) / 1e6
	m["budget.staging_s"] = relayed * m["staging.relay_cpu_ns_per_block"] / 1e9
	// Blocks encoded: bytes kept off the wire ÷ what one encoded block
	// keeps off each leg it crosses encoded (both legs when the producer
	// encodes, the forward leg when the stager does under pressure).
	legs := 2.0
	if cfg.Staging.Reduce.OnPressure {
		legs = 1
	}
	perBlock := float64(w.blockBytes) * (1 - 1/m["reduce.probe_ratio"]) * legs
	encoded := m["reduce.bytes_reduced"] / perBlock
	m["budget.reduce_s"] = encoded * (m["reduce.encode_us_per_block"] + m["reduce.decode_us_per_block"]) / 1e6
	m["budget.driver_s"] = written * (m["driver.fill_ns_per_block"] + m["driver.verify_ns_per_block"] + float64(w.analyze)) / 1e9
	var sum float64
	for _, r := range budgetRows {
		sum += m[r]
	}
	m["budget.explained_frac"] = sum / untraced.E2E["cpu_s"]

	// The paper's model, max(T_comp, T_transfer, T_analysis), fed with this
	// run's own stage costs.
	perProducer := written / producers
	computed := 0.0
	if w.burst > 0 {
		computed = (perProducer/float64(w.burst) - 1) * w.pause.Seconds()
	}
	sec := func(s float64) time.Duration { return time.Duration(s * 1e9) }
	mod := model.Model{P: producers, Q: consumers, NB: int64(written),
		Tc: sec(computed / perProducer),
		Tm: sec(traced.E2E["sim_io_s"] / perProducer),
		Ta: sec(m["driver.analyze_s"] / written)}
	m["model.t2s_pred_s"] = mod.TT2S().Seconds()
	m["model.residual_frac"] = traced.E2E["t2s_s"]/mod.TT2S().Seconds() - 1

	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		if v, ok := m[d.name]; ok {
			out[d.name] = v
		}
	}
	return out
}

// printBudget renders one workload's layer budget.
func printBudget(out io.Writer, name string, layer map[string]float64, cpu float64) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "layer budget: %s\tseconds\tshare of cpu_s\t\n", name)
	for _, r := range budgetRows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.1f%%\t\n", r, layer[r], 100*layer[r]/cpu)
	}
	fmt.Fprintf(tw, "explained\t\t%.1f%%\t\n", 100*layer["budget.explained_frac"])
	fmt.Fprintf(tw, "cpu_s\t%.3f\t\t\n", cpu)
	tw.Flush()
}
