// Command bench is the repository's benchmark: four named workloads driven
// through the public zipper API, six end-to-end metrics measured with
// tracing off, and a traced pass that produces per-layer metrics from
// outside the program — driver spans around its own API calls, Job.Stats,
// and unit-cost probes of each internal layer's exported functions — plus
// the layer budget they add up to. BENCHMARK.json at the repository root
// names the same workloads and metrics; README.md says what each is for.
//
//	go run ./bench                         every workload: end-to-end pass, layer pass, budget
//	go run ./bench -workload wire-compress -scale 0.1
//	go run ./bench -aa 2                   two full sets, compared against the bounds
//	go run ./bench -json out.json          machine-readable results
//	go run ./bench -baseline out.json      compare against an earlier -json file
//
// With -seconds the program speaks the benchmark contract instead: the same
// measurement of one workload (-seconds S is -scale S/25), as one JSON
// object on the last line of standard output.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
)

// reps is how many untraced runs an end-to-end measurement takes the median
// of; each is its own process, so set-up, peak RSS and GC state are per
// run.
const reps = 9

// hostShape is what absolute numbers depend on besides the code. Results
// taken on different shapes are never compared.
type hostShape struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	SpoolFS    string `json:"spool_fs"`
}

// Linux statfs magic numbers of the file systems a spool is likely to be on.
var fsNames = map[int64]string{0x01021994: "tmpfs", 0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs",
	0x794C7630: "overlayfs", 0x6969: "nfs"}

// fsOf names the file system holding path and its free bytes.
func fsOf(path string) (name string, free uint64) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown", 0
	}
	name, ok := fsNames[int64(st.Type)]
	if !ok {
		name = fmt.Sprintf("0x%x", st.Type)
	}
	return name, st.Bavail * uint64(st.Bsize)
}

// defaultSpoolRoot picks where the spool goes when -spool is not given: in
// the working directory when that is memory-backed, else /dev/shm when it
// is a tmpfs with 4 GiB free, else the working directory after all. The
// spool stands in for a parallel file system; on a local disk the
// write-ahead journal's file-per-block traffic measures the disk's
// metadata path (and its mood), which is not what this benchmark reports.
func defaultSpoolRoot() string {
	const need = 4 << 30
	local := ".bench_build"
	if name, free := fsOf("."); name == "tmpfs" && free >= need {
		return local
	}
	if name, free := fsOf("/dev/shm"); name == "tmpfs" && free >= need {
		return "/dev/shm"
	}
	return local
}

// newSpool makes a fresh spool directory under root, or under the default
// root when root is empty. The caller removes it.
func newSpool(root string) (string, error) {
	if root == "" {
		root = defaultSpoolRoot()
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "zipper-bench-")
}

func currentShape(spool string) hostShape {
	h := hostShape{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = string(bytes.TrimSpace(b))
	}
	h.SpoolFS, _ = fsOf(spool)
	return h
}

// runner starts runs of a workload: each in a process of its own (the
// benchmark re-executes itself), or in this process under go test.
type runner struct {
	spool     string
	traceOut  string
	inProcess bool

	mu    sync.Mutex
	child *exec.Cmd // the run in flight, for the signal handler to stop
}

func (r *runner) run(w *workload, seed int64, scale float64, traced bool) (*runResult, error) {
	if r.inProcess {
		return runWorkload(w, seed, scale, r.spool, traced)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-scale", strconv.FormatFloat(scale, 'g', -1, 64), "-traced="+strconv.FormatBool(traced),
		"-spool", r.spool, "-trace-out", r.traceOut)
	cmd.Stderr = os.Stderr
	r.mu.Lock()
	r.child = cmd
	r.mu.Unlock()
	out, err := cmd.Output()
	r.mu.Lock()
	r.child = nil
	r.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("%s run: %w", w.name, err)
	}
	res := &runResult{}
	if err := json.Unmarshal(out, res); err != nil {
		return nil, fmt.Errorf("%s run: reading its result: %w", w.name, err)
	}
	return res, nil
}

// child is one run in its own process: the result goes to standard output
// as one JSON object, spans (if asked for) are appended to the trace file.
func child(w *workload, seed int64, scale float64, spool, traceOut string, traced bool) error {
	res, err := runWorkload(w, seed, scale, spool, traced)
	if err != nil {
		return err
	}
	if traced && traceOut != "" {
		f, err := os.OpenFile(traceOut, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		for _, s := range res.spans {
			if err := enc.Encode(struct {
				Workload string `json:"workload"`
				span
			}{w.name, s}); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// measurement is one workload's numbers in one set.
type measurement struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Samples   int64              `json:"latency_samples"`
	MBPerSec  float64            `json:"mb_per_s"`
	E2E       map[string]float64 `json:"end_to_end"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// untraced runs w n times with tracing off, each on its own seed derived
// from seed, and reports the median of every end-to-end metric.
func (r *runner) untraced(w *workload, seed int64, scale float64, n int) (*measurement, []*runResult, error) {
	m := &measurement{Workload: w.name, Correct: true, E2E: map[string]float64{}}
	var runs []*runResult
	vals := map[string][]float64{}
	for i := 0; i < n; i++ {
		res, err := r.run(w, seed*int64(n)+int64(i), scale, false)
		if err != nil {
			return nil, nil, err
		}
		runs = append(runs, res)
		m.Correct = m.Correct && res.ok()
		m.Attempted += res.BlocksWritten
		m.Failed += res.BlocksFailed
		m.Samples += res.LatencySamples
		m.MBPerSec += res.MBPerSec / float64(n)
		for _, d := range endToEnd {
			vals[d.name] = append(vals[d.name], res.E2E[d.name])
		}
	}
	for k, v := range vals {
		m.E2E[k] = median(v)
	}
	return m, runs, nil
}

// endToEndPass is the untraced measurement of w at a scale: reps runs of a
// reps-th of the work each, medians reported.
func (r *runner) endToEndPass(w *workload, seed int64, scale float64) (*measurement, error) {
	m, _, err := r.untraced(w, seed, scale/reps, reps)
	return m, err
}

// layerPass is the traced measurement of w at a scale: an untraced run and
// a traced run of the same inputs, a third of the work each, plus the unit
// probes at w's shape. It reports the per-layer metrics and folds the two
// runs' block counts into m.
func (r *runner) layerPass(w *workload, seed int64, scale float64) (*measurement, error) {
	m, runs, err := r.untraced(w, seed, scale/3, 1)
	if err != nil {
		return nil, err
	}
	traced, err := r.run(w, runs[0].Seed, runs[0].Scale, true)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.spool, "probes-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	probes, err := runProbes(w, dir, seed, probeBudget)
	if err != nil {
		return nil, err
	}
	m.Layer = layerMetrics(w, runs[0], traced, probes)
	m.Correct = m.Correct && traced.ok()
	m.Attempted += traced.BlocksWritten
	m.Failed += traced.BlocksFailed
	return m, nil
}

var errIncorrect = errors.New("run incorrect: blocks failed, the consumer errored or a healthy stager was evicted")

// contract is one invocation by the benchmark driver: with trace 0 the
// end-to-end pass, with trace 1 the layer pass, sized so the invocation
// measures for about seconds.
func (r *runner) contract(w *workload, seed int64, seconds float64, trace int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	var m *measurement
	var err error
	if trace == 0 {
		m, err = r.endToEndPass(w, seed, seconds/refSeconds)
	} else {
		m, err = r.layerPass(w, seed, seconds/refSeconds)
	}
	if err != nil {
		return err
	}
	out.Correct, out.Attempted, out.Failed = m.Correct, m.Attempted, m.Failed
	if trace == 0 {
		for _, d := range endToEnd {
			out.Metrics[d.name] = value{m.E2E[d.name], d.unit}
		}
	} else {
		for _, d := range perLayer {
			out.Metrics[d.name] = value{m.Layer[d.name], d.unit}
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		return err
	}
	if !out.Correct {
		return errIncorrect
	}
	return nil
}

// resultSet is one full pass over the chosen workloads, as -json writes it.
type resultSet struct {
	Host      hostShape      `json:"host"`
	Seed      int64          `json:"seed"`
	Scale     float64        `json:"scale"`
	Workloads []*measurement `json:"workloads"`
}

// fullSet measures every chosen workload the way the contract does — the
// end-to-end pass, then the layer pass — and prints one line per metric and
// the layer budget.
func (r *runner) fullSet(ws []*workload, seed int64, scale float64) (*resultSet, error) {
	set := &resultSet{Host: currentShape(r.spool), Seed: seed, Scale: scale}
	for _, w := range ws {
		m, err := r.endToEndPass(w, seed, scale)
		if err != nil {
			return nil, err
		}
		lm, err := r.layerPass(w, seed, scale)
		if err != nil {
			return nil, err
		}
		m.Layer = lm.Layer
		set.Workloads = append(set.Workloads, m)
		for _, d := range endToEnd {
			fmt.Printf("%s %s %.6g %s\n", w.name, d.name, m.E2E[d.name], d.unit)
		}
		fmt.Printf("%s blocks_written %d count\n%s blocks_failed %d count\n%s latency_samples %d count\n%s throughput %.1f MB/s\n",
			w.name, m.Attempted, w.name, m.Failed, w.name, m.Samples, w.name, m.MBPerSec)
		for _, d := range perLayer {
			fmt.Printf("%s %s %.6g %s\n", w.name, d.name, m.Layer[d.name], d.unit)
		}
		printBudget(os.Stdout, w.name, m.Layer, lm.E2E["cpu_s"])
		if !m.Correct || !lm.Correct {
			return set, fmt.Errorf("%s: %w (%d blocks failed, evictions %v)", w.name, errIncorrect,
				m.Failed+lm.Failed, m.Layer["fault.evictions"])
		}
	}
	return set, nil
}

// compare prints every end-to-end (metric, workload) pair of two sets with
// their ratio and bound, and reports whether all pairs agree. Sets from
// different host shapes are refused.
func compare(a, b *resultSet) (bool, error) {
	if a.Host != b.Host || a.Scale != b.Scale {
		return false, fmt.Errorf("refusing to compare: host shape or scale differ (%+v scale %g vs %+v scale %g)",
			a.Host, a.Scale, b.Host, b.Scale)
	}
	ok := true
	fmt.Printf("%-18s %-15s %12s %12s %7s %6s\n", "workload", "metric", "first", "second", "ratio", "bound")
	for _, ma := range a.Workloads {
		for _, mb := range b.Workloads {
			if ma.Workload != mb.Workload {
				continue
			}
			for _, d := range endToEnd {
				va, vb := ma.E2E[d.name], mb.E2E[d.name]
				ratio := vb / va
				verdict := ""
				if ratio > 1+d.bound || ratio < 1/(1+d.bound) {
					verdict, ok = "  DISAGREE", false
				}
				fmt.Printf("%-18s %-15s %12.6g %12.6g %7.3f %6.2f%s\n", ma.Workload, d.name, va, vb, ratio, d.bound, verdict)
			}
		}
	}
	return ok, nil
}

// options are the command line.
type options struct {
	workload, spool, traceOut, jsonOut, baseline string
	scale, seconds                               float64
	seed                                         int64
	aa, trace                                    int
	child, traced                                bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	flag.Float64Var(&o.scale, "scale", 1, "multiplier on every workload's block count; a pass splits the work over its runs")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.StringVar(&o.spool, "spool", "", "spool directory, standing in for the parallel file system (default: a temporary directory on tmpfs, see README.md)")
	flag.StringVar(&o.traceOut, "trace-out", "", "append the traced pass's driver spans to this file as JSON lines")
	flag.StringVar(&o.jsonOut, "json", "", "write the results to this file")
	flag.StringVar(&o.baseline, "baseline", "", "compare the end-to-end results with this earlier -json file")
	flag.IntVar(&o.aa, "aa", 0, "run this many full sets of the same code and compare consecutive sets")
	flag.Float64Var(&o.seconds, "seconds", 0, "benchmark contract: measure one workload for about this long")
	flag.IntVar(&o.trace, "trace", 0, "benchmark contract: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	flag.BoolVar(&o.child, "child", false, "internal: one run, result as JSON on standard output")
	flag.BoolVar(&o.traced, "traced", false, "internal: with -child, trace the run")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	ws := workloads
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		ws = []*workload{w}
	}
	if o.child {
		return child(ws[0], o.seed, o.scale, o.spool, o.traceOut, o.traced)
	}
	// The spool is a directory of this invocation's own, removed when it
	// ends — also on a signal, since on /dev/shm a leftover holds memory.
	dir, err := newSpool(o.spool)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &runner{spool: dir, traceOut: o.traceOut}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		r.mu.Lock()
		if r.child != nil {
			_ = r.child.Process.Kill() // its Output call reaps it
		}
		r.mu.Unlock()
		os.RemoveAll(dir)
		os.Exit(1)
	}()
	if o.seconds > 0 {
		if o.workload == "" {
			return errors.New("-seconds needs -workload")
		}
		return r.contract(ws[0], o.seed, o.seconds, o.trace)
	}

	n := max(o.aa, 1)
	var sets []*resultSet
	for i := 0; i < n; i++ {
		if n > 1 {
			fmt.Printf("== set %d of %d\n", i+1, n)
		}
		set, err := r.fullSet(ws, o.seed, o.scale)
		if err != nil {
			return err
		}
		sets = append(sets, set)
	}
	if o.jsonOut != "" {
		data, err := json.MarshalIndent(sets[len(sets)-1], "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if o.baseline != "" {
		data, err := os.ReadFile(o.baseline)
		if err != nil {
			return err
		}
		base := &resultSet{}
		if err := json.Unmarshal(data, base); err != nil {
			return fmt.Errorf("%s: %w", o.baseline, err)
		}
		sets = append([]*resultSet{base}, sets...)
	}
	agree := true
	for i := 1; i < len(sets); i++ {
		ok, err := compare(sets[i-1], sets[i])
		if err != nil {
			return err
		}
		agree = agree && ok
	}
	if !agree {
		return errors.New("end-to-end metrics disagree beyond their bounds")
	}
	return nil
}
