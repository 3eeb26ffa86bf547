// Command daasbench is the repository benchmark: it drives the study,
// watch and serve paths of the system from outside, through their
// public functions, and prints every metric by name with its unit.
//
//	daasbench --workload study --seed 7 --seconds 10 --trace 0
//
// Workloads are study, study-rpc, radar and screen-rpc (or "all", which
// runs each in turn). A run is split over three processes run one after
// another (see processes). With --trace 0 the last line of standard output
// is a JSON object carrying the end-to-end metrics named in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, and
// the full span and counter trace is written under .bench_build/traces.
// Every run checks the system's outputs; a failed check makes the run
// exit 1. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
	// Pool, when set, holds the samples Value is the Q-quantile of, and
	// a split run merges the metric by taking that quantile of every
	// process's samples pooled, not the median of the processes' values.
	Pool []float64 `json:",omitempty"`
	Q    float64   `json:",omitempty"`
}

// pooledQuantile is the q-quantile of xs, each scaled by scale, as a
// metric that mergeReports pools across processes.
func pooledQuantile(name string, xs []float64, q, scale float64, unit string) metric {
	pool := make([]float64, len(xs))
	for i, x := range xs {
		pool[i] = x * scale
	}
	return metric{Name: name, Value: quantile(pool, q), Unit: unit, Pool: pool, Q: q}
}

// check is one output-correctness assertion.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// report is everything one workload run measured and checked.
type report struct {
	Workload  string
	Attempted int
	Failed    int
	Checks    []check
	// EndToEnd carries the contract metrics of BENCHMARK.json.
	EndToEnd []metric
	// Named carries the workload's end-to-end metrics under their
	// workload-specific names (study_s, radar_step_p99_ms, ...).
	Named []metric
	// Layers carries every per-layer metric the traced run recorded.
	Layers []metric
	Notes  []string
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *report) e2e(name string, v float64, unit string) {
	r.EndToEnd = append(r.EndToEnd, metric{Name: name, Value: v, Unit: unit})
}

func (r *report) named(name string, v float64, unit string) {
	r.Named = append(r.Named, metric{Name: name, Value: v, Unit: unit})
}

func (r *report) layer(name string, v float64, unit string) {
	r.Layers = append(r.Layers, metric{Name: name, Value: v, Unit: unit})
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return len(r.Checks) > 0
}

// options are the command-line settings every workload receives.
type options struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	Tracer  *tracer
}

// budget is the measurement window of one run.
func (o options) budget() time.Duration {
	return time.Duration(o.Seconds * float64(time.Second))
}

var workloads = map[string]func(options) (*report, error){
	"study":      runStudy,
	"study-rpc":  runStudyRPC,
	"radar":      runRadar,
	"screen-rpc": runScreenRPC,
}

var workloadOrder = []string{"study", "study-rpc", "radar", "screen-rpc"}

// processes is how many processes a run is split over. Each sets the
// workload up once and measures its share of the window; the run
// reports the median of their metrics, so setup_s is a median of three
// set-ups and one process's memory layout or scheduling luck cannot
// move a metric on its own.
const processes = 3

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: study, study-rpc, radar, screen-rpc, or all")
		seed     = flag.Uint64("seed", shippedSeed, "input seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measurement window per run, in seconds")
		traceOn  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced run reporting end-to-end metrics")
		part     = flag.Int("part", -1, "run as process `n` of a split run and print its raw report (used by the parent)")
	)
	flag.Parse()
	opts := options{Seed: *seed, Seconds: *seconds, Trace: *traceOn == 1}
	if *part >= 0 {
		if err := runPart(*workload, *part, opts); err != nil {
			fatal(fmt.Errorf("%s: %w", *workload, err))
		}
		return
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	exit := 0
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			fatal(fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadOrder, ", ")))
		}
		parts, err := runParts(name, opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		rep := mergeReports(parts)
		printReport(rep)
		want, got := spec.EndToEnd, rep.EndToEnd
		if opts.Trace {
			want, got = spec.PerLayer, rep.Layers
		}
		line, err := resultLine(rep, want, got)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if !rep.correct() {
			exit = 1
		}
		fmt.Println(line)
	}
	os.Exit(exit)
}

// runPart runs one process's share of a run and prints its report as
// one JSON line.
func runPart(name string, part int, o options) error {
	run, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	o.Seconds /= processes
	if o.Trace {
		o.Tracer = newTracer()
	}
	rep, err := run(o)
	if err != nil {
		return err
	}
	rep.Workload = name
	rep.e2e("peak_rss_mb", peakRSSMB(), "MB")
	if o.Trace {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d-part%d.json", name, o.Seed, part))
		if err := o.Tracer.writeFile(path, rep); err != nil {
			return err
		}
		rep.note("trace written to %s", path)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// runParts runs the split run's processes one after another and
// collects their reports.
func runParts(name string, o options) ([]*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.Trace {
		trace = "1"
	}
	var parts []*report
	for i := 0; i < processes; i++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(o.Seed, 10),
			"--seconds", strconv.FormatFloat(o.Seconds, 'g', -1, 64), "--trace", trace, "--part", strconv.Itoa(i))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("process %d: %w", i, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return nil, fmt.Errorf("process %d: reading its report: %w", i, err)
		}
		parts = append(parts, &rep)
	}
	return parts, nil
}

// mergeReports combines the processes' reports: operations add up, a
// check passes only if it passed in every process, and each metric is
// the median of the processes' values, or, for a pooled quantile, that
// quantile of all their samples.
func mergeReports(parts []*report) *report {
	out := &report{Workload: parts[0].Workload}
	for _, p := range parts {
		out.Attempted += p.Attempted
		out.Failed += p.Failed
	}
	for i, c := range parts[0].Checks {
		for _, p := range parts[1:] {
			if i < len(p.Checks) && !p.Checks[i].OK && c.OK {
				c = p.Checks[i]
			}
		}
		out.Checks = append(out.Checks, c)
	}
	out.EndToEnd = mergeMetrics(parts, func(r *report) []metric { return r.EndToEnd })
	out.Named = mergeMetrics(parts, func(r *report) []metric { return r.Named })
	out.Layers = mergeMetrics(parts, func(r *report) []metric { return r.Layers })
	out.Notes = append(parts[0].Notes, fmt.Sprintf("metrics are medians over %d processes (latency quantiles pool their samples); notes are the first one's", len(parts)))
	return out
}

func mergeMetrics(parts []*report, list func(*report) []metric) []metric {
	values := make(map[string][]float64)
	pools := make(map[string][]float64)
	pooled := make(map[string]int)
	for _, p := range parts {
		for _, m := range list(p) {
			values[m.Name] = append(values[m.Name], m.Value)
			if m.Pool != nil {
				pools[m.Name] = append(pools[m.Name], m.Pool...)
				pooled[m.Name]++
			}
		}
	}
	var out []metric
	for _, m := range list(parts[0]) {
		v := median(values[m.Name])
		if pooled[m.Name] == len(parts) {
			v = quantile(pools[m.Name], m.Q)
		}
		out = append(out, metric{Name: m.Name, Value: v, Unit: m.Unit})
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "daasbench:", err)
	os.Exit(2)
}

// benchSpec is the part of BENCHMARK.json the program reads: which
// metric names the result line must carry.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// resultLine renders the machine-readable last line: exactly the spec's
// metrics, each of which the run must have measured.
func resultLine(rep *report, want []specMetric, got []metric) (string, error) {
	have := make(map[string]metric, len(got))
	for _, m := range got {
		have[m.Name] = m
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), rep.Attempted, rep.Failed, make(map[string]value, len(want))}
	for _, w := range want {
		m, ok := have[w.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", w.Name)
		}
		if m.Unit != w.Unit {
			return "", fmt.Errorf("metric %s measured in %s, spec says %s", w.Name, m.Unit, w.Unit)
		}
		out.Metrics[w.Name] = value{m.Value, m.Unit}
	}
	if out.Attempted < 1 {
		return "", fmt.Errorf("no operations attempted")
	}
	data, err := json.Marshal(out)
	return string(data), err
}

func printReport(rep *report) {
	fmt.Printf("== %s ==\n", rep.Workload)
	fmt.Printf("operations: %d attempted, %d failed\n", rep.Attempted, rep.Failed)
	for _, c := range rep.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Printf("check %s %-34s %s\n", status, c.Name, c.Detail)
	}
	printMetrics("end-to-end", rep.EndToEnd)
	printMetrics("workload", rep.Named)
	layers := append([]metric(nil), rep.Layers...)
	sort.SliceStable(layers, func(i, j int) bool { return layers[i].Name < layers[j].Name })
	printMetrics("layer", layers)
	for _, n := range rep.Notes {
		fmt.Printf("note %s\n", n)
	}
}

func printMetrics(kind string, ms []metric) {
	for _, m := range ms {
		fmt.Printf("%-10s %-34s %14.6g %s\n", kind, m.Name, m.Value, m.Unit)
	}
}
