// Command perfbench is wsnloc's benchmark. One invocation runs one named
// workload against the program's public entry points — an in-process
// wsnlocd-equivalent server (serve.New behind serve.Config.HTTPServer on a
// loopback listener) or sweep.RunCtx — checks that every output is
// correct, and prints the workload's metrics by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing added; with --trace 1 they are the per-layer ones, from a
// separate traced replay of the same inputs. See README.md for the
// workloads, the metrics and the layers each metric should move.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload solve-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// deadline bounds one invocation: a run that cannot finish fails within
// three minutes instead of hanging.
const deadline = 170 * time.Second

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	nproc    int    // client goroutines and keep-alive connections
	tmp      string // fresh per run, removed on exit
}

// phase counts the operations of one phase of a run.
type phase struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

func (p *phase) add(ok bool) {
	p.Attempted++
	if ok {
		p.Succeeded++
	} else {
		p.Failed++
	}
}

// outcome is everything one workload run reports.
type outcome struct {
	e2e   metrics
	layer metrics
	// Phases accounts for every operation: set-up, warm-up, timed.
	phases map[string]*phase
	// failures lists every failed correctness check.
	failures []string
	// notes are extra stamps for the report (tail percentile and sample
	// count, generator lateness, ...).
	notes map[string]interface{}
}

func newOutcome() *outcome {
	return &outcome{
		e2e:    metrics{},
		layer:  metrics{},
		phases: map[string]*phase{"setup": {}, "warmup": {}, "timed": {}},
		notes:  map[string]interface{}{},
	}
}

func (o *outcome) fail(format string, args ...interface{}) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// perLayer lists every per-layer metric with its unit. A workload that does
// not exercise a layer reports 0 for its metrics (README.md marks which).
var perLayer = [][2]string{
	{"serve.miss_frac", "frac"}, {"serve.hit_mem_frac", "frac"}, {"serve.hit_disk_frac", "frac"},
	{"serve.coalesced_frac", "frac"}, {"serve.not_modified_frac", "frac"},
	{"serve.hit_latency_p50_ms", "ms"}, {"serve.miss_latency_p50_ms", "ms"},
	{"serve.exec_per_key", "ratio"}, {"serve.wire_bytes_per_req", "B"},
	{"exec.queue_wait_ms_mean", "ms"}, {"exec.jobs", "count"}, {"exec.rejected", "count"},
	{"alg.parse_us", "us"}, {"alg.hash_us", "us"}, {"alg.scenario_build_ms", "ms"},
	{"core.localize_ms", "ms"}, {"core.hopflood_ms", "ms"}, {"core.bp_ms", "ms"},
	{"core.outside_rounds_ms", "ms"}, {"core.rounds", "count"},
	{"bayes.conv_ms", "ms"}, {"bayes.conv_sparse_calls", "count"}, {"bayes.conv_fft_calls", "count"},
	{"bayes.nonconv_bp_ms", "ms"},
	{"sim.msgs_per_solve", "count"}, {"sim.bytes_per_solve", "B"},
	{"sweep.hit_frac", "frac"}, {"sweep.cells_executed", "count"}, {"sweep.cell_exec_ms", "ms"},
	{"sweep.cache_load_us", "us"}, {"sweep.cache_store_us", "us"}, {"sweep.summary_ms", "ms"},
	{"sweep.store_bytes_per_cell", "B"},
	{"proc.cpu_ms_per_op", "ms"}, {"proc.gc_cycles_per_op", "count"}, {"proc.alloc_kb_per_op", "KiB"},
	{"harness.late_ms_tail", "ms"}, {"harness.tracing_overhead_frac", "frac"},
}

var workloads = map[string]func(context.Context, config, *outcome) error{
	"solve-cold":   solveCold,
	"serve-zipf":   serveZipf,
	"sweep-resume": sweepResume,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "solve-cold | serve-zipf | sweep-resume")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "nominal length of the timed phase (sets the operation count)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.trace = trace == 1
	cfg.nproc = runtime.NumCPU()

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmpRoot := filepath.Join(cwd, ".bench_tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg.tmp, err = os.MkdirTemp(tmpRoot, cfg.workload+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer func() {
		os.RemoveAll(cfg.tmp)
		os.Remove(tmpRoot) // only succeeds when no other run is using it
	}()

	env := map[string]interface{}{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      trace,
		"nproc":      cfg.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
	printJSON(stdout, "env", env)

	// An interrupted run still removes its scratch directory.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(sigCtx, deadline)
	defer cancel()
	out := newOutcome()
	if err := wl(ctx, cfg, out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	for _, l := range perLayer {
		if _, ok := out.layer[l[0]]; !ok {
			out.layer.set(l[0], 0, l[1])
		}
	}
	printJSON(stdout, "phases", out.phases)
	printJSON(stdout, "notes", out.notes)
	for _, f := range out.failures {
		fmt.Fprintln(stdout, "check failed:", f)
	}
	report := out.e2e
	if cfg.trace {
		report = out.layer
	}
	for _, name := range sortedNames(report) {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", name, report[name].Value, report[name].Unit)
	}
	timed := out.phases["timed"]
	correct := len(out.failures) == 0
	line, err := json.Marshal(map[string]interface{}{
		"correct":   correct,
		"attempted": timed.Attempted,
		"failed":    timed.Failed,
		"metrics":   report,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortedNames(m metrics) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printJSON(w io.Writer, label string, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Fprintf(w, "%s: %s\n", label, b)
}

// commit identifies the measured source: the VCS revision the build
// recorded, with "+dirty" when the tree had uncommitted changes, or
// "unknown" when the build recorded none.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
