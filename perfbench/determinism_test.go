package main

import (
	"context"
	"reflect"
	"runtime"
	"testing"
)

// The same seed must give identical inputs; another seed different ones,
// so a claim made on one seed can be re-checked on a held-out seed.
func TestInputsDeterministic(t *testing.T) {
	gen := map[string]func(seed int64) interface{}{
		"solve-cold": func(seed int64) interface{} { return solveColdBodies(seed, 2) },
		"serve-zipf": func(seed int64) interface{} {
			keys, prefill, sched := zipfInputs(seed, 2)
			return []interface{}{keys, prefill, sched}
		},
		"sweep-resume": func(seed int64) interface{} { return sweepDocs(seed, 2) },
	}
	for name, g := range gen {
		if !reflect.DeepEqual(g(7), g(7)) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", name)
		}
		if reflect.DeepEqual(g(7), g(8)) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

// exactMetrics are the figures that must repeat bit for bit for a seed.
var exactMetrics = []string{
	"rmse_m", "rmse_crlb_ratio",
	"sim.msgs_per_solve", "sim.bytes_per_solve", "core.rounds",
	"bayes.conv_sparse_calls", "bayes.conv_fft_calls", "sweep.cells_executed",
}

// Two traced runs of each workload on one seed agree exactly on accuracy
// and on every exact count, and pass their correctness checks.
func TestExactFiguresRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for name, wl := range workloads {
		var runs [2]*outcome
		for i := range runs {
			cfg := config{workload: name, seed: 3, seconds: 1, trace: true, nproc: runtime.NumCPU(), tmp: t.TempDir()}
			runs[i] = newOutcome()
			if err := wl(context.Background(), cfg, runs[i]); err != nil {
				t.Fatalf("%s run %d: %v", name, i, err)
			}
			if len(runs[i].failures) > 0 {
				t.Fatalf("%s run %d: checks failed: %v", name, i, runs[i].failures)
			}
		}
		for _, m := range exactMetrics {
			get := func(o *outcome) (metric, bool) {
				if v, ok := o.e2e[m]; ok {
					return v, true
				}
				v, ok := o.layer[m]
				return v, ok
			}
			a, aok := get(runs[0])
			b, bok := get(runs[1])
			if aok != bok || a != b {
				t.Errorf("%s: %s differs between runs: %v vs %v", name, m, a, b)
			}
		}
	}
}
