package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"wsnloc/internal/alg"
	"wsnloc/internal/core"
	evalpkg "wsnloc/internal/metrics"
	"wsnloc/internal/obs"
	"wsnloc/internal/rng"
	"wsnloc/internal/sweep"
)

// cellScenario is the scenario a single-trial sweep cell solves: the
// engine shifts the scenario seed by the cell seed (sweep.runCell), and
// trial 0 adds nothing to it (expt.RunTrialsOpts). The traced replay checks
// every cell it solves this way against the engine's own evaluation, so a
// drift in either rule fails the run.
func cellScenario(c sweep.Cell) alg.Scenario {
	s := c.Spec.Scenario
	s.Seed ^= c.Spec.Seed * 0x9E3779B97F4A7C15
	return s
}

// cellStream is the algorithm's random stream for trial 0 of a cell, as
// expt.RunTrialsOpts seeds it.
func cellStream(s alg.Scenario) *rng.Stream { return rng.New(s.Seed ^ 0xBEEF) }

// sameEval reports whether two evaluations agree field for field.
func sameEval(a, b evalpkg.Eval) bool {
	if len(a.Errors) == 0 && len(b.Errors) == 0 {
		a.Errors, b.Errors = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

func summaryBytes(r *sweep.Result) ([]byte, error) { return json.Marshal(r.Summary()) }

// runDoc is one wsnloc-sweep invocation: parse the document, run it, and
// render its summary.
func runDoc(ctx context.Context, doc []byte, opts sweep.Options) (*sweep.Result, []byte, error) {
	sw, err := sweep.ParseSpec(doc)
	if err != nil {
		return nil, nil, err
	}
	r, err := sweep.RunCtx(ctx, sw, opts)
	if err != nil {
		return nil, nil, err
	}
	s, err := summaryBytes(r)
	return r, s, err
}

// sweepResume: wsnloc-sweep's path — sweep.RunCtx with Resume into one
// OutDir. Each timed operation resumes the cold-filled base grid (all cache
// loads) and then runs one fresh slice of cheap baseline cells (executions
// and stores).
func sweepResume(ctx context.Context, cfg config, out *outcome) error {
	in := sweepDocs(cfg.seed, cfg.seconds)
	baseSpec, err := sweep.ParseSpec(in.base)
	if err != nil {
		return err
	}

	// Set-up: the cold fill, a non-resumed run whose summary is also the
	// reference every resumed base summary must equal. Each repetition's
	// directory is removed before the next one is timed, so every fill
	// starts from the same disk state and only the last one is kept.
	var dir string
	var cold []byte
	sp := out.phases["setup"]
	setups, err := repeatSetup(func() error { return os.RemoveAll(dir) }, func(i int) error {
		dir = filepath.Join(cfg.tmp, fmt.Sprintf("sweep-%d", i))
		_, s, err := runDoc(ctx, in.base, sweep.Options{OutDir: dir})
		sp.add(err == nil)
		cold = s
		return err
	})
	if err != nil {
		return err
	}
	out.e2e.set("setup_s", median(setups), "s")
	out.notes["setup_samples"] = len(setups)

	reg := obs.NewRegistry()
	opts := sweep.Options{OutDir: dir, Resume: true, Metrics: reg}
	n := len(in.fresh)
	lat := make([]float64, n)
	freshSums := make([][]byte, n)
	baseOK := make([]bool, n)
	var first *sweep.Result
	var cached, executed int
	runtime.GC()
	p0 := readProc()
	start := time.Now()
	for j := 0; j < n; j++ {
		t := time.Now()
		r, s, err := runDoc(ctx, in.base, opts)
		if err != nil {
			return fmt.Errorf("sweep-resume op %d: %w", j, err)
		}
		f, fs, err := runDoc(ctx, in.fresh[j], opts)
		lat[j] = ms(time.Since(t))
		if err != nil {
			return fmt.Errorf("sweep-resume op %d: %w", j, err)
		}
		if first == nil {
			first = r
		}
		cached += r.Cached + f.Cached
		executed += r.Executed + f.Executed
		baseOK[j] = bytes.Equal(s, cold)
		freshSums[j] = fs
	}
	wall := time.Since(start)
	p1 := readProc()

	// Accuracy covers every cell the run resolved: the base grid and all
	// fresh slices. Cells of one scenario and seed share a topology, so
	// each bound is computed once.
	var acc accuracy
	bounds := map[alg.Scenario]float64{}
	score := func(cells []sweep.CellResult) error {
		for _, cr := range cells {
			s := cellScenario(cr.Cell)
			b, ok := bounds[s]
			if !ok {
				p, err := s.Build()
				if err != nil {
					return err
				}
				if b, err = boundRMS(p); err != nil {
					return err
				}
				bounds[s] = b
			}
			acc.add(cr.Eval.Errors, b)
		}
		return nil
	}
	if err := score(first.Cells); err != nil {
		return err
	}

	// Each fresh slice must summarize exactly as a cold, non-resumed,
	// in-memory run of the same document.
	timed := out.phases["timed"]
	engine := map[string]evalpkg.Eval{}
	for j, doc := range in.fresh {
		r, s, err := runDoc(ctx, doc, sweep.Options{})
		if err != nil {
			return err
		}
		for _, cr := range r.Cells {
			engine[cr.Key] = cr.Eval
		}
		if err := score(r.Cells); err != nil {
			return err
		}
		freshOK := bytes.Equal(s, freshSums[j])
		if !baseOK[j] {
			out.fail("sweep-resume op %d: resumed base summary differs from the cold run", j)
		}
		if !freshOK {
			out.fail("sweep-resume op %d: fresh-slice summary differs from a cold run", j)
		}
		timed.add(baseOK[j] && freshOK)
	}

	latencyMetrics(out, lat, wall)
	finishE2E(out, p1)
	if err := acc.report(out.e2e); err != nil {
		return err
	}
	m := out.layer
	m.set("sweep.hit_frac", float64(cached)/float64(cached+executed), "frac")
	m.set("sweep.cells_executed", float64(executed), "count")
	m.set("sweep.cell_exec_ms", reg.Histogram("wsnloc_sweep_cell_seconds", obs.DurationBuckets()).Mean()*1e3, "ms")
	files, size, err := objectStats(filepath.Join(dir, "objects"))
	if err != nil {
		return err
	}
	m.set("sweep.store_bytes_per_cell", float64(size)/float64(files), "B")
	procMetrics(m, p0, p1, n)
	if cfg.trace {
		return sweepReplayMetrics(ctx, cfg, out, baseSpec, in, dir, engine)
	}
	return nil
}

func objectStats(dir string) (files int, size int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		size += info.Size()
		return nil
	})
	return files, size, err
}

// sweepReplay is one replay of the timed operations, layer by layer.
type sweepReplay struct {
	mu                         sync.Mutex
	hash, load, store, summary []float64
	cells                      []solveOut // the fresh cells, executed in-process
}

// op replays one timed operation: key and load every base cell, summarize
// them, and execute and store the fresh slice's cells. Each fresh cell's
// evaluation must equal the engine's (engine, keyed by cell key).
func (sr *sweepReplay) op(ctx context.Context, base []sweep.Cell, baseSpec sweep.Spec, fresh []sweep.Cell, cache, store *sweep.Cache, engine map[string]evalpkg.Eval, traced bool) error {
	var hash, load, stor []float64
	var cells []solveOut
	results := make([]sweep.CellResult, len(base))
	for i, c := range base {
		t := time.Now()
		if _, err := c.Spec.Hash(); err != nil {
			return err
		}
		hash = append(hash, float64(time.Since(t))/1e3)
		key, err := c.Key()
		if err != nil {
			return err
		}
		t = time.Now()
		e, ok := cache.Load(key)
		load = append(load, float64(time.Since(t))/1e3)
		if !ok {
			return fmt.Errorf("base cell %d missing from the cache", i)
		}
		results[i] = sweep.CellResult{Index: i, Cell: c, Key: key, Cached: true, Eval: e.Eval}
	}
	t := time.Now()
	r := &sweep.Result{Spec: baseSpec, Cells: results, Cached: len(results)}
	if _, err := summaryBytes(r); err != nil {
		return err
	}
	sum := ms(time.Since(t))
	for _, c := range fresh {
		var o solveOut
		s := cellScenario(c)
		t := time.Now()
		p, err := s.Build()
		o.build = time.Since(t)
		if err != nil {
			return err
		}
		opts := c.Spec.AlgOpts
		if traced {
			opts.Tracer = obs.NewMemory()
		}
		a, err := alg.New(c.Spec.Algorithm, opts)
		if err != nil {
			return err
		}
		t = time.Now()
		res, err := core.LocalizeContext(ctx, a, p, cellStream(s))
		o.localize = time.Since(t)
		if err != nil {
			return err
		}
		o.res = res
		key, err := c.Key()
		if err != nil {
			return err
		}
		eval := evalpkg.Evaluate(p, res)
		if want, ok := engine[key]; !ok || !sameEval(eval, want) {
			return fmt.Errorf("replayed cell %s (%s) does not reproduce the engine's evaluation", key, c.Spec.Algorithm)
		}
		t = time.Now()
		err = store.Store(&sweep.Entry{Key: key, Engine: sweep.EngineVersion, Spec: c.Spec, Trials: c.Trials, Eval: eval})
		stor = append(stor, float64(time.Since(t))/1e3)
		if err != nil {
			return err
		}
		cells = append(cells, o)
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.hash = append(sr.hash, hash...)
	sr.load = append(sr.load, load...)
	sr.store = append(sr.store, stor...)
	sr.summary = append(sr.summary, sum)
	sr.cells = append(sr.cells, cells...)
	return nil
}

// sweepReplayMetrics replays every timed operation on nproc goroutines,
// untraced and traced back to back, storing into a cache directory of its
// own, and folds the traced layer timings into the per-layer metrics.
func sweepReplayMetrics(ctx context.Context, cfg config, out *outcome, baseSpec sweep.Spec, in sweepInputs, dir string, engine map[string]evalpkg.Eval) error {
	base, err := baseSpec.Cells()
	if err != nil {
		return err
	}
	fresh := make([][]sweep.Cell, len(in.fresh))
	for j, doc := range in.fresh {
		fw, err := sweep.ParseSpec(doc)
		if err != nil {
			return err
		}
		if fresh[j], err = fw.Cells(); err != nil {
			return err
		}
	}
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		return err
	}
	storeDir, err := os.MkdirTemp(cfg.tmp, "replay-")
	if err != nil {
		return err
	}
	store, err := sweep.OpenCache(storeDir)
	if err != nil {
		return err
	}
	var plain, traced sweepReplay
	overhead, err := pairRuns(ctx, cfg.nproc, len(fresh), true, func(j int, tr bool) error {
		sr := &plain
		if tr {
			sr = &traced
		}
		return sr.op(ctx, base, baseSpec, fresh[j], cache, store, engine, tr)
	})
	if err != nil {
		return err
	}
	m := out.layer
	solveLayerMetrics(m, traced.cells)
	m.set("alg.hash_us", mean(traced.hash), "us")
	m.set("sweep.cache_load_us", mean(traced.load), "us")
	m.set("sweep.cache_store_us", mean(traced.store), "us")
	m.set("sweep.summary_ms", mean(traced.summary), "ms")
	m.set("harness.tracing_overhead_frac", overhead, "frac")
	return nil
}
