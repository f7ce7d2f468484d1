package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"wsnloc/internal/alg"
	"wsnloc/internal/core"
	"wsnloc/internal/crlb"
	evalpkg "wsnloc/internal/metrics"
	"wsnloc/internal/obs"
	"wsnloc/internal/rng"
	"wsnloc/internal/serve"
)

// The in-process replay: the same solves the server ran, called layer by
// layer from here — alg.ParseSpec, Spec.Hash, Scenario.Build,
// core.LocalizeContext, serve.EncodeSolveResponse — each timed. Untraced,
// it is the reference the served bytes are checked against. Traced, a
// memory tracer collects the solver's existing bncl.phase / bncl.conv
// events; the time ratio of the two is the tracing overhead.

// solveOut is one replayed solve.
type solveOut struct {
	p       *core.Problem
	res     *core.Result
	encoded []byte
	etag    string

	parse, hash, build, localize time.Duration
	bncl                         bool
	hopflood, bp, conv           float64 // ms, from bncl.phase / bncl.conv
	sparse, fft                  int
}

func replaySolve(ctx context.Context, body []byte, traced bool) (solveOut, error) {
	o, sp, hash, err := parseHash(body)
	if err != nil {
		return o, err
	}
	o.etag = `"` + hash + `"`
	t := time.Now()
	p, err := sp.Scenario.Build()
	o.build = time.Since(t)
	if err != nil {
		return o, err
	}
	run := sp
	var mem *obs.Memory
	if traced {
		mem = obs.NewMemory()
		run.AlgOpts.Tracer = mem
	}
	a, err := run.NewAlgorithm()
	if err != nil {
		return o, err
	}
	t = time.Now()
	res, err := core.LocalizeContext(ctx, a, p, rng.New(sp.Seed))
	o.localize = time.Since(t)
	if err != nil {
		return o, err
	}
	if o.encoded, err = serve.EncodeSolveResponse(hash, run, p, res); err != nil {
		return o, err
	}
	o.p, o.res = p, res
	if mem != nil {
		for _, e := range mem.ByName("bncl.phase") {
			o.bncl = true
			d, _ := e.Float("dur_ms")
			switch e.Fields["phase"] {
			case "hopflood":
				o.hopflood += d
			case "bp":
				o.bp += d
			}
		}
		for _, e := range mem.ByName("bncl.conv") {
			s, _ := e.Float("sparse")
			f, _ := e.Float("fft")
			sms, _ := e.Float("sparse_ms")
			fms, _ := e.Float("fft_ms")
			o.sparse += int(s)
			o.fft += int(f)
			o.conv += sms + fms
		}
	}
	return o, nil
}

// replaySolves replays bodies untraced on workers goroutines (the load's
// concurrency) and returns the outcomes in input order. With traced set,
// every body is also replayed with the memory tracer, back to back with its
// untraced run; those outcomes and the tracing overhead come back too.
func replaySolves(ctx context.Context, bodies [][]byte, workers int, traced bool) (plain, withTrace []solveOut, overhead float64, err error) {
	plain = make([]solveOut, len(bodies))
	if traced {
		withTrace = make([]solveOut, len(bodies))
	}
	overhead, err = pairRuns(ctx, workers, len(bodies), traced, func(i int, tr bool) error {
		o, err := replaySolve(ctx, bodies[i], tr)
		if tr {
			withTrace[i] = o
		} else {
			plain[i] = o
		}
		return err
	})
	return plain, withTrace, overhead, err
}

// pairRuns calls run(i, false) for every i in [0, n) on workers goroutines.
// With traced set it also calls run(i, true) right before or after it,
// alternating, and returns summed traced time over summed untraced time,
// minus one. Pairing each operation with itself keeps host drift and run
// order out of the tracing overhead.
func pairRuns(ctx context.Context, workers, n int, traced bool, run func(i int, traced bool) error) (float64, error) {
	errs := make([]error, n)
	var plainNS, tracedNS atomic.Int64
	forEach(ctx, workers, n, func(i int) {
		variants := []bool{false}
		if traced {
			variants = []bool{i%2 == 1, i%2 == 0}
		}
		for _, tr := range variants {
			t := time.Now()
			err := run(i, tr)
			d := int64(time.Since(t))
			if tr {
				tracedNS.Add(d)
			} else {
				plainNS.Add(d)
			}
			if err != nil {
				errs[i] = err
				return
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("replaying operation %d: %w", i, err)
		}
	}
	if !traced {
		return 0, nil
	}
	return float64(tracedNS.Load())/float64(plainNS.Load()) - 1, nil
}

// solveLayerMetrics folds traced replay outcomes into the alg.*, core.*,
// bayes.* and sim.* per-layer metrics. Exact counts (rounds, messages,
// bytes, convolution calls) are totals over the solves divided by their
// number, so they repeat exactly for a seed.
func solveLayerMetrics(m metrics, outs []solveOut) {
	var parse, hash, build, loc, hop, bp, conv, outside []float64
	var rounds, msgs, byts, sparse, fft, nb int
	for _, o := range outs {
		parse = append(parse, float64(o.parse)/1e3)
		hash = append(hash, float64(o.hash)/1e3)
		build = append(build, ms(o.build))
		loc = append(loc, ms(o.localize))
		rounds += o.res.Rounds
		msgs += o.res.Stats.MessagesSent
		byts += o.res.Stats.BytesSent
		if !o.bncl {
			continue
		}
		nb++
		hop = append(hop, o.hopflood)
		bp = append(bp, o.bp)
		conv = append(conv, o.conv)
		outside = append(outside, ms(o.localize)-o.hopflood-o.bp)
		sparse += o.sparse
		fft += o.fft
	}
	n := float64(len(outs))
	m.set("alg.parse_us", mean(parse), "us")
	m.set("alg.hash_us", mean(hash), "us")
	m.set("alg.scenario_build_ms", mean(build), "ms")
	m.set("core.localize_ms", mean(loc), "ms")
	m.set("core.rounds", float64(rounds)/n, "count")
	m.set("sim.msgs_per_solve", float64(msgs)/n, "count")
	m.set("sim.bytes_per_solve", float64(byts)/n, "B")
	m.set("core.hopflood_ms", mean(hop), "ms")
	m.set("core.bp_ms", mean(bp), "ms")
	m.set("core.outside_rounds_ms", mean(outside), "ms")
	m.set("bayes.conv_ms", mean(conv), "ms")
	m.set("bayes.nonconv_bp_ms", mean(bp)-mean(conv), "ms")
	perBNCL := func(v int) float64 {
		if nb == 0 {
			return 0
		}
		return float64(v) / float64(nb)
	}
	m.set("bayes.conv_sparse_calls", perBNCL(sparse), "count")
	m.set("bayes.conv_fft_calls", perBNCL(fft), "count")
}

// accuracy collects, over a fixed set of solved problems, each solve's RMSE
// over its localized unknowns and that RMSE over the solve's Cramér–Rao
// bound. The reported figures are medians over the set: one badly anchored
// topology cannot swing them, and they repeat exactly for a seed.
type accuracy struct {
	rmse, ratio []float64
}

// boundRMS is the root mean square of the problem's per-node Cramér–Rao
// bounds (0 when every unknown's bound is singular).
func boundRMS(p *core.Problem) (float64, error) {
	b, err := crlb.Compute(p)
	if err != nil {
		return 0, fmt.Errorf("crlb: %w", err)
	}
	ids := make([]int, 0, len(b.PerNode))
	for id := range b.PerNode {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var sq float64
	for _, id := range ids {
		sq += b.PerNode[id] * b.PerNode[id]
	}
	if len(ids) == 0 {
		return 0, nil
	}
	return math.Sqrt(sq / float64(len(ids))), nil
}

// add scores one solve from its localization errors and its bound. Solves
// that localized nothing, or whose bound is singular everywhere, have no
// ratio and are skipped.
func (a *accuracy) add(errs []float64, bound float64) {
	if len(errs) == 0 || bound == 0 {
		return
	}
	var sq float64
	for _, e := range errs {
		sq += e * e
	}
	rmse := math.Sqrt(sq / float64(len(errs)))
	a.rmse = append(a.rmse, rmse)
	a.ratio = append(a.ratio, rmse/bound)
}

func (a *accuracy) addSolve(p *core.Problem, res *core.Result) error {
	b, err := boundRMS(p)
	if err != nil {
		return err
	}
	a.add(evalpkg.Evaluate(p, res).Errors, b)
	return nil
}

func (a *accuracy) report(m metrics) error {
	if len(a.rmse) == 0 {
		return fmt.Errorf("accuracy: no solve localized anything")
	}
	m.set("rmse_m", median(a.rmse), "m")
	m.set("rmse_crlb_ratio", median(a.ratio), "ratio")
	return nil
}

// parseHash times the two calls every served request makes before the
// memo lookup.
func parseHash(body []byte) (o solveOut, sp alg.Spec, hash string, err error) {
	t := time.Now()
	sp, err = alg.ParseSpec(body)
	o.parse = time.Since(t)
	if err != nil {
		return o, sp, "", err
	}
	t = time.Now()
	hash, err = sp.Hash()
	o.hash = time.Since(t)
	return o, sp, hash, err
}
