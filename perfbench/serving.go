package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// repeatSetup runs a set-up at least 11 times and until three seconds have
// been spent on it (at most 200 times), and returns the durations. setup_s
// is their median; the last instance serves the timed phase. release, when
// non-nil, tears down the previous instance before the next is timed.
func repeatSetup(release func() error, fn func(i int) error) ([]float64, error) {
	var times []float64
	total := 0.0
	for i := 0; i < 200 && (i < 11 || total < 3); i++ {
		if i > 0 && release != nil {
			if err := release(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		d := time.Since(start).Seconds()
		times = append(times, d)
		total += d
	}
	return times, nil
}

// setupDaemon is the serving workloads' set-up: construct the server, then
// one warm-up request per endpoint. Nothing else — input generation and
// body encoding happen before it and are not counted.
func setupDaemon(cfg config, out *outcome, withDisk bool, memoEntries int, warm []byte, c *http.Client) (*daemon, error) {
	var d *daemon
	var memoDir string
	sp := out.phases["setup"]
	release := func() error {
		c.CloseIdleConnections()
		err := d.stop()
		d = nil
		if memoDir != "" {
			if rerr := os.RemoveAll(memoDir); err == nil {
				err = rerr
			}
		}
		return err
	}
	times, err := repeatSetup(release, func(i int) error {
		if withDisk {
			memoDir = filepath.Join(cfg.tmp, fmt.Sprintf("memo-%d", i))
		}
		var err error
		d, err = startDaemon(memoDir, memoEntries)
		sp.add(err == nil)
		if err != nil {
			return err
		}
		return warmup(c, d, warm, out)
	})
	if err != nil {
		if d != nil {
			d.stop()
		}
		return nil, err
	}
	out.e2e.set("setup_s", median(times), "s")
	out.notes["setup_samples"] = len(times)
	return d, nil
}

// waitUntil blocks until t. On Linux time.Sleep rounds waits below a
// millisecond up to about a millisecond and overshoots longer ones by
// 0.1-0.2 ms, which would read as generator lateness; so it sleeps to
// within spin of t and yields the processor in a loop for the rest.
func waitUntil(t time.Time) {
	const spin = 400 * time.Microsecond
	if d := time.Until(t) - spin; d >= time.Millisecond {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// forEach runs fn(i) for i in [0, n) on workers goroutines, each taking the
// next index when it finishes the last — the closed loop.
func forEach(ctx context.Context, workers, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// latencyMetrics reports the end-to-end latency and throughput figures of
// a timed phase and stamps the tail percentile with its sample count.
func latencyMetrics(out *outcome, lat []float64, wall time.Duration) {
	out.e2e.set("throughput_per_s", float64(len(lat))/wall.Seconds(), "1/s")
	out.e2e.set("latency_p50_ms", median(lat), "ms")
	v, p := tail(lat)
	out.e2e.set("latency_tail_ms", v, "ms")
	out.notes["latency_tail_percentile"] = p
	out.notes["latency_samples"] = len(lat)
	out.notes["timed_wall_s"] = wall.Seconds()
}

func finishE2E(out *outcome, peak procSample) {
	t := out.phases["timed"]
	out.e2e.set("ok_frac", float64(t.Succeeded)/float64(t.Attempted), "frac")
	out.e2e.set("peak_rss_mb", float64(peak.maxRSS)/1024, "MB")
}

// serveLayerMetrics folds the responses of a served timed phase into the
// serve.* metrics: verdict shares from the X-Wsnloc-Cache headers and 304s,
// client latency split by verdict, executions per distinct key, and wire
// bytes as received.
func serveLayerMetrics(m metrics, replies []reply, lat []float64, execs uint64, keys int) {
	var miss, mem, disk, coal, nm, wire int
	var hitLat, missLat []float64
	for i, r := range replies {
		wire += len(r.wire)
		switch {
		case r.status == http.StatusNotModified:
			nm++
		case r.verdict == "miss":
			miss++
			missLat = append(missLat, lat[i])
		case r.verdict == "hit":
			hitLat = append(hitLat, lat[i])
			if r.tier == "disk" {
				disk++
			} else {
				mem++
			}
		case r.verdict == "coalesced":
			coal++
		}
	}
	n := float64(len(replies))
	m.set("serve.miss_frac", float64(miss)/n, "frac")
	m.set("serve.hit_mem_frac", float64(mem)/n, "frac")
	m.set("serve.hit_disk_frac", float64(disk)/n, "frac")
	m.set("serve.coalesced_frac", float64(coal)/n, "frac")
	m.set("serve.not_modified_frac", float64(nm)/n, "frac")
	m.set("serve.hit_latency_p50_ms", median(hitLat), "ms")
	m.set("serve.miss_latency_p50_ms", median(missLat), "ms")
	m.set("serve.exec_per_key", float64(execs)/float64(keys), "ratio")
	m.set("serve.wire_bytes_per_req", float64(wire)/n, "B")
}

// solveCold: a closed loop of nproc clients POSTing distinct paper-scale
// bncl-grid specs; every request misses the memo.
func solveCold(ctx context.Context, cfg config, out *outcome) error {
	bodies := solveColdBodies(cfg.seed, cfg.seconds)
	c := newClient(cfg.nproc)
	defer c.CloseIdleConnections()
	d, err := setupDaemon(cfg, out, false, 0, coldWarmup(), c)
	if err != nil {
		return err
	}

	replies := make([]reply, len(bodies))
	lat := make([]float64, len(bodies))
	jobs0, ex0 := d.api.Pool().CompletedJobs(), d.execSnap()
	runtime.GC()
	p0 := readProc()
	start := time.Now()
	forEach(ctx, cfg.nproc, len(bodies), func(i int) {
		t := time.Now()
		replies[i] = do(c, http.MethodPost, d.url+"/v1/solve", bodies[i], "")
		lat[i] = ms(time.Since(t))
	})
	wall := time.Since(start)
	p1 := readProc()
	if err := d.stop(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	jobs1, ex1 := d.api.Pool().CompletedJobs(), d.execSnap()

	// Correctness: every body byte-identical to the in-process solve.
	ref, traced, overhead, err := replaySolves(ctx, bodies, cfg.nproc, cfg.trace)
	if err != nil {
		return err
	}
	var acc accuracy
	timed := out.phases["timed"]
	for i, r := range replies {
		ok := r.ok(http.StatusOK) && r.verdict == "miss" && r.etag == ref[i].etag
		if ok {
			b, berr := r.body()
			ok = berr == nil && bytes.Equal(b, ref[i].encoded)
		}
		if !ok {
			out.fail("solve-cold op %d: %s, verdict %q: body or ETag differs from the in-process solve", i, r.describe(), r.verdict)
		}
		timed.add(ok)
		if err := acc.addSolve(ref[i].p, ref[i].res); err != nil {
			return err
		}
	}
	if jobs1-jobs0 != uint64(len(bodies)) {
		out.fail("solve-cold: %d executions for %d distinct specs", jobs1-jobs0, len(bodies))
	}

	latencyMetrics(out, lat, wall)
	finishE2E(out, p1)
	if err := acc.report(out.e2e); err != nil {
		return err
	}
	serveLayerMetrics(out.layer, replies, lat, jobs1-jobs0, len(bodies))
	execMetrics(out.layer, ex0, ex1)
	procMetrics(out.layer, p0, p1, len(bodies))
	if cfg.trace {
		solveLayerMetrics(out.layer, traced)
		out.layer.set("harness.tracing_overhead_frac", overhead, "frac")
	}
	return nil
}

// serveZipf: an open loop on a seeded Poisson schedule below saturation,
// keys drawn Zipf over more small specs than the memo holds, a disk tier
// behind it, and a share of repeats revalidating with If-None-Match.
func serveZipf(ctx context.Context, cfg config, out *outcome) error {
	keys, prefill, sched := zipfInputs(cfg.seed, cfg.seconds)
	c := newClient(cfg.nproc)
	defer c.CloseIdleConnections()
	d, err := setupDaemon(cfg, out, true, zipfMemo, zipfWarmup(), c)
	if err != nil {
		return err
	}

	// etags is what the client holds: a key's ETag once a response for it
	// has arrived.
	var etagMu sync.Mutex
	etags := map[int]string{}
	warm := out.phases["warmup"]
	forEach(ctx, cfg.nproc, len(prefill), func(i int) {
		r := do(c, http.MethodPost, d.url+"/v1/solve", keys[prefill[i]], "")
		etagMu.Lock()
		etags[prefill[i]] = r.etag
		warm.add(r.ok(http.StatusOK))
		etagMu.Unlock()
	})
	if warm.Failed > 0 {
		return fmt.Errorf("serve-zipf prefill: %d of %d requests failed", warm.Failed, warm.Attempted)
	}
	replies := make([]reply, len(sched))
	lat := make([]float64, len(sched))
	late := make([]float64, len(sched))
	jobs0, ex0 := d.api.Pool().CompletedJobs(), d.execSnap()
	runtime.GC()
	p0 := readProc()
	start := time.Now()
	forEach(ctx, cfg.nproc, len(sched), func(i int) {
		a := sched[i]
		due := start.Add(time.Duration(a.due * float64(time.Second)))
		waitUntil(due)
		late[i] = ms(time.Since(due))
		inm := ""
		if a.revalidate {
			etagMu.Lock()
			inm = etags[a.key]
			etagMu.Unlock()
		}
		r := do(c, http.MethodPost, d.url+"/v1/solve", keys[a.key], inm)
		lat[i] = ms(time.Since(due))
		replies[i] = r
		if r.ok(http.StatusOK) && r.etag != "" {
			etagMu.Lock()
			etags[a.key] = r.etag
			etagMu.Unlock()
		}
	})
	wall := time.Since(start)
	p1 := readProc()
	if err := d.stop(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	jobs1, ex1 := d.api.Pool().CompletedJobs(), d.execSnap()

	// The distinct keys of the timed phase in order of first arrival: a
	// fixed, seed-determined set, replayed in-process as the reference for
	// every answer. Those the prefill did not ask for each execute once.
	prefilled := map[int]bool{}
	for _, k := range prefill {
		prefilled[k] = true
	}
	slot := map[int]int{}
	var distinct [][]byte
	fresh := 0
	for _, a := range sched {
		if _, ok := slot[a.key]; !ok {
			slot[a.key] = len(distinct)
			distinct = append(distinct, keys[a.key])
			if !prefilled[a.key] {
				fresh++
			}
		}
	}
	ref, traced, overhead, err := replaySolves(ctx, distinct, cfg.nproc, cfg.trace)
	if err != nil {
		return err
	}
	timed := out.phases["timed"]
	for i, r := range replies {
		want := ref[slot[sched[i].key]]
		var ok bool
		switch {
		case r.err != nil:
		case r.status == http.StatusNotModified:
			ok = r.etag == want.etag && len(r.wire) == 0
		case r.status == http.StatusOK:
			b, berr := r.body()
			ok = berr == nil && r.etag == want.etag && bytes.Equal(b, want.encoded) &&
				(r.verdict == "miss" || r.verdict == "hit" || r.verdict == "coalesced")
		}
		if !ok {
			out.fail("serve-zipf request %d (key %d): %s, verdict %q: answer differs from the key's bytes or ETag",
				i, sched[i].key, r.describe(), r.verdict)
		}
		timed.add(ok)
	}
	if jobs1-jobs0 != uint64(fresh) {
		out.fail("serve-zipf: %d executions for %d new keys (serve.exec_per_key must be 1)", jobs1-jobs0, fresh)
	}
	var acc accuracy
	for _, o := range ref {
		if err := acc.addSolve(o.p, o.res); err != nil {
			return err
		}
	}

	latencyMetrics(out, lat, wall)
	finishE2E(out, p1)
	if err := acc.report(out.e2e); err != nil {
		return err
	}
	lateTail, latePct := tail(late)
	out.notes["generator_late_ms_p50"] = median(late)
	out.notes["generator_late_ms_tail"] = lateTail
	out.notes["generator_late_percentile"] = latePct
	out.notes["distinct_keys"] = len(distinct)
	out.notes["new_keys"] = fresh
	serveLayerMetrics(out.layer, replies, lat, jobs1-jobs0, fresh)
	execMetrics(out.layer, ex0, ex1)
	procMetrics(out.layer, p0, p1, len(sched))
	out.layer.set("harness.late_ms_tail", lateTail, "ms")
	if cfg.trace {
		solveLayerMetrics(out.layer, traced)
		// Every request parses and hashes its body, hit or miss.
		var parse, hash []float64
		for _, a := range sched {
			o, _, _, err := parseHash(keys[a.key])
			if err != nil {
				return err
			}
			parse = append(parse, float64(o.parse)/1e3)
			hash = append(hash, float64(o.hash)/1e3)
		}
		out.layer.set("alg.parse_us", mean(parse), "us")
		out.layer.set("alg.hash_us", mean(hash), "us")
		out.layer.set("harness.tracing_overhead_frac", overhead, "frac")
	}
	return nil
}
