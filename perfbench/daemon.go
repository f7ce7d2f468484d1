package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"wsnloc/internal/exec"
	"wsnloc/internal/obs"
	"wsnloc/internal/serve"
)

// daemon is an in-process wsnlocd: the same construction as cmd/wsnlocd
// (registry, broadcast and metrics-sink tracer, runtime sampler, API plus
// ops mux, hardened http.Server) on a loopback listener, with the
// execution pool at the daemon's -workers/-queue defaults.
type daemon struct {
	api     *serve.Server
	reg     *obs.Registry
	bc      *obs.Broadcast
	sampler *obs.RuntimeSampler
	srv     *http.Server
	url     string
	errc    chan error
}

func startDaemon(memoDir string, memoEntries int) (*daemon, error) {
	reg := obs.NewRegistry()
	bc := obs.NewBroadcast(obs.DefaultBroadcastDepth)
	cfg := serve.Config{
		Pool:        exec.Config{Workers: 0, QueueDepth: exec.DefaultQueueDepth, Metrics: reg},
		MemoDir:     memoDir,
		MemoEntries: memoEntries,
		Registry:    reg,
		Tracer:      obs.Multi(obs.NewMetricsSink(reg), bc),
	}
	api, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", api.Handler())
	mux.Handle("/", obs.NewOpsMux(reg, bc))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		api.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{
		api:     api,
		reg:     reg,
		bc:      bc,
		sampler: obs.StartRuntimeSampler(reg, 0),
		srv:     cfg.HTTPServer(mux),
		url:     "http://" + ln.Addr().String(),
		errc:    make(chan error, 1),
	}
	go func() { d.errc <- d.srv.Serve(ln) }()
	return d, nil
}

// stop drains the daemon the way wsnlocd does on SIGTERM and waits for its
// serving goroutine to end.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := d.srv.Shutdown(ctx)
	aerr := d.api.Shutdown(ctx)
	d.bc.CloseSubscribers()
	d.sampler.Stop()
	if err := <-d.errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if herr != nil {
		return herr
	}
	return aerr
}

// execSnap reads the pool's wsnloc_exec_* instruments.
type execSnap struct {
	jobs, rejected float64
	waitSum        float64
	waitN          uint64
}

func (d *daemon) execSnap() execSnap {
	w := d.reg.Histogram("wsnloc_exec_wait_seconds", obs.DurationBuckets()).Snapshot()
	return execSnap{
		jobs:     d.reg.Counter("wsnloc_exec_jobs_total").Value(),
		rejected: d.reg.Counter("wsnloc_exec_rejected_total").Value(),
		waitSum:  w.Sum,
		waitN:    w.Count,
	}
}

// execMetrics folds the pool's activity between two snapshots into the
// exec.* per-layer metrics.
func execMetrics(m metrics, before, after execSnap) {
	wait := 0.0
	if n := after.waitN - before.waitN; n > 0 {
		wait = (after.waitSum - before.waitSum) / float64(n) * 1e3
	}
	m.set("exec.queue_wait_ms_mean", wait, "ms")
	m.set("exec.jobs", after.jobs-before.jobs, "count")
	m.set("exec.rejected", after.rejected-before.rejected, "count")
}

// newClient is the load generator's HTTP client: at most n keep-alive
// connections, and gzip negotiated by hand so the wire bytes stay visible.
func newClient(n int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        n,
			MaxIdleConnsPerHost: n,
			MaxConnsPerHost:     n,
			DisableCompression:  true,
		},
	}
}

// reply is one response as received: status, cache verdict headers, and
// the body exactly as it came off the wire.
type reply struct {
	status   int
	verdict  string // X-Wsnloc-Cache
	tier     string // X-Wsnloc-Cache-Tier
	etag     string
	encoding string
	wire     []byte
	err      error
}

func do(c *http.Client, method, url string, body []byte, ifNoneMatch string) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Accept-Encoding", "gzip")
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	wire, err := io.ReadAll(resp.Body)
	return reply{
		status:   resp.StatusCode,
		verdict:  resp.Header.Get("X-Wsnloc-Cache"),
		tier:     resp.Header.Get("X-Wsnloc-Cache-Tier"),
		etag:     resp.Header.Get("ETag"),
		encoding: resp.Header.Get("Content-Encoding"),
		wire:     wire,
		err:      err,
	}
}

// body returns the identity bytes of the response.
func (r reply) body() ([]byte, error) {
	if r.encoding != "gzip" {
		return r.wire, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(r.wire))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

// ok reports whether the exchange completed with the wanted status.
func (r reply) ok(status int) bool { return r.err == nil && r.status == status }

func (r reply) describe() string {
	if r.err != nil {
		return r.err.Error()
	}
	return fmt.Sprintf("HTTP %d", r.status)
}

// warmup sends one request per endpoint the workload uses, on keys outside
// its timed set.
func warmup(c *http.Client, d *daemon, solveBody []byte, out *outcome) error {
	wp := out.phases["warmup"]
	r := do(c, http.MethodPost, d.url+"/v1/solve", solveBody, "")
	wp.add(r.ok(http.StatusOK))
	if !r.ok(http.StatusOK) {
		return fmt.Errorf("warm-up solve: %s", r.describe())
	}
	r = do(c, http.MethodGet, d.url+"/v1/algorithms", nil, "")
	wp.add(r.ok(http.StatusOK))
	if !r.ok(http.StatusOK) {
		return fmt.Errorf("warm-up algorithms: %s", r.describe())
	}
	return nil
}
