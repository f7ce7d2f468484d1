package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// percentile is the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// tailLadder is the set of percentiles latency_tail_ms chooses from.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail is the highest ladder percentile with at least ten samples beyond
// it, returned with that percentile.
func tail(samples []float64) (value, pct float64) {
	s := sortedCopy(samples)
	for _, p := range tailLadder {
		if float64(len(s))*(1-p/100) >= 10 {
			return percentile(s, p), p
		}
	}
	return percentile(s, 50), 50
}

// procSample is a process-wide resource reading; deltas of two samples give
// the proc.* per-layer metrics.
type procSample struct {
	cpu    time.Duration
	gcs    uint32
	alloc  uint64
	maxRSS int64 // KiB
}

func readProc() procSample {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcs:    ms.NumGC,
		alloc:  ms.TotalAlloc,
		maxRSS: ru.Maxrss,
	}
}

// procMetrics folds the resource deltas of a timed phase of ops operations
// into the proc.* metrics.
func procMetrics(m metrics, before, after procSample, ops int) {
	n := float64(ops)
	m.set("proc.cpu_ms_per_op", float64(after.cpu-before.cpu)/1e6/n, "ms")
	m.set("proc.gc_cycles_per_op", float64(after.gcs-before.gcs)/n, "count")
	m.set("proc.alloc_kb_per_op", float64(after.alloc-before.alloc)/1024/n, "KiB")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
