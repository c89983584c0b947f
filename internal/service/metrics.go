package service

import (
	"sync"
	"sync/atomic"
	"time"

	"soidomino/internal/obs"
)

// counterNames are the plain monotonic counters of the server, in the
// (sorted) order /metrics exposes them.
var counterNames = []string{
	"cache_hits", "cache_misses",
	"cluster_cache_peer_errors", "cluster_cache_peer_hits", "cluster_cache_served",
	"http_panics",
	"jobs_canceled", "jobs_coalesced", "jobs_done", "jobs_evicted", "jobs_failed",
	"jobs_journal_compacted", "jobs_panicked", "jobs_readmitted", "jobs_recovered",
	"jobs_rejected", "jobs_shed", "jobs_submitted",
	"key_mismatches",
	"store_corrupt", "store_evicted", "store_hits", "store_misses", "store_write_errors",
}

// metrics is the per-server instrument set, rendered in the Prometheus
// text format at /metrics. It is private to the server (nothing is
// published to process globals), so many servers — the tests run
// several — can coexist.
type metrics struct {
	// vals holds every counterNames counter plus the jobs_queued and
	// jobs_running gauges. It is built once in newMetrics and never
	// written after, so lookups need no lock and no name can appear
	// later: add panics on a name outside the set.
	vals        map[string]*atomic.Int64
	jobsQueued  *atomic.Int64 // gauge: jobs waiting in the queue
	jobsRunning *atomic.Int64 // gauge: jobs occupying a worker

	// avgJobNanos is an exponentially-weighted moving average of job
	// wall-clock time, the load shedder's service-time estimate.
	avgJobNanos atomic.Int64

	mu      sync.Mutex
	latency map[string]*histogram // per-algorithm

	// engineMu guards the per-algorithm aggregates of the mapper engine's
	// per-run obs.Stats, merged in by runJob and served at /metrics.
	engineMu sync.Mutex
	engine   map[string]*obs.Stats
}

func newMetrics() *metrics {
	m := &metrics{
		vals:    make(map[string]*atomic.Int64, len(counterNames)+2),
		latency: make(map[string]*histogram),
		engine:  make(map[string]*obs.Stats),
	}
	for _, name := range append([]string{"jobs_queued", "jobs_running"}, counterNames...) {
		m.vals[name] = new(atomic.Int64)
	}
	m.jobsQueued, m.jobsRunning = m.vals["jobs_queued"], m.vals["jobs_running"]
	return m
}

func (m *metrics) add(name string, delta int64) { m.vals[name].Add(delta) }

// addTerminal counts one job that ended in state (a leader's or a
// follower's outcome).
func (m *metrics) addTerminal(state JobState) {
	switch state {
	case JobDone:
		m.add("jobs_done", 1)
	case JobCanceled:
		m.add("jobs_canceled", 1)
	default:
		m.add("jobs_failed", 1)
	}
}

// recordDuration folds one finished job's wall-clock time into the moving
// average (alpha = 1/4; the first sample seeds the average). A stale-read
// race between concurrent workers only perturbs the smoothing, which the
// shedder treats as an estimate anyway.
func (m *metrics) recordDuration(d time.Duration) {
	old := m.avgJobNanos.Load()
	if old == 0 {
		m.avgJobNanos.Store(int64(d))
		return
	}
	m.avgJobNanos.Store(old + (int64(d)-old)/4)
}

// avgJobDuration returns the current service-time estimate (0 until the
// first job finishes).
func (m *metrics) avgJobDuration() time.Duration {
	return time.Duration(m.avgJobNanos.Load())
}

// counter reads one counter's or gauge's current value (0 for names
// outside the set).
func (m *metrics) counter(name string) int64 {
	if v, ok := m.vals[name]; ok {
		return v.Load()
	}
	return 0
}

// recordEngine merges one run's DP stats into the algorithm's aggregate.
func (m *metrics) recordEngine(algo string, st *obs.Stats) {
	m.engineMu.Lock()
	agg, ok := m.engine[algo]
	if !ok {
		agg = &obs.Stats{}
		m.engine[algo] = agg
	}
	agg.Merge(st)
	m.engineMu.Unlock()
}

// engineSnapshot copies the per-algorithm DP aggregates for rendering.
func (m *metrics) engineSnapshot() map[string]obs.Stats {
	m.engineMu.Lock()
	defer m.engineMu.Unlock()
	out := make(map[string]obs.Stats, len(m.engine))
	for algo, st := range m.engine {
		out[algo] = *st
	}
	return out
}

// latencySnapshot copies the per-algorithm latency histograms.
func (m *metrics) latencySnapshot() map[string]histSnapshot {
	m.mu.Lock()
	algos := make(map[string]*histogram, len(m.latency))
	for k, h := range m.latency {
		algos[k] = h
	}
	m.mu.Unlock()
	out := make(map[string]histSnapshot, len(algos))
	for k, h := range algos {
		out[k] = h.snapshot()
	}
	return out
}

// observe records one successful mapping run's wall-clock time in the
// algorithm's latency histogram, creating it on first use.
func (m *metrics) observe(algo string, d time.Duration) {
	m.mu.Lock()
	h, ok := m.latency[algo]
	if !ok {
		h = newHistogram()
		m.latency[algo] = h
	}
	m.mu.Unlock()
	h.observe(d)
}

// latencyBoundsMS are the histogram's upper bucket bounds in milliseconds;
// a final unbounded bucket catches everything slower.
var latencyBoundsMS = []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// histogram is a fixed-bucket latency histogram. It buckets and sums
// the exact duration, so a 1.9 ms run lands in le="2" and adds 1.9 to
// the sum.
type histogram struct {
	mu      sync.Mutex
	count   int64
	sum     time.Duration
	buckets []int64 // len(latencyBoundsMS)+1, last is the overflow bucket
}

func newHistogram() *histogram {
	return &histogram{buckets: make([]int64, len(latencyBoundsMS)+1)}
}

func (h *histogram) observe(d time.Duration) {
	i := 0
	for i < len(latencyBoundsMS) && d > time.Duration(latencyBoundsMS[i])*time.Millisecond {
		i++
	}
	h.mu.Lock()
	h.count++
	h.sum += d
	h.buckets[i]++
	h.mu.Unlock()
}

// histSnapshot is a consistent copy of one histogram's state. Count and
// SumMS ride along with the buckets so /metrics can always derive request
// rate and mean latency (sum/count) from a scrape pair.
type histSnapshot struct {
	Count   int64
	SumMS   float64
	Buckets []int64
}

func (h *histogram) snapshot() histSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return histSnapshot{
		Count:   h.count,
		SumMS:   float64(h.sum) / float64(time.Millisecond),
		Buckets: append([]int64(nil), h.buckets...),
	}
}
