package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// metrics is a minimal Prometheus-exposition registry. The repo takes no
// dependencies, so the daemon hand-rolls the text format (which is the
// stable, officially documented wire format): counters for requests,
// simulations, jobs and dedup; histograms for request latency; gauges are
// sampled live at scrape time by the /metrics handler.
type metrics struct {
	mu sync.Mutex
	// requests[path][method|code] — request counts by route and outcome.
	requests map[string]map[string]uint64
	// latency[path] — request duration histograms by route.
	latency map[string]*histogram

	simsCompleted, simsFailed, simsCancelled uint64
	jobsCompleted, jobsFailed, jobsCancelled uint64
	dedupShared, rejectedFull                uint64
	journalErrors                            uint64
	panics                                   uint64
	faultSims                                uint64
	journalMerged                            uint64
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]map[string]uint64),
		latency:  make(map[string]*histogram),
	}
}

// observeRequest records one finished HTTP request.
func (m *metrics) observeRequest(path, method string, code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byOutcome := m.requests[path]
	if byOutcome == nil {
		byOutcome = make(map[string]uint64)
		m.requests[path] = byOutcome
	}
	byOutcome[fmt.Sprintf("%s|%d", method, code)]++
	h := m.latency[path]
	if h == nil {
		h = newHistogram()
		m.latency[path] = h
	}
	h.observe(seconds)
}

func (m *metrics) add(counter *uint64, n uint64) {
	m.mu.Lock()
	*counter += n
	m.mu.Unlock()
}

// latencyBuckets are the histogram upper bounds in seconds: simulations
// range from sub-millisecond cache hits to multi-second medium-scale runs.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

type histogram struct {
	counts []uint64 // one per bucket, non-cumulative
	sum    float64
	total  uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(latencyBuckets))}
}

// observe records one value. Callers hold metrics.mu.
func (h *histogram) observe(v float64) {
	for i, le := range latencyBuckets {
		if v <= le {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.total++
}

// sample is one exposition line of a family: its rendered label set
// ("" for none) and value (integers render as integers, float64 as %g).
type sample struct {
	labels string
	value  any
}

// family writes one metric family in Prometheus text format: the # HELP
// line (omitted when help is empty), the # TYPE line, then the samples.
// Every family header on /metrics is written here.
func family(w io.Writer, name, typ, help string, samples ...sample) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	for _, s := range samples {
		fmt.Fprintf(w, "%s%s %v\n", name, s.labels, s.value)
	}
}

// byOutcome renders the completed/failed/cancelled split of a counter.
func byOutcome(completed, failed, cancelled uint64) []sample {
	return []sample{
		{`{outcome="completed"}`, completed},
		{`{outcome="failed"}`, failed},
		{`{outcome="cancelled"}`, cancelled},
	}
}

// write renders the registry in Prometheus text exposition format,
// deterministically ordered.
func (m *metrics) write(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	var requests []sample
	for _, path := range sortedKeys(m.requests) {
		byCode := m.requests[path]
		for _, k := range sortedKeys(byCode) {
			method, code, _ := strings.Cut(k, "|")
			requests = append(requests, sample{fmt.Sprintf("{path=%q,method=%q,code=%q}", path, method, code), byCode[k]})
		}
	}
	family(w, "wsd_http_requests_total", "counter", "HTTP requests by route, method and status code.", requests...)

	family(w, "wsd_http_request_duration_seconds", "histogram", "HTTP request latency by route.")
	for _, path := range sortedKeys(m.latency) {
		h := m.latency[path]
		cum := uint64(0)
		for i, le := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "wsd_http_request_duration_seconds_bucket{path=%q,le=\"%g\"} %d\n",
				path, le, cum)
		}
		fmt.Fprintf(w, "wsd_http_request_duration_seconds_bucket{path=%q,le=\"+Inf\"} %d\n", path, h.total)
		fmt.Fprintf(w, "wsd_http_request_duration_seconds_sum{path=%q} %g\n", path, h.sum)
		fmt.Fprintf(w, "wsd_http_request_duration_seconds_count{path=%q} %d\n", path, h.total)
	}

	family(w, "wsd_sims_total", "counter", "Simulations executed by the worker pool, by outcome.",
		byOutcome(m.simsCompleted, m.simsFailed, m.simsCancelled)...)
	family(w, "wsd_jobs_total", "counter", "Async sweep jobs finished, by outcome.",
		byOutcome(m.jobsCompleted, m.jobsFailed, m.jobsCancelled)...)
	family(w, "wsd_singleflight_shared_total", "counter", "Run requests that piggybacked on an identical in-flight simulation.", sample{value: m.dedupShared})
	family(w, "wsd_admission_rejected_total", "counter", "Requests rejected with 429 because the queue was full.", sample{value: m.rejectedFull})
	family(w, "wsd_journal_errors_total", "counter", "Journal appends that failed (results still served from memory).", sample{value: m.journalErrors})
	family(w, "wsd_panics_total", "counter", "Handler panics recovered by the middleware (each served a 500).", sample{value: m.panics})
	family(w, "wsd_fault_sims_total", "counter", "Simulations executed with a fault-injection script attached.", sample{value: m.faultSims})
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
