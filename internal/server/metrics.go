package server

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Version identifies the daemon build on /metrics (hdmm_build_info) and
// /healthz. Overridable at link time:
//
//	go build -ldflags "-X repro/internal/server.Version=v1.2.3" ./cmd/hdmm
var Version = "dev"

// statusClientClosedRequest is the nginx-convention status for "the client
// went away before the response": the request cost work but failed through
// no fault of the server or the request. Counted separately from errors so
// cancellation storms don't trip error-rate alerts.
const statusClientClosedRequest = 499

// metrics aggregates per-endpoint request counters and latency histograms,
// plus per-stage pipeline histograms. A plain mutex guards the counters;
// the histograms carry their own locks (obs.Histogram) so stage
// observations from the middleware never contend with snapshot readers for
// long.
type metrics struct {
	start time.Time

	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
	solver    solverMetrics

	// stages holds one fixed-bucket histogram per pipeline stage, indexed by
	// obs.Stage. All six exist from construction and all six are always
	// exposed (zero or not) in enum order — the exposition is deterministic
	// and a dashboard never sees a series appear mid-flight.
	stages [obs.NumStages]*obs.Histogram
}

// solverMetrics aggregates the union-reconstruction solves run by
// registrations. Closed-form strategies never touch the iterative solver,
// so the counters stay zero (and the /metrics document omits them) on
// deployments that only serve Kronecker or marginals strategies.
type solverMetrics struct {
	solves    int64
	iters     int64
	failures  int64 // solves that stopped on the iteration cap (ErrNotConverged)
	lastResid float64
}

type endpointMetrics struct {
	requests  int64
	errors    int64 // responses with status >= 400, except 499
	cancelled int64 // 499: client disconnected mid-request
	hist      *obs.Histogram
}

func newMetrics() *metrics {
	m := &metrics{start: time.Now(), endpoints: make(map[string]*endpointMetrics)}
	for i := range m.stages {
		m.stages[i] = obs.NewHistogram(nil)
	}
	return m
}

func (m *metrics) uptime() time.Duration { return time.Since(m.start) }

func (m *metrics) observe(endpoint string, status int, d time.Duration) {
	m.mu.Lock()
	e := m.endpoints[endpoint]
	if e == nil {
		e = &endpointMetrics{hist: obs.NewHistogram(nil)}
		m.endpoints[endpoint] = e
	}
	e.requests++
	switch {
	case status == statusClientClosedRequest:
		// The client hung up: not a server error, not a request error —
		// alerting on it as an error would page operators for flaky clients.
		e.cancelled++
	case status >= 400:
		e.errors++
	}
	m.mu.Unlock()
	e.hist.ObserveDuration(d)
}

// observeStages folds one request's span breakdown into the per-stage
// histograms. Stages the request never entered record nothing.
func (m *metrics) observeStages(spans []obs.Span) {
	for _, sp := range spans {
		if sp.Stage >= 0 && int(sp.Stage) < len(m.stages) {
			m.stages[sp.Stage].ObserveDuration(sp.Total)
		}
	}
}

// observeSolve records one converged union-reconstruction solve.
func (m *metrics) observeSolve(iters int, resid float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.solver.solves++
	m.solver.iters += int64(iters)
	m.solver.lastResid = resid
}

// observeSolveFailure records a union reconstruction that hit its
// iteration cap and surfaced ErrNotConverged.
func (m *metrics) observeSolveFailure() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.solver.failures++
}

// SolverStats is the exported union-solver snapshot served by /metrics.
type SolverStats struct {
	Solves       int64   `json:"solves"`        // converged union reconstructions
	Iterations   int64   `json:"iterations"`    // total LSMR iterations and refinement steps across them
	Failures     int64   `json:"failures"`      // reconstructions that hit the iteration cap
	LastResidual float64 `json:"last_residual"` // residual norm of the most recent converged solve
}

// solverSnapshot returns the solver counters, or nil when no union solve
// has run yet (the JSON document omits the section entirely).
func (m *metrics) solverSnapshot() *SolverStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.solver.solves == 0 && m.solver.failures == 0 {
		return nil
	}
	return &SolverStats{
		Solves:       m.solver.solves,
		Iterations:   m.solver.iters,
		Failures:     m.solver.failures,
		LastResidual: m.solver.lastResid,
	}
}

// EndpointStats is the exported per-endpoint snapshot served by /metrics.
// The latency fields derive from the same fixed-bucket histogram the
// Prometheus exposition serves: mean and max are exact, percentiles are
// bucket-interpolated.
type EndpointStats struct {
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`    // responses with status >= 400, except 499
	Cancelled int64   `json:"cancelled"` // 499: client went away mid-request
	MeanMs    float64 `json:"mean_ms"`
	MaxMs     float64 `json:"max_ms"`
	P50Ms     float64 `json:"p50_ms"`
	P95Ms     float64 `json:"p95_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// snapshot returns both the derived per-endpoint stats (the JSON document)
// and the raw histogram snapshots (the Prometheus exposition).
func (m *metrics) snapshot() (map[string]EndpointStats, map[string]obs.HistSnapshot) {
	m.mu.Lock()
	type row struct {
		requests, errors, cancelled int64
		hist                        *obs.Histogram
	}
	rows := make(map[string]row, len(m.endpoints))
	for name, e := range m.endpoints {
		rows[name] = row{e.requests, e.errors, e.cancelled, e.hist}
	}
	m.mu.Unlock()

	out := make(map[string]EndpointStats, len(rows))
	raw := make(map[string]obs.HistSnapshot, len(rows))
	const ms = 1e3 // histogram values are seconds
	for name, r := range rows {
		h := r.hist.Snapshot()
		raw[name] = h
		out[name] = EndpointStats{
			Requests:  r.requests,
			Errors:    r.errors,
			Cancelled: r.cancelled,
			MeanMs:    h.Mean() * ms,
			MaxMs:     h.Max * ms,
			P50Ms:     h.Quantile(0.50) * ms,
			P95Ms:     h.Quantile(0.95) * ms,
			P99Ms:     h.Quantile(0.99) * ms,
		}
	}
	return out, raw
}

// stageSnapshots returns all stage histograms in pipeline (enum) order.
func (m *metrics) stageSnapshots() [obs.NumStages]obs.HistSnapshot {
	var out [obs.NumStages]obs.HistSnapshot
	for i, h := range m.stages {
		out[i] = h.Snapshot()
	}
	return out
}

// prometheus renders the metrics document in Prometheus text exposition
// format 0.0.4 — the default /metrics representation, so a stock scraper
// points at the daemon with zero glue. Endpoint labels are emitted in
// sorted order and stage labels in pipeline order; for a fixed state the
// output is byte-deterministic, which keeps golden tests and scrape diffs
// honest.
func (m *MetricsResponse) prometheus() []byte {
	var b bytes.Buffer
	counter := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}
	fmt.Fprintf(&b, "# HELP hdmm_build_info Build metadata; the value is always 1.\n# TYPE hdmm_build_info gauge\nhdmm_build_info{version=%q,goversion=%q,kernels=%q} 1\n",
		m.Version, runtime.Version(), m.Kernels)
	fmt.Fprintf(&b, "# HELP hdmm_uptime_seconds Seconds since the daemon started.\n# TYPE hdmm_uptime_seconds gauge\nhdmm_uptime_seconds %v\n", m.UptimeSeconds)
	fmt.Fprintf(&b, "# HELP hdmm_engines Serving engines currently registered.\n# TYPE hdmm_engines gauge\nhdmm_engines %d\n", m.Engines)
	counter("hdmm_strategy_cache_hits_total", "Strategy lookups served from memory or disk.", m.StrategyCache.Hits)
	counter("hdmm_strategy_cache_misses_total", "Strategy lookups that had to optimize.", m.StrategyCache.Misses)

	names := make([]string, 0, len(m.Endpoints))
	for name := range m.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	row := func(metric, help, typ string, value func(EndpointStats) any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", metric, help, metric, typ)
		for _, name := range names {
			fmt.Fprintf(&b, "%s{endpoint=%q} %v\n", metric, name, value(m.Endpoints[name]))
		}
	}
	if len(names) > 0 {
		row("hdmm_endpoint_requests_total", "Requests handled, by endpoint.", "counter",
			func(e EndpointStats) any { return e.Requests })
		row("hdmm_endpoint_errors_total", "Responses with status >= 400 (excluding 499), by endpoint.", "counter",
			func(e EndpointStats) any { return e.Errors })
		row("hdmm_endpoint_cancelled_total", "Requests whose client disconnected mid-flight (499), by endpoint.", "counter",
			func(e EndpointStats) any { return e.Cancelled })
		// The latency histograms replace the old mean/max gauges: a scraper
		// derives mean (sum/count), p50/p95/p99 (histogram_quantile), and
		// rates from the same fixed log-spaced buckets on every daemon.
		fmt.Fprintf(&b, "# HELP hdmm_request_duration_seconds Request latency by endpoint.\n# TYPE hdmm_request_duration_seconds histogram\n")
		for _, name := range names {
			m.endpointHists[name].WriteSeries(&b, "hdmm_request_duration_seconds", fmt.Sprintf("endpoint=%q", name))
		}
	}

	// All six pipeline stages, always, in pipeline order — deterministic
	// series set regardless of which stages traffic has exercised.
	fmt.Fprintf(&b, "# HELP hdmm_stage_duration_seconds Exclusive time spent per pipeline stage.\n# TYPE hdmm_stage_duration_seconds histogram\n")
	for i := 0; i < obs.NumStages; i++ {
		m.stageHists[i].WriteSeries(&b, "hdmm_stage_duration_seconds", fmt.Sprintf("stage=%q", obs.StageName(i)))
	}

	if s := m.Solver; s != nil {
		counter("hdmm_union_solves_total", "Converged union-reconstruction solves.", s.Solves)
		counter("hdmm_union_solve_iterations_total", "Total LSMR iterations and refinement steps across converged union solves.", s.Iterations)
		counter("hdmm_union_solve_failures_total", "Union reconstructions that hit the iteration cap.", s.Failures)
		fmt.Fprintf(&b, "# HELP hdmm_union_solve_last_residual Residual norm of the most recent converged union solve.\n# TYPE hdmm_union_solve_last_residual gauge\nhdmm_union_solve_last_residual %v\n", s.LastResidual)
	}
	if s := m.Snapshots; s != nil {
		counter("hdmm_snapshot_writes_total", "Engine snapshots persisted crash-safely.", s.Writes)
		counter("hdmm_snapshot_write_errors_total", "Snapshot saves that failed after retries.", s.WriteErrors)
		counter("hdmm_snapshot_write_retries_total", "Transient-error retries during snapshot saves.", s.WriteRetries)
		counter("hdmm_snapshot_recovered_total", "Engines rehydrated from snapshots at boot.", s.Recovered)
		counter("hdmm_snapshot_quarantined_total", "Corrupt or rejected snapshots set aside.", s.Quarantined)
	}
	degraded := 0
	if m.Degraded {
		degraded = 1
	}
	fmt.Fprintf(&b, "# HELP hdmm_degraded 1 when durability is configured but not fully healthy.\n# TYPE hdmm_degraded gauge\nhdmm_degraded %d\n", degraded)
	return b.Bytes()
}

// statusWriter records the response status for the metrics middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
