package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/server"
)

// setupRuns is how many times a run boots a daemon and prepares it; setup_s
// is their median and the last daemon serves the timed phase.
const setupRuns = 3

// Correctness bounds the benchmark states.
const (
	// stageCover: a registration's daemon stage spans must cover at least
	// this share of its register_wall_ms.
	stageCover = 0.90
	// wallCover: register_wall_ms must cover at least this share of the
	// latency the client saw; the rest is HTTP, JSON and the snapshot save.
	wallCover = 0.75
	// rmseFactor: observed RMSE on the answer pool must lie within this
	// factor of the daemon's expected RMSE, in either direction.
	rmseFactor = 10.0
)

// daemonResult is what the untraced run against the real daemon measured.
type daemonResult struct {
	setupS  []float64
	kernels string

	latMs     []float64 // client latency per timed op
	reqBytes  []float64
	respBytes []float64
	failed    []bool // per timed op
	gateErrs  []string
	wallS     float64 // timed wall-clock, client-side checking excluded

	expected []float64 // expected RMSE per timed registration, or the tenant's
	observed float64   // RMSE on the answer pool, mean over engines
	peakRSS  float64   // MiB
	cpuUtil  float64   // daemon CPU seconds over timed wall seconds

	stageMs float64 // daemon stage time summed over the timed ops
	m0, m1  *server.MetricsResponse
	iters   []float64 // LSMR iterations per timed registration
}

func (r *daemonResult) fail(op int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if op >= 0 {
		r.failed[op] = true
		msg = fmt.Sprintf("op %d: %s", op, msg)
	}
	r.gateErrs = append(r.gateErrs, msg)
}

// registerBody encodes one registration request.
func registerBody(reg Registration) ([]byte, error) {
	return json.Marshal(server.RegisterRequest{
		Domain:   cphSizes(),
		Queries:  registeredQueries,
		Data:     histogram(reg.DataSeed),
		Eps:      reg.Eps,
		Seed:     reg.NoiseSeed,
		Restarts: restarts,
		OptSeed:  reg.OptSeed,
	})
}

func answerBody(b Batch) ([]byte, error) {
	return json.Marshal(server.AnswerRequest{Queries: b.Queries})
}

// bodies encodes the request of every timed op.
func (p *Plan) bodies() ([][]byte, error) {
	bodies := make([][]byte, p.Ops())
	var err error
	for i := range bodies {
		if p.Workload == wlAnswer {
			bodies[i], err = answerBody(p.Batches[i])
		} else {
			bodies[i], err = registerBody(p.Regs[i])
		}
		if err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// poolQueries is every answer-pool spec once, the verification batch sent
// to each engine a register workload created.
func poolQueries() []string {
	var qs []string
	for _, class := range answerClasses {
		qs = append(qs, class...)
	}
	return qs
}

// runDaemon boots the daemon setupRuns times, then drives the timed op list
// through the last one over loopback HTTP with one closed-loop client.
func (b *bench) runDaemon(ctx context.Context) (*daemonResult, error) {
	p := b.plan
	res := &daemonResult{failed: make([]bool, p.Ops())}

	setupBody, err := registerBody(p.Setup)
	if err != nil {
		return nil, err
	}
	var probeBody []byte
	if p.Workload == wlAnswer {
		if probeBody, err = answerBody(p.Probe); err != nil {
			return nil, err
		}
	}
	var d *daemon
	var dir, tenantKey string
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			d.stop()
			os.RemoveAll(dir)
		}
		if dir, err = os.MkdirTemp(b.tmp, "daemon-*"); err != nil {
			return nil, err
		}
		start := time.Now()
		if d, err = startDaemon(ctx, b.bin, dir); err != nil {
			return nil, err
		}
		tenantKey, err = warmUp(ctx, d, setupBody, probeBody)
		res.setupS = append(res.setupS, time.Since(start).Seconds())
		if err != nil {
			d.stop()
			return nil, fmt.Errorf("set-up %d: %w\n%s", i, err, d.logTail())
		}
	}
	defer func() {
		d.stop()
		os.RemoveAll(dir)
	}()
	res.kernels = d.kernels

	// Everything the timed loop sends is encoded before the clock starts.
	bodies, err := p.bodies()
	if err != nil {
		return nil, err
	}
	var exact *exactAnswers
	if p.Workload == wlAnswer {
		exact = newExactAnswers(histogram(p.Setup.DataSeed))
	}

	if res.m0, err = d.metrics(ctx); err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds(d.pid())
	if err != nil {
		return nil, err
	}
	var keys []string
	var checking time.Duration
	check := newAnswerCheck(exact)
	start := time.Now()
	for i, body := range bodies {
		status, resp, lat, err := d.post(ctx, pathFor(p.Workload, tenantKey), body)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		c0 := time.Now()
		res.latMs = append(res.latMs, ms(lat))
		res.reqBytes = append(res.reqBytes, float64(len(body)))
		res.respBytes = append(res.respBytes, float64(len(resp)))
		if p.Workload == wlAnswer {
			if status != http.StatusOK {
				res.fail(i, "answer status %d: %s", status, resp)
			} else if msg := check.batch(i, p.Batches[i], resp); msg != "" {
				res.fail(i, "%s", msg)
			}
		} else {
			key, rmse, msg := checkRegistration(p.Workload, status, resp)
			if msg != "" {
				res.fail(i, "%s", msg)
			}
			keys = append(keys, key)
			res.expected = append(res.expected, rmse)
		}
		checking += time.Since(c0)
	}
	res.wallS = (time.Since(start) - checking).Seconds()
	cpu1, err := cpuSeconds(d.pid())
	if err != nil {
		return nil, err
	}
	res.cpuUtil = (cpu1 - cpu0) / res.wallS
	if res.peakRSS, err = peakRSSMB(d.pid()); err != nil {
		return nil, err
	}
	if res.m1, err = d.metrics(ctx); err != nil {
		return nil, err
	}

	registrations := len(keys)
	if p.Workload == wlAnswer {
		info, err := engineInfo(ctx, d, tenantKey)
		if err != nil {
			return nil, err
		}
		res.expected = []float64{info.ExpectedRMSE}
		res.observed = check.rmse()
		res.stageMs = stageTotalMs(res.m1, "answer") - stageTotalMs(res.m0, "answer")
	} else {
		if err := b.checkEngines(ctx, d, keys, res); err != nil {
			return nil, err
		}
	}
	b.checkRun(res, registrations)
	return res, nil
}

func pathFor(workload, tenantKey string) string {
	if workload == wlAnswer {
		return "/v1/engines/" + tenantKey + "/answer"
	}
	return "/v1/engines"
}

// warmUp registers the set-up tenant on a fresh daemon and, for the answer
// workload, sends one probe batch. It returns the tenant's engine key.
func warmUp(ctx context.Context, d *daemon, regBody, probeBody []byte) (string, error) {
	status, resp, _, err := d.post(ctx, "/v1/engines", regBody)
	if err != nil {
		return "", err
	}
	var rr server.RegisterResponse
	if status != http.StatusCreated || json.Unmarshal(resp, &rr) != nil || rr.FromCache || rr.Key == "" {
		return "", fmt.Errorf("warm-up registration: status %d: %s", status, resp)
	}
	if probeBody != nil {
		status, resp, _, err := d.post(ctx, "/v1/engines/"+rr.Key+"/answer", probeBody)
		if err != nil {
			return "", err
		}
		if status != http.StatusOK {
			return "", fmt.Errorf("probe batch: status %d: %s", status, resp)
		}
	}
	return rr.Key, nil
}

// checkRegistration applies the per-op registration gates: 201 Created, a
// fresh measurement (reused=false), and a strategy that missed the registry
// on register-cold and hit it on register-warm.
func checkRegistration(workload string, status int, resp []byte) (key string, rmse float64, failure string) {
	var rr server.RegisterResponse
	if status != http.StatusCreated {
		return "", 0, fmt.Sprintf("registration status %d: %s", status, resp)
	}
	if err := json.Unmarshal(resp, &rr); err != nil {
		return "", 0, fmt.Sprintf("decoding registration: %v", err)
	}
	switch {
	case rr.Reused:
		return rr.Key, rr.ExpectedRMSE, "registration reused an engine; every timed op must measure"
	case workload == wlCold && rr.FromCache:
		return rr.Key, rr.ExpectedRMSE, "register-cold op hit the strategy registry"
	case workload == wlWarm && !rr.FromCache:
		return rr.Key, rr.ExpectedRMSE, "register-warm op missed the strategy registry"
	case !(rr.ExpectedRMSE > 0):
		return rr.Key, rr.ExpectedRMSE, fmt.Sprintf("expected RMSE %v is not positive", rr.ExpectedRMSE)
	}
	return rr.Key, rr.ExpectedRMSE, ""
}

func engineInfo(ctx context.Context, d *daemon, key string) (*server.EngineInfo, error) {
	var info server.EngineInfo
	if err := d.getJSON(ctx, "/v1/engines/"+key, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// checkEngines reconciles each timed registration's client latency with the
// daemon's register_wall_ms and stage spans, then answers the pool once on
// every engine to measure the RMSE users get.
func (b *bench) checkEngines(ctx context.Context, d *daemon, keys []string, res *daemonResult) error {
	body, err := answerBody(Batch{Queries: poolQueries()})
	if err != nil {
		return err
	}
	var observed []float64
	for i, key := range keys {
		if key == "" {
			continue // the registration itself failed its gate
		}
		info, err := engineInfo(ctx, d, key)
		if err != nil {
			return err
		}
		sum := 0.0
		for _, st := range info.Stages {
			sum += st.Ms
		}
		res.stageMs += sum
		res.iters = append(res.iters, float64(info.SolverIters))
		switch {
		case info.RegisterWallMs <= 0:
			res.fail(i, "engine reports no register_wall_ms")
		case sum < stageCover*info.RegisterWallMs:
			res.fail(i, "stage spans cover %.1f of %.1f register_wall_ms (bound %.2f)", sum, info.RegisterWallMs, stageCover)
		case info.RegisterWallMs < wallCover*res.latMs[i]:
			res.fail(i, "register_wall_ms %.1f covers too little of the %.1f ms client latency (bound %.2f)", info.RegisterWallMs, res.latMs[i], wallCover)
		}

		status, resp, _, err := d.post(ctx, "/v1/engines/"+key+"/answer", body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			res.fail(i, "verification answer status %d: %s", status, resp)
			continue
		}
		check := newAnswerCheck(newExactAnswers(histogram(b.plan.Regs[i].DataSeed)))
		if msg := check.batch(i, Batch{Queries: poolQueries(), RepeatOf: -1}, resp); msg != "" {
			res.fail(i, "verification answer: %s", msg)
			continue
		}
		observed = append(observed, check.rmse())
	}
	res.observed = mean(observed)
	return nil
}

// checkRun applies the run-level gates; a failure marks every op failed.
func (b *bench) checkRun(res *daemonResult, registrations int) {
	p := b.plan
	var msgs []string
	if want := 1 + registrations; res.m1.Engines != want {
		msgs = append(msgs, fmt.Sprintf("/metrics reports %d engines, %d registrations were made", res.m1.Engines, want))
	}
	hits := res.m1.StrategyCache.Hits - res.m0.StrategyCache.Hits
	misses := res.m1.StrategyCache.Misses - res.m0.StrategyCache.Misses
	switch p.Workload {
	case wlCold:
		if hits != 0 || misses != uint64(registrations) {
			msgs = append(msgs, fmt.Sprintf("register-cold: %d registry hits and %d misses, want 0 and %d", hits, misses, registrations))
		}
	case wlWarm:
		if hits != uint64(registrations) || misses != 0 {
			msgs = append(msgs, fmt.Sprintf("register-warm: %d registry hits and %d misses, want %d and 0", hits, misses, registrations))
		}
	}
	if n := stageCount(res.m1, "measure") - stageCount(res.m0, "measure"); n != uint64(registrations) {
		msgs = append(msgs, fmt.Sprintf("%d measurements for %d timed registrations", n, registrations))
	}
	exp := mean(res.expected)
	if !(res.observed > 0) || res.observed > rmseFactor*exp || res.observed < exp/rmseFactor {
		msgs = append(msgs, fmt.Sprintf("observed RMSE %.3f is not within a factor %.0f of expected RMSE %.3f", res.observed, rmseFactor, exp))
	}
	for _, m := range msgs {
		res.fail(-1, "%s", m)
	}
	if len(msgs) > 0 {
		for i := range res.failed {
			res.failed[i] = true
		}
	}
}

// answerCheck verifies answer bodies: row counts per product, byte-identical
// repeats, identical answers for identical specs, and the error against
// exact answers computed from the benchmark's own histogram. The RMSE is
// taken over the marginal specs (I and T terms only): their rows carry
// nearly independent noise, so one engine's RMSE repeats across seeds,
// where overlapping ranges share noise and would not.
type answerCheck struct {
	exact  *exactAnswers
	sizes  []int
	hashes [][32]byte
	seen   map[string][]byte // JSON encoding of the first answer per spec
	buf    bytes.Buffer
	sqErr  float64
	n      int
}

func newAnswerCheck(exact *exactAnswers) *answerCheck {
	return &answerCheck{exact: exact, sizes: cphSizes(), seen: map[string][]byte{}}
}

// batch checks the response to batch op and returns a failure message or "".
// Once every spec of a batch has been seen, the expected body is assembled
// from the specs' first answers and compared byte for byte; only a body
// that differs, or a spec seen for the first time, is decoded.
func (c *answerCheck) batch(op int, b Batch, resp []byte) string {
	h := sha256.Sum256(resp)
	for len(c.hashes) <= op {
		c.hashes = append(c.hashes, [32]byte{})
	}
	c.hashes[op] = h
	if b.RepeatOf >= 0 && c.hashes[b.RepeatOf] != h {
		return fmt.Sprintf("repeat of batch %d returned different bytes", b.RepeatOf)
	}
	if c.expectedBody(b.Queries) && bytes.Equal(resp, c.buf.Bytes()) {
		return ""
	}
	var ar server.AnswerResponse
	if err := json.Unmarshal(resp, &ar); err != nil {
		return fmt.Sprintf("decoding answers: %v", err)
	}
	if len(ar.Answers) != len(b.Queries) {
		return fmt.Sprintf("%d answer vectors for %d products", len(ar.Answers), len(b.Queries))
	}
	for j, q := range b.Queries {
		rows, err := productRows(q, c.sizes)
		if err != nil {
			return err.Error()
		}
		got := ar.Answers[j]
		if len(got) != rows {
			return fmt.Sprintf("product %q: %d answers, want %d rows", q, len(got), rows)
		}
		enc, err := json.Marshal(got)
		if err != nil {
			return err.Error()
		}
		if prev, ok := c.seen[q]; ok {
			if !bytes.Equal(prev, enc) {
				return fmt.Sprintf("product %q answered differently within one engine", q)
			}
			continue
		}
		c.seen[q] = enc
		if !isMarginal(q) {
			continue
		}
		want, err := c.exact.answer(q)
		if err != nil {
			return err.Error()
		}
		for k := range got {
			d := got[k] - want[k]
			c.sqErr += d * d
		}
		c.n += rows
	}
	return ""
}

// expectedBody assembles in c.buf the response the daemon writes for
// queries, and reports whether every spec has been seen.
func (c *answerCheck) expectedBody(queries []string) bool {
	c.buf.Reset()
	c.buf.WriteString(`{"answers":[`)
	for j, q := range queries {
		enc, ok := c.seen[q]
		if !ok {
			return false
		}
		if j > 0 {
			c.buf.WriteByte(',')
		}
		c.buf.Write(enc)
	}
	c.buf.WriteString("]}\n")
	return true
}

// isMarginal reports whether a product spec has only I and T terms.
func isMarginal(q string) bool {
	for _, s := range strings.Split(q, ",") {
		if s != "I" && s != "T" {
			return false
		}
	}
	return true
}

func (c *answerCheck) rmse() float64 {
	if c.n == 0 {
		return 0
	}
	return math.Sqrt(c.sqErr / float64(c.n))
}

func stageCount(m *server.MetricsResponse, stage string) uint64 {
	for _, s := range m.Stages {
		if s.Stage == stage {
			return s.Count
		}
	}
	return 0
}

func stageTotalMs(m *server.MetricsResponse, stage string) float64 {
	for _, s := range m.Stages {
		if s.Stage == stage {
			return float64(s.Count) * s.MeanMs
		}
	}
	return 0
}
