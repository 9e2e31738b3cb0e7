package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// span is one traced call. Spans stay in memory and are written out when
// the run ends.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`     // timed op index; -1 for set-up
	Parent int     `json:"parent"` // index of the enclosing span; -1 for an op root
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) at(tm time.Time) float64 { return ms(tm.Sub(t.t0)) }

func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: t.at(time.Now())})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = t.at(time.Now()) }

// stageSpans names the layer behind each pipeline stage obs records inside
// serve.NewEngineCtx, in pipeline order.
var stageSpans = []struct {
	stage obs.Stage
	name  string
}{
	{obs.StageOptimize, "core.select"},
	{obs.StageMeasure, "mech.measure"},
	{obs.StagePrecondition, "lsmr.precondition"},
	{obs.StageSolve, "lsmr.solve"},
}

// addStages records the program's own stage spans as children of the build
// span. obs reports each stage's exclusive total, not its interval, so the
// children are laid end to end from the build's start.
func (t *tracer) addStages(build int, tr *obs.Trace) {
	totals := map[obs.Stage]time.Duration{}
	for _, sp := range tr.Spans() {
		totals[sp.Stage] = sp.Total
	}
	cursor := t.spans[build].Start
	for _, s := range stageSpans {
		d, ok := totals[s.stage]
		if !ok {
			continue
		}
		t.spans = append(t.spans, span{Name: s.name, Op: t.spans[build].Op, Parent: build, Start: cursor, End: cursor + ms(d)})
		cursor += ms(d)
	}
}

// selfTimes sums each span name's self time (duration minus the time its
// children cover) over the timed ops, and the op roots' total wall time.
func (t *tracer) selfTimes() (self map[string]float64, wallMs float64) {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self = map[string]float64{}
	for i, s := range t.spans {
		if s.Op < 0 {
			continue
		}
		self[s.Name] += s.End - s.Start - child[i]
		if s.Parent < 0 {
			wallMs += s.End - s.Start
		}
	}
	return self, wallMs
}

// instrumentCost measures what the traced run's instrumentation costs: one
// span recorded, and one read of the allocation counters.
func instrumentCost() (perSpan, perRead time.Duration) {
	const n = 4096
	t := tracer{t0: time.Now(), spans: make([]span, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibration", 0, -1))
	}
	perSpan = time.Since(start) / n
	start = time.Now()
	for i := 0; i < n; i++ {
		memCounters()
	}
	return perSpan, time.Since(start) / n
}

// memReadsPerOp is how often the traced run reads the allocation counters
// inside one timed op.
const memReadsPerOp = 2

// traceResult is what the in-process traced run measured.
type traceResult struct {
	tracer
	ops         int
	overheadMs  float64 // instrumentation cost summed over the timed ops
	failed      int
	gateErrs    []string
	buildAlloc  []float64 // MiB allocated per engine build
	answerAlloc []float64 // MiB allocated per answer batch
	kronMB      []float64 // modelled bytes moved per batch, MiB
	snapKB      []float64
	gcCycles    float64
	restarts    float64
}

func (r *traceResult) fail(op int, format string, args ...any) {
	r.failed++
	r.gateErrs = append(r.gateErrs, fmt.Sprintf("traced op %d: %s", op, fmt.Sprintf(format, args...)))
}

// memCounters reads the process's cumulative heap allocation and GC count
// without stopping the world.
func memCounters() (allocMB, gcs float64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20), float64(s[1].Value.Uint64())
}

// runTraced repeats the run's set-up and timed op list in-process, calling
// each layer's public entry point in pipeline order inside a span.
func (b *bench) runTraced(ctx context.Context) (*traceResult, error) {
	p := b.plan
	dir, err := os.MkdirTemp(b.tmp, "traced-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	reg, err := registry.Open(filepath.Join(dir, "cache"), 0)
	if err != nil {
		return nil, err
	}
	store, err := snapshot.Open(filepath.Join(dir, "snapshots"), nil)
	if err != nil {
		return nil, err
	}
	res := &traceResult{tracer: tracer{t0: time.Now()}, ops: p.Ops()}
	in := &inProcess{b: b, res: res, reg: reg, store: store}

	setupBody, err := registerBody(p.Setup)
	if err != nil {
		return nil, err
	}
	bodies, err := p.bodies()
	if err != nil {
		return nil, err
	}
	tenant, err := in.register(ctx, -1, setupBody)
	if err != nil {
		return nil, err
	}
	restarts0 := core.RestartsPerformed()
	_, gc0 := memCounters()
	if p.Workload == wlAnswer {
		check := newAnswerCheck(newExactAnswers(histogram(p.Setup.DataSeed)))
		for i, body := range bodies {
			if err := in.answer(ctx, i, tenant, body, check); err != nil {
				return nil, err
			}
		}
		if got, want := check.rmse(), tenant.ExpectedRMSE(); !(got > 0) || got > rmseFactor*want || got < want/rmseFactor {
			res.fail(-1, "observed RMSE %.3f is not within a factor %.0f of expected RMSE %.3f", got, rmseFactor, want)
		}
	} else {
		for i, body := range bodies {
			if _, err := in.register(ctx, i, body); err != nil {
				return nil, err
			}
		}
	}
	_, gc1 := memCounters()
	res.gcCycles = gc1 - gc0
	res.restarts = float64(core.RestartsPerformed() - restarts0)
	perSpan, perRead := instrumentCost()
	timedSpans := 0
	for _, s := range res.spans {
		if s.Op >= 0 {
			timedSpans++
		}
	}
	res.overheadMs = ms(time.Duration(timedSpans)*perSpan + time.Duration(memReadsPerOp*res.ops)*perRead)
	return res, nil
}

// inProcess holds the layers the traced run drives.
type inProcess struct {
	b     *bench
	res   *traceResult
	reg   *registry.Registry
	store *snapshot.Store
}

// register mirrors the daemon's registration path: decode, parse, build the
// engine (select, measure, reconstruct), persist the snapshot, encode the
// response.
func (in *inProcess) register(ctx context.Context, op int, body []byte) (*serve.Engine, error) {
	t, res := &in.res.tracer, in.res
	root := t.begin("op.register", op, -1)

	s := t.begin("json.codec", op, root)
	var req server.RegisterRequest
	err := json.Unmarshal(body, &req)
	t.end(s)
	if err != nil {
		return nil, err
	}

	s = t.begin("workload.parse", op, root)
	products, err := workload.ParseProducts(req.Queries, req.Domain)
	var w *workload.Workload
	if err == nil {
		w, err = workload.New(schema.Sizes(req.Domain...), products...)
	}
	x := append([]float64(nil), req.Data...)
	t.end(s)
	if err != nil {
		return nil, err
	}

	tr := obs.NewTrace(strconv.Itoa(op))
	alloc0, _ := memCounters()
	s = t.begin("serve.build", op, root)
	eng, err := serve.NewEngineCtx(obs.WithTrace(ctx, tr), w, x, req.Eps, serve.Options{
		Selection: core.HDMMOptions{Restarts: req.Restarts, Seed: req.OptSeed},
		Seed:      req.Seed,
		Registry:  in.reg,
	})
	t.end(s)
	alloc1, _ := memCounters()
	if err != nil {
		return nil, err
	}
	t.addStages(s, tr)
	if op >= 0 {
		res.buildAlloc = append(res.buildAlloc, alloc1-alloc0)
		for _, sp := range tr.Spans() {
			if sp.Stage == obs.StageMeasure && sp.Count != 1 {
				res.fail(op, "%d measurements in one registration", sp.Count)
			}
		}
	}

	key := engineKey(body)
	s = t.begin("snapshot.save", op, root)
	err = in.store.Save(eng.Snapshot(key, req.Queries))
	t.end(s)
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(in.store.Path(key)); err == nil && op >= 0 {
		res.snapKB = append(res.snapKB, float64(fi.Size())/1024)
	}

	s = t.begin("json.codec", op, root)
	out, err := encodeJSON(server.RegisterResponse{
		Key: key, StrategyKey: eng.Key(), Operator: eng.Operator(), ExpectedRMSE: eng.ExpectedRMSE(),
		FromCache: eng.FromCache(), NumQueries: w.NumQueries(), Domain: req.Domain,
	})
	t.end(s)
	t.end(root)
	if err != nil {
		return nil, err
	}
	if _, _, msg := checkRegistration(in.b.plan.Workload, http.StatusCreated, out); msg != "" && op >= 0 {
		res.fail(op, "%s", msg)
	}
	return eng, nil
}

// encodeJSON encodes a response the way the daemon writes it.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// engineKey names an in-process engine's snapshot: a digest of its request.
func engineKey(body []byte) string {
	h := sha256.Sum256(body)
	return hex.EncodeToString(h[:])
}

// answer mirrors the daemon's answer path: decode, parse, evaluate the
// batch on the private estimate, encode the response.
func (in *inProcess) answer(ctx context.Context, op int, eng *serve.Engine, body []byte, check *answerCheck) error {
	t, res := &in.res.tracer, in.res
	root := t.begin("op.answer", op, -1)

	s := t.begin("json.codec", op, root)
	var req server.AnswerRequest
	err := json.Unmarshal(body, &req)
	t.end(s)
	if err != nil {
		return err
	}

	s = t.begin("workload.parse", op, root)
	products, err := workload.ParseProducts(req.Queries, eng.Workload().Domain.AttrSizes())
	t.end(s)
	if err != nil {
		return err
	}

	alloc0, _ := memCounters()
	s = t.begin("mech.answer", op, root)
	answers, err := eng.AnswerSharedCtx(ctx, products)
	t.end(s)
	alloc1, _ := memCounters()
	if err != nil {
		return err
	}
	res.answerAlloc = append(res.answerAlloc, alloc1-alloc0)
	res.kronMB = append(res.kronMB, batchKronMB(req.Queries))

	s = t.begin("json.codec", op, root)
	out, err := encodeJSON(server.AnswerResponse{Answers: answers})
	t.end(s)
	t.end(root)
	if err != nil {
		return err
	}
	if msg := check.batch(op, in.b.plan.Batches[op], out); msg != "" {
		res.fail(op, "%s", msg)
	}
	return nil
}

// batchKronMB models the bytes one batch moves through the Kronecker
// kernels: for each distinct product, every factor step reads its input
// and writes its output (applied last attribute first), plus the factor's
// dense matrix.
func batchKronMB(queries []string) float64 {
	sizes := cphSizes()
	seen := map[string]bool{}
	total := 0.0
	for _, q := range queries {
		if seen[q] {
			continue
		}
		seen[q] = true
		specs := strings.Split(q, ",")
		acc := 1.0
		for _, n := range sizes {
			acc *= float64(n)
		}
		for k := len(specs) - 1; k >= 0; k-- {
			rows, err := productRows(specs[k], sizes[k:k+1])
			if err != nil {
				continue
			}
			out := acc / float64(sizes[k]) * float64(rows)
			total += 8 * (acc + out + float64(rows*sizes[k]))
			acc = out
		}
	}
	return total / (1 << 20)
}
