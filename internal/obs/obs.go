// Package obs is the observability layer shared by the HDMM pipeline and
// its HTTP daemon: per-request trace contexts with named stage spans,
// fixed-bucket latency histograms with deterministic Prometheus exposition,
// structured logging on log/slog, and an open-loop load generator.
//
// The HDMM pipeline is a staged system — parse → optimize → measure →
// precondition → solve → answer — and "where did this registration spend
// its 40 seconds" is the question every production incident starts with.
// A Trace rides the request's context.Context from the HTTP edge down
// through serve.Engine, mech, and the union solvers; each layer attributes
// its wall time to one of the fixed stages. The hooks are built for hot
// paths: every Trace method is safe on a nil receiver and allocates
// nothing, so the solver and kernel layers can observe unconditionally
// without an allocation or branch tax when tracing is off.
package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Stage names one phase of the HDMM pipeline. The set is fixed and small
// on purpose: spans live in a fixed-size array inside the Trace (zero
// allocation to record) and the /metrics stage histograms enumerate the
// stages in this order — pipeline order — deterministically.
type Stage uint8

const (
	// StageParse covers request decoding, workload construction, and data
	// vector materialization.
	StageParse Stage = iota
	// StageOptimize covers strategy selection (or its registry lookup).
	StageOptimize
	// StageMeasure covers the one private measurement y = A·x + noise.
	StageMeasure
	// StagePrecondition covers building the union solve's eigendecomposition
	// preconditioner (cached per strategy; near-zero after the first solve).
	StagePrecondition
	// StageSolve covers the least-squares reconstruction — the certified
	// refinement of a two-part union or the LSMR solve of any other, and a
	// closed-form strategy's pseudo-inverse — and, on a preconditioned
	// union solve, the map back x = M·z from the preconditioned variable to
	// the data domain.
	StageSolve
	// StageAnswer covers batched query evaluation on the private estimate.
	StageAnswer

	// NumStages is the number of named stages (array bound, not a stage).
	NumStages = int(StageAnswer) + 1
)

var stageNames = [NumStages]string{
	"parse", "optimize", "measure", "precondition", "solve", "answer",
}

// String returns the stage's wire name ("parse", "optimize", ...).
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageName returns the i-th stage's name, for iterating NumStages.
func StageName(i int) string { return Stage(i).String() }

// maxSpanDepth bounds the Begin/End nesting a Trace tracks exactly.
// Deeper nesting still accumulates totals, just without parent-time
// exclusion — the pipeline nests two levels at most.
const maxSpanDepth = 8

// frame is one open Begin on the span stack.
type frame struct {
	stage Stage
	start time.Time
	child time.Duration // wall time consumed by nested spans and Observes
}

// spanAgg accumulates one stage's exclusive time across a request.
type spanAgg struct {
	total time.Duration
	count uint32
}

// Trace is the per-request trace: a request ID plus per-stage span
// accumulators. One Trace is created at the HTTP edge and carried through
// the pipeline via context.Context. All methods are safe on a nil *Trace
// (every recording call becomes a no-op) and on the non-nil path allocate
// nothing, so pipeline layers observe unconditionally.
//
// Span semantics: Begin/End bracket a stage; time spent in nested spans
// (or attributed via Observe while a span is open) is excluded from the
// enclosing span's total, so stage totals never double-count and their sum
// tracks the request's wall time. Unmatched Ends are ignored.
type Trace struct {
	id    string
	start time.Time

	mu       sync.Mutex
	spans    [NumStages]spanAgg
	stack    [maxSpanDepth]frame
	depth    int
	overflow int // Begins past maxSpanDepth (accumulate-only)
}

// NewTrace starts a trace identified by id (normally a request ID).
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace's request ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Elapsed is the wall time since the trace started.
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// Begin opens a span for stage s. Every Begin must be paired with an End
// of the same stage; nesting is allowed and attributed exclusively.
func (t *Trace) Begin(s Stage) {
	if t == nil || int(s) >= NumStages {
		return
	}
	t.mu.Lock()
	if t.depth >= maxSpanDepth {
		t.overflow++
		t.mu.Unlock()
		return
	}
	t.stack[t.depth] = frame{stage: s, start: time.Now()}
	t.depth++
	t.mu.Unlock()
}

// End closes the innermost open span, which must be for stage s (a
// mismatched or unmatched End records nothing). The span's wall time minus
// its children's is attributed to s; the full wall time is charged to the
// parent span's child accumulator.
func (t *Trace) End(s Stage) {
	if t == nil || int(s) >= NumStages {
		return
	}
	t.mu.Lock()
	if t.overflow > 0 {
		t.overflow--
		t.mu.Unlock()
		return
	}
	if t.depth == 0 || t.stack[t.depth-1].stage != s {
		t.mu.Unlock()
		return
	}
	t.depth--
	f := t.stack[t.depth]
	wall := time.Since(f.start)
	self := wall - f.child
	if self < 0 {
		self = 0 // children charged synthetic durations longer than the wall
	}
	t.spans[s].total += self
	t.spans[s].count++
	if t.depth > 0 {
		t.stack[t.depth-1].child += wall
	}
	t.mu.Unlock()
}

// Observe attributes a duration to stage s directly — for layers that time
// themselves (the LSMR solver measures its own solve, and a union
// reconstruction times its refinement and map back as one observation).
// The duration is also charged to the innermost open span's child
// accumulator, so an Observe inside a Begin/End window is excluded from
// the enclosing span exactly like a nested span would be.
func (t *Trace) Observe(s Stage, d time.Duration) {
	if t == nil || int(s) >= NumStages {
		return
	}
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	t.spans[s].total += d
	t.spans[s].count++
	if t.depth > 0 && t.overflow == 0 {
		t.stack[t.depth-1].child += d
	}
	t.mu.Unlock()
}

// Span is one stage's accumulated timing in a Spans snapshot.
type Span struct {
	Stage Stage
	Total time.Duration
	Count int
}

// Spans snapshots the recorded stages in pipeline order, omitting stages
// never observed. Open spans are not included until their End.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, NumStages)
	for i, agg := range t.spans {
		if agg.count == 0 {
			continue
		}
		out = append(out, Span{Stage: Stage(i), Total: agg.total, Count: int(agg.count)})
	}
	return out
}

// ctxKey keys the Trace in a context.Context.
type ctxKey struct{}

// WithTrace returns a context carrying the trace.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFrom extracts the context's trace, or nil when none is attached —
// and every Trace method is nil-safe, so callers use the result
// unconditionally.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// maxRequestIDLen bounds an inbound X-Request-Id before the daemon adopts
// it: long enough for every common format (UUIDs, ULIDs, hex digests),
// short enough that a hostile header cannot bloat every log line.
const maxRequestIDLen = 64

// NewRequestID returns a fresh 16-hex-digit request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand does not fail on supported platforms; a zero ID is
		// still serviceable for correlation, unlike a panic mid-request.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// SanitizeRequestID validates a client-supplied request ID: printable
// ASCII without spaces or quotes, at most 64 bytes. It returns "" when the
// value is unusable, in which case the caller should mint a fresh one.
// Honoring inbound IDs lets a gateway's ID follow the request through the
// daemon's logs; sanitizing keeps log lines and response headers clean.
func SanitizeRequestID(id string) string {
	if id == "" || len(id) > maxRequestIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' || c == '"' || c == '\\' {
			return ""
		}
	}
	return id
}
