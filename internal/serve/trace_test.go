package serve_test

import (
	"context"
	"errors"
	"testing"

	hdmm "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestEngineCtxTracesStages: a traced construction records the pipeline
// stages in order, every span is positive, and the traced engine's output
// is byte-identical to an untraced one — tracing is observation, not
// perturbation.
func TestEngineCtxTracesStages(t *testing.T) {
	w, x := testWorkload(t)
	opts := serve.Options{Selection: hdmm.SelectOptions{Restarts: 1, Seed: 3}, Seed: 7}

	plain, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("req-1")
	traced, err := serve.NewEngineCtx(obs.WithTrace(context.Background(), tr), w, x, 1.0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFloats(plain.Xhat(), traced.Xhat()) {
		t.Fatal("traced construction changed the estimate")
	}

	got := map[obs.Stage]obs.Span{}
	for _, sp := range tr.Spans() {
		got[sp.Stage] = sp
	}
	for _, s := range []obs.Stage{obs.StageOptimize, obs.StageMeasure, obs.StageSolve} {
		sp, ok := got[s]
		if !ok {
			t.Errorf("stage %s missing from trace (have %v)", s, tr.Spans())
			continue
		}
		if sp.Count < 1 || sp.Total <= 0 {
			t.Errorf("stage %s span %+v, want positive", s, sp)
		}
	}
	if _, ok := got[obs.StageAnswer]; ok {
		t.Error("construction recorded an answer span")
	}

	// Answering through the ctx path adds the answer stage.
	if _, err := traced.AnswerSharedCtx(obs.WithTrace(context.Background(), tr), w.Products); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range tr.Spans() {
		if sp.Stage == obs.StageAnswer {
			found = sp.Count >= 1 && sp.Total > 0
		}
	}
	if !found {
		t.Error("AnswerSharedCtx recorded no answer span")
	}
}

// TestEngineCtxCancelledBeforeMeasure: a context cancelled before
// construction aborts with the context's error and without consuming
// privacy budget (no measurement happens), and a cancelled answer batch
// reports the bare context error.
func TestEngineCtxCancelledBeforeMeasure(t *testing.T) {
	w, x := testWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := serve.Options{Selection: hdmm.SelectOptions{Restarts: 1, Seed: 3}, Seed: 7}
	if _, err := serve.NewEngineCtx(ctx, w, x, 1.0, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled construction returned %v, want context.Canceled", err)
	}

	eng, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AnswerCtx(ctx, w.Products); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled answer returned %v, want context.Canceled", err)
	}
	// And the live-context path still answers.
	if _, err := eng.AnswerCtx(context.Background(), w.Products); err != nil {
		t.Fatal(err)
	}
}
