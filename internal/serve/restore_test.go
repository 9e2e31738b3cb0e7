package serve_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	hdmm "repro"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// testEngine builds a measured engine plus the snapshot fields it was
// registered with.
func testEngine(t *testing.T) (*serve.Engine, []string) {
	t.Helper()
	w, x := testWorkload(t)
	reg, err := registry.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{
		Selection: hdmm.SelectOptions{Restarts: 2, Seed: 3},
		Seed:      99,
		Registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, []string{"I,R", "T,P"}
}

// TestSnapshotRestoreRoundTrip: Snapshot → codec → Restore reproduces an
// engine that answers byte-identically, carries the same metadata, and
// reports fromCache (the strategy came from durable state).
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	eng, queries := testEngine(t)
	sn := eng.Snapshot("tenant-1", queries)
	if sn.Key != "tenant-1" || len(sn.Xhat) != len(eng.Xhat()) || sn.Seed != eng.Seed() {
		t.Fatalf("snapshot fields: %+v", sn)
	}
	blob, err := snapshot.Encode(sn)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := snapshot.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := serve.Restore(decoded, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.FromCache() {
		t.Error("restored engine not marked fromCache")
	}
	if restored.Key() != eng.Key() || restored.Epsilon() != eng.Epsilon() || restored.Delta() != eng.Delta() {
		t.Fatalf("restored metadata differs: key %s vs %s", restored.Key(), eng.Key())
	}
	if restored.ExpectedRMSE() != eng.ExpectedRMSE() {
		t.Fatalf("restored RMSE %v vs %v", restored.ExpectedRMSE(), eng.ExpectedRMSE())
	}
	if !sameFloats(restored.Xhat(), eng.Xhat()) {
		t.Fatal("restored x̂ differs bit-for-bit")
	}
	products, err := workload.ParseProducts([]string{"I,T", "T,R"}, restored.Workload().Domain.AttrSizes())
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.AnswerCtx(t.Context(), products)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.AnswerCtx(t.Context(), products)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !sameFloats(want[i], got[i]) {
			t.Fatalf("answers[%d] differ after restore", i)
		}
	}
}

// TestEngineKeepsNoMeasurement: once NewEngineCtx returns, the engine
// holds x̂ and no vector of the strategy's row length — the noisy
// measurement y is dropped after reconstruction.
func TestEngineKeepsNoMeasurement(t *testing.T) {
	// All range queries on one attribute select OPT⊗, a p-Identity
	// strategy with more rows than cells.
	dom := hdmm.NewDomain(hdmm.Attribute{Name: "a", Size: 64})
	w, err := hdmm.NewWorkload(dom, hdmm.NewProduct(hdmm.AllRange(64)))
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewEngineCtx(t.Context(), w, make([]float64, 64), 1.0, serve.Options{
		Selection: hdmm.SelectOptions{Restarts: 1, Seed: 3},
		Seed:      99,
		Registry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, cells := eng.Strategy().Operator().Dims()
	if rows == cells {
		t.Fatalf("strategy is %d×%d; the check needs rows ≠ cells", rows, cells)
	}
	v := reflect.ValueOf(eng).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Float64 && f.Len() == rows {
			t.Errorf("field %s holds %d floats, the strategy's row count", v.Type().Field(i).Name, rows)
		}
	}
}

// TestRestoreRejectsSemanticCorruption: a snapshot that decodes cleanly but
// lies about its own shape is rejected with an error (the store quarantines
// it) — never "repaired" by re-optimizing or re-measuring.
func TestRestoreRejectsSemanticCorruption(t *testing.T) {
	eng, queries := testEngine(t)
	for name, tc := range map[string]struct {
		mutate func(*snapshot.Snapshot)
		want   string
	}{
		"bad eps":         {func(sn *snapshot.Snapshot) { sn.Eps = math.Inf(1) }, "invalid eps"},
		"bad delta":       {func(sn *snapshot.Snapshot) { sn.Delta = 2 }, "invalid delta"},
		"no strategy":     {func(sn *snapshot.Snapshot) { sn.Record = nil }, "no strategy"},
		"bad query":       {func(sn *snapshot.Snapshot) { sn.Queries = []string{"Z,Q"} }, "queries"},
		"wrong domain":    {func(sn *snapshot.Snapshot) { sn.Domain = []int{3, 17} }, "fit its workload"},
		"truncated xhat":  {func(sn *snapshot.Snapshot) { sn.Xhat = sn.Xhat[:len(sn.Xhat)-1] }, "domain has"},
		"swapped queries": {func(sn *snapshot.Snapshot) { sn.Queries = []string{"I"} }, ""},
	} {
		t.Run(name, func(t *testing.T) {
			sn := eng.Snapshot("tenant-1", queries)
			tc.mutate(sn)
			if _, err := serve.Restore(sn, 1); err == nil {
				t.Fatal("corrupted snapshot restored")
			} else if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestPoolAdd: the recovery insertion path respects the capacity cap and
// never replaces a live engine.
func TestPoolAdd(t *testing.T) {
	eng, _ := testEngine(t)
	p := serve.NewPool(2)
	if err := p.Add("a", eng); err != nil {
		t.Fatal(err)
	}
	if err := p.Add("a", eng); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if err := p.Add("b", eng); err != nil {
		t.Fatal(err)
	}
	if err := p.Add("c", eng); err != serve.ErrPoolFull {
		t.Fatalf("over-capacity Add = %v, want ErrPoolFull", err)
	}
	if got, ok := p.Get("a"); !ok || got != eng {
		t.Fatal("added engine not retrievable")
	}
	if p.Len() != 2 {
		t.Fatalf("pool len = %d", p.Len())
	}
}
