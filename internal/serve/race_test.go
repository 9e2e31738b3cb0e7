package serve_test

import (
	"sync"
	"testing"

	hdmm "repro"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestConcurrentAnswerBatches hammers one engine with concurrent AnswerCtx
// batches at several worker counts and checks every result against a serial
// reference. Run under -race (the CI does), this pins down the serving
// path's concurrency contract: x̂ is read-only after construction, each
// batch slot is written by exactly one goroutine, and answers are
// byte-identical for any Workers value.
func TestConcurrentAnswerBatches(t *testing.T) {
	w, x := testWorkload(t)
	batch := []workload.Product{
		hdmm.NewProduct(hdmm.Identity(2), hdmm.AllRange(16)),
		hdmm.NewProduct(hdmm.Total(2), hdmm.Prefix(16)),
		hdmm.NewProduct(hdmm.Identity(2), hdmm.Identity(16)),
		hdmm.NewProduct(hdmm.Total(2), hdmm.WidthRange(16, 3)),
	}

	eng, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{
		Selection: hdmm.SelectOptions{Restarts: 2, Seed: 3},
		Seed:      7,
		Workers:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.AnswerCtx(t.Context(), batch) // serial reference (Workers: 1)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4, 8} {
		eng, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{
			Selection: hdmm.SelectOptions{Restarts: 2, Seed: 3},
			Seed:      7,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		const clients = 8
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := eng.AnswerCtx(t.Context(), batch)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if !sameFloats(got[i], want[i]) {
						t.Errorf("Workers=%d: concurrent batch item %d differs from serial reference", workers, i)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestConcurrentEngineConstruction races engine constructions sharing one
// registry: the singleflight layer must hand every engine the same strategy
// and optimize at most once.
func TestConcurrentEngineConstruction(t *testing.T) {
	w, x := testWorkload(t)
	reg, err := registry.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sel := hdmm.SelectOptions{Restarts: 1, Seed: 5}

	const builders = 6
	engines := make([]*serve.Engine, builders)
	var wg sync.WaitGroup
	for b := 0; b < builders; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			eng, err := serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{Selection: sel, Seed: uint64(b), Registry: reg})
			if err != nil {
				t.Error(err)
				return
			}
			engines[b] = eng
		}(b)
	}
	wg.Wait()
	for b := 1; b < builders; b++ {
		if engines[b] == nil || engines[0] == nil {
			t.Fatal("construction failed")
		}
		if engines[b].Operator() != engines[0].Operator() || engines[b].Key() != engines[0].Key() {
			t.Fatalf("engine %d selected a different strategy", b)
		}
	}
}
