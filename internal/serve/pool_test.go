package serve_test

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	hdmm "repro"
	"repro/internal/registry"
	"repro/internal/serve"
)

// TestPoolSingleflight: concurrent GetOrCreate calls on one key run the
// build exactly once and hand every caller the same engine; a later call
// reports found=true.
func TestPoolSingleflight(t *testing.T) {
	w, x := testWorkload(t)
	reg, err := registry.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	pool := serve.NewPool(0)
	var builds atomic.Int64
	build := func() (*serve.Engine, error) {
		builds.Add(1)
		return serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{
			Selection: hdmm.SelectOptions{Restarts: 1, Seed: 5},
			Seed:      7,
			Registry:  reg,
		})
	}

	const callers = 8
	engines := make([]*serve.Engine, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// found is timing-dependent here (a caller arriving after the
			// flight completes legitimately sees a hit); the invariants are
			// one build and one shared instance.
			eng, _, err := pool.GetOrCreate("tenant-a", build)
			if err != nil {
				t.Error(err)
				return
			}
			engines[c] = eng
		}(c)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("build ran %d times, want 1", got)
	}
	for c := 1; c < callers; c++ {
		if engines[c] != engines[0] {
			t.Fatalf("caller %d got a different engine instance", c)
		}
	}

	eng, found, err := pool.GetOrCreate("tenant-a", build)
	if err != nil || !found || eng != engines[0] {
		t.Fatalf("second lookup: eng==first %v, found %v, err %v", eng == engines[0], found, err)
	}
	if pool.Len() != 1 {
		t.Fatalf("pool has %d engines, want 1", pool.Len())
	}
	if got, ok := pool.Get("tenant-a"); !ok || got != engines[0] {
		t.Fatal("Get did not return the registered engine")
	}
	if _, ok := pool.Get("tenant-b"); ok {
		t.Fatal("Get returned an engine for an unregistered key")
	}
	if keys := pool.Keys(); len(keys) != 1 || keys[0] != "tenant-a" {
		t.Fatalf("Keys = %v, want [tenant-a]", keys)
	}
}

// TestPoolLimit: new keys beyond the cap are rejected with ErrPoolFull
// (never evicted — an evicted engine would cost a fresh measurement),
// while registered keys keep serving; a failed build frees its slot.
func TestPoolLimit(t *testing.T) {
	w, x := testWorkload(t)
	pool := serve.NewPool(1)
	build := func() (*serve.Engine, error) {
		return serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{Selection: hdmm.SelectOptions{Restarts: 1, Seed: 5}, Seed: 7})
	}
	first, _, err := pool.GetOrCreate("a", build)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pool.GetOrCreate("b", build); !errors.Is(err, serve.ErrPoolFull) {
		t.Fatalf("over-cap registration: err = %v, want ErrPoolFull", err)
	}
	if eng, found, err := pool.GetOrCreate("a", build); err != nil || !found || eng != first {
		t.Fatalf("existing key at capacity: eng==first %v, found %v, err %v", eng == first, found, err)
	}

	// In-flight builds hold a slot (racers cannot overshoot), and a failed
	// build releases it.
	pool2 := serve.NewPool(1)
	boom := errors.New("boom")
	if _, _, err := pool2.GetOrCreate("x", func() (*serve.Engine, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, err := pool2.GetOrCreate("y", build); err != nil {
		t.Fatalf("slot not released after failed build: %v", err)
	}
}

// TestPoolPanickingBuild: a panic inside build must propagate to the
// builder but not wedge the key or leak its capacity slot — later calls
// retry instead of blocking forever on a never-closed flight.
func TestPoolPanickingBuild(t *testing.T) {
	pool := serve.NewPool(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("build panic did not propagate")
			}
		}()
		_, _, _ = pool.GetOrCreate("k", func() (*serve.Engine, error) { panic("boom") })
	}()
	if pool.Len() != 0 {
		t.Fatal("panicking build left an engine in the pool")
	}
	w, x := testWorkload(t)
	eng, found, err := pool.GetOrCreate("k", func() (*serve.Engine, error) {
		return serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{Selection: hdmm.SelectOptions{Restarts: 1, Seed: 5}, Seed: 7})
	})
	if err != nil || found || eng == nil {
		t.Fatalf("key wedged after panicking build: eng %v, found %v, err %v", eng != nil, found, err)
	}
}

// TestPoolFailedBuildNotCached: a build error is returned to every caller
// of the flight but not memoized — the next call retries.
func TestPoolFailedBuildNotCached(t *testing.T) {
	pool := serve.NewPool(0)
	boom := errors.New("boom")
	if _, _, err := pool.GetOrCreate("k", func() (*serve.Engine, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if pool.Len() != 0 {
		t.Fatal("failed build left an engine in the pool")
	}
	w, x := testWorkload(t)
	eng, found, err := pool.GetOrCreate("k", func() (*serve.Engine, error) {
		return serve.NewEngineCtx(t.Context(), w, x, 1.0, serve.Options{Selection: hdmm.SelectOptions{Restarts: 1, Seed: 5}, Seed: 7})
	})
	if err != nil || found || eng == nil {
		t.Fatalf("retry after failure: eng %v, found %v, err %v", eng != nil, found, err)
	}
}

// TestPoolKeysSorted: Keys feeds the /v1/engines listing, which the
// recovery smoke test byte-compares across restarts — map iteration
// order must never leak out. Registration order here is deliberately
// unsorted and the check repeats, since Go randomizes map order per
// iteration: an unsorted implementation fails this test with high
// probability rather than deterministically.
func TestPoolKeysSorted(t *testing.T) {
	pool := serve.NewPool(0)
	for _, key := range []string{"zeta", "alpha", "mid", "beta"} {
		if err := pool.Add(key, new(serve.Engine)); err != nil {
			t.Fatalf("Add(%q): %v", key, err)
		}
	}
	want := []string{"alpha", "beta", "mid", "zeta"}
	for i := 0; i < 32; i++ {
		if got := pool.Keys(); !slices.Equal(got, want) {
			t.Fatalf("Keys() = %v, want %v", got, want)
		}
	}
}
