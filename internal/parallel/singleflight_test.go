package parallel_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

// TestGroupCollapsesConcurrentCallers: one compute per key, every caller
// gets the one value, exactly one caller reports leader. The callers use
// the hooks the production callers use — lookup reads a cache, publish
// fills it — because a caller with no cache that arrives after the flight
// retired starts a new flight by design. With the hooks, a caller whose
// goroutine starts late is served by the cache or by the double-checked
// lookup instead, however the scheduler orders the callers.
func TestGroupCollapsesConcurrentCallers(t *testing.T) {
	var g parallel.Group[int]
	var cache atomic.Pointer[int]
	lookup := func() (int, bool) {
		if p := cache.Load(); p != nil {
			return *p, true
		}
		return 0, false
	}
	publish := func(v int) { cache.Store(&v) }
	var computes, leaders atomic.Int64
	gate := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, leader, err := g.Do("k", lookup, nil, func() (int, error) {
				computes.Add(1)
				<-gate
				return 42, nil
			}, publish)
			if leader {
				leaders.Add(1)
			}
			if err != nil || v != 42 {
				t.Errorf("v=%d err=%v", v, err)
			}
		}()
	}
	// Let the flight form, then release it, so the callers that have
	// started by then join an in-progress flight.
	for g.Len() == 0 {
	}
	close(gate)
	wg.Wait()
	if computes.Load() != 1 || leaders.Load() != 1 {
		t.Fatalf("computes=%d leaders=%d, want 1/1", computes.Load(), leaders.Load())
	}
	if g.Len() != 0 {
		t.Fatalf("flight not retired: Len=%d", g.Len())
	}
}

// TestGroupLookupShortCircuits: a lookup hit returns without computing and
// without leadership.
func TestGroupLookupShortCircuits(t *testing.T) {
	var g parallel.Group[string]
	v, leader, err := g.Do("k",
		func() (string, bool) { return "cached", true },
		nil,
		func() (string, error) { t.Fatal("compute ran despite a lookup hit"); return "", nil },
		nil,
	)
	if v != "cached" || leader || err != nil {
		t.Fatalf("v=%q leader=%v err=%v", v, leader, err)
	}
}

// TestGroupDoubleCheckedLookup: lookup is consulted again at the moment a
// caller becomes leader, so a value published between the first miss and
// flight creation is served instead of recomputed. (For the engine pool a
// recompute here would be a second private measurement.)
func TestGroupDoubleCheckedLookup(t *testing.T) {
	var g parallel.Group[int]
	var cache atomic.Int64
	calls := 0
	v, leader, err := g.Do("k",
		func() (int, bool) {
			calls++
			if calls == 1 {
				// First lookup misses; simulate a racing leader publishing
				// before this caller creates its flight.
				cache.Store(7)
				return 0, false
			}
			return int(cache.Load()), true
		},
		nil,
		func() (int, error) { t.Fatal("compute ran despite the re-checked lookup hit"); return 0, nil },
		nil,
	)
	if v != 7 || leader || err != nil {
		t.Fatalf("v=%d leader=%v err=%v", v, leader, err)
	}
	if calls != 2 {
		t.Fatalf("lookup ran %d times, want 2 (miss, then re-check on leadership)", calls)
	}
	if g.Len() != 0 {
		t.Fatal("flight not retired after lookup-completed flight")
	}
}

// TestGroupAdmitRejects: admit sees the count of other active flights and
// its error rejects without computing.
func TestGroupAdmitRejects(t *testing.T) {
	var g parallel.Group[int]
	full := errors.New("full")
	gate := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = g.Do("other", nil, nil, func() (int, error) { <-gate; return 0, nil }, nil)
	}()
	for g.Len() == 0 {
	}
	var sawInflight int
	_, _, err := g.Do("k", nil,
		func(inflight int) error { sawInflight = inflight; return full },
		func() (int, error) { t.Fatal("compute ran despite admit rejection"); return 0, nil },
		nil,
	)
	if !errors.Is(err, full) || sawInflight != 1 {
		t.Fatalf("err=%v inflight=%d, want full/1", err, sawInflight)
	}
	close(gate)
	<-done
}

// TestGroupPublishBeforeRetire: publish runs before the flight retires, so
// a caller arriving at ANY point after a successful compute — joining the
// live flight or looking up after retirement — sees the value and never
// recomputes. (A recompute in that window is the pool's doubled-ε bug.)
// Publish must not run at all on error.
func TestGroupPublishBeforeRetire(t *testing.T) {
	var g parallel.Group[int]
	var cache atomic.Int64 // 0 = unpublished
	lookup := func() (int, bool) {
		v := cache.Load()
		return int(v), v != 0
	}
	gate := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = g.Do("k", lookup, nil, func() (int, error) { <-gate; return 5, nil },
			func(v int) { cache.Store(int64(v)) })
	}()
	for g.Len() == 0 {
	}
	const racers = 8
	for c := 0; c < racers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, leader, err := g.Do("k", lookup, nil, func() (int, error) {
				return 0, errors.New("recompute after publish")
			}, nil)
			if v != 5 || leader || err != nil {
				t.Errorf("racer: v=%d leader=%v err=%v", v, leader, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if cache.Load() != 5 {
		t.Fatal("publish did not run")
	}

	boom := errors.New("boom")
	_, _, err := g.Do("e", nil, nil, func() (int, error) { return 9, boom },
		func(int) { t.Fatal("publish ran for a failed compute") })
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want boom", err)
	}
}

// TestGroupPanicPropagatesAndUnwedges: a panicking compute reaches its own
// caller as a panic, delivers an error to waiters, and retires the flight
// so the key stays usable.
func TestGroupPanicPropagatesAndUnwedges(t *testing.T) {
	var g parallel.Group[int]
	gate := make(chan struct{})
	waited := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		_, _, _ = g.Do("k", nil, nil, func() (int, error) { <-gate; panic("boom") }, nil)
	}()
	for g.Len() == 0 {
	}
	go func() {
		_, _, err := g.Do("k", nil, nil, func() (int, error) { return 0, nil }, nil)
		waited <- err
	}()
	// Second caller must be in the wait path before the panic fires; give
	// it a moment to join the flight. (If it instead becomes a fresh
	// leader after retirement, err is nil — also acceptable: either way
	// the key did not wedge.)
	close(gate)
	err := <-waited
	if err != nil && err.Error() != `parallel: computing "k" panicked` {
		t.Fatalf("waiter err = %v", err)
	}
	v, leader, err := g.Do("k", nil, nil, func() (int, error) { return 1, nil }, nil)
	if v != 1 || !leader || err != nil {
		t.Fatalf("key wedged after panic: v=%d leader=%v err=%v", v, leader, err)
	}
	if g.Len() != 0 {
		t.Fatal("flight leaked after panic")
	}
}
