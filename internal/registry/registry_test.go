package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

func testRecord(n int) *Record {
	return &Record{Strategy: &core.IdentityStrategy{N: n}, Err: float64(n), Operator: "Identity"}
}

// TestDiskPersistence: a record Put by one registry is visible to a fresh
// registry opened on the same directory — the cross-process reuse path.
func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	r1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Put("k1", testRecord(42)); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok, err := r2.Get("k1")
	if err != nil || !ok {
		t.Fatalf("Get after reopen: ok=%v err=%v", ok, err)
	}
	if rec.Strategy.(*core.IdentityStrategy).N != 42 {
		t.Fatalf("wrong record from disk: %+v", rec)
	}
}

// TestMemoryOnly: with no directory the registry works purely in memory.
func TestMemoryOnly(t *testing.T) {
	r, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := r.Get("missing"); ok {
		t.Fatal("hit on empty registry")
	}
	if err := r.Put("k", testRecord(7)); err != nil {
		t.Fatal(err)
	}
	rec, ok, err := r.Get("k")
	if err != nil || !ok || rec.Strategy.(*core.IdentityStrategy).N != 7 {
		t.Fatalf("memory get: rec=%+v ok=%v err=%v", rec, ok, err)
	}
}

// TestLRUEviction: the in-memory cache holds at most its capacity, evicting
// least-recently-used keys — but evicted entries are still served from disk.
func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.Put("a", testRecord(1))
	r.Put("b", testRecord(2))
	r.Get("a") // refresh a; b is now LRU
	r.Put("c", testRecord(3))
	if r.Len() != 2 {
		t.Fatalf("LRU holds %d entries, capacity 2", r.Len())
	}
	// b was evicted from memory but must still load from disk.
	rec, ok, err := r.Get("b")
	if err != nil || !ok || rec.Strategy.(*core.IdentityStrategy).N != 2 {
		t.Fatalf("evicted entry lost: rec=%+v ok=%v err=%v", rec, ok, err)
	}
}

// TestGetCorruptBlob: Get surfaces an error — not a panic, not a silent
// miss — when the on-disk blob is corrupted.
func TestGetCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad"+fileExt), []byte("not a strategy"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := r.Get("bad"); ok || err == nil {
		t.Fatalf("corrupt blob: ok=%v err=%v, want miss with error", ok, err)
	}
}

// TestGetOrComputeRecoversCorruption: a corrupted disk blob is recomputed
// and overwritten, healing the store.
func TestGetOrComputeRecoversCorruption(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(r.Path("k"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, fromCache, err := r.GetOrCompute("k", func() (*Record, error) { return testRecord(9), nil })
	if err != nil || fromCache {
		t.Fatalf("GetOrCompute over corrupt blob: fromCache=%v err=%v", fromCache, err)
	}
	if rec.Strategy.(*core.IdentityStrategy).N != 9 {
		t.Fatalf("wrong recomputed record: %+v", rec)
	}
	// The healed blob now loads cleanly in a fresh registry.
	r2, _ := Open(dir, 0)
	if _, ok, err := r2.Get("k"); !ok || err != nil {
		t.Fatalf("store not healed: ok=%v err=%v", ok, err)
	}
}

// unencodableStrategy implements core.Strategy but is not a codec kind, so
// Put fails on it while the strategy itself is perfectly servable.
type unencodableStrategy struct{ core.Strategy }

// TestGetOrComputeBestEffortPersist: when the computed strategy cannot be
// persisted, GetOrCompute still returns it (kept in memory) — a configured
// cache must not make serving fail where no cache would succeed.
func TestGetOrComputeBestEffortPersist(t *testing.T) {
	r, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{Strategy: unencodableStrategy{&core.IdentityStrategy{N: 3}}, Err: 1, Operator: "?"}
	got, fromCache, err := r.GetOrCompute("k", func() (*Record, error) { return rec, nil })
	if err != nil || fromCache || got != rec {
		t.Fatalf("best-effort persist: got=%p fromCache=%v err=%v", got, fromCache, err)
	}
	// Served from memory on the next call; nothing reached disk.
	got2, fromCache2, err := r.GetOrCompute("k", func() (*Record, error) {
		t.Error("recomputed despite memory entry")
		return rec, nil
	})
	if err != nil || !fromCache2 || got2 != rec {
		t.Fatalf("memory reuse after failed persist: fromCache=%v err=%v", fromCache2, err)
	}
	if _, statErr := os.Stat(r.Path("k")); !os.IsNotExist(statErr) {
		t.Error("unencodable strategy unexpectedly reached disk")
	}
}

// TestGetOrComputeSingleflight: concurrent misses on one key run the
// compute function exactly once; everyone gets that result.
func TestGetOrComputeSingleflight(t *testing.T) {
	r, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	const goroutines = 16
	results := make([]*Record, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			rec, _, err := r.GetOrCompute("shared", func() (*Record, error) {
				computes.Add(1)
				return testRecord(5), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = rec
		}(g)
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for g, rec := range results {
		if rec != results[0] {
			t.Fatalf("goroutine %d got a different record instance", g)
		}
	}
}

// TestAccessors: Dir/Path expose the store location; memory-only
// registries have neither.
func TestAccessors(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dir() != dir {
		t.Errorf("Dir() = %q, want %q", r.Dir(), dir)
	}
	if want := filepath.Join(dir, "k"+fileExt); r.Path("k") != want {
		t.Errorf("Path(k) = %q, want %q", r.Path("k"), want)
	}
	m, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dir() != "" || m.Path("k") != "" {
		t.Errorf("memory-only registry reports a location: %q %q", m.Dir(), m.Path("k"))
	}
}

// TestPutOverwrite: re-putting a key replaces the record in memory and on
// disk without growing the LRU.
func TestPutOverwrite(t *testing.T) {
	r, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r.Put("k", testRecord(1))
	r.Put("k", testRecord(2))
	if r.Len() != 1 {
		t.Fatalf("LRU grew to %d entries on overwrite", r.Len())
	}
	rec, ok, err := r.Get("k")
	if err != nil || !ok || rec.Strategy.(*core.IdentityStrategy).N != 2 {
		t.Fatalf("overwrite lost: rec=%+v ok=%v err=%v", rec, ok, err)
	}
	r2, _ := Open(r.Dir(), 0)
	rec, ok, err = r2.Get("k")
	if err != nil || !ok || rec.Strategy.(*core.IdentityStrategy).N != 2 {
		t.Fatalf("disk overwrite lost: rec=%+v ok=%v err=%v", rec, ok, err)
	}
}

// TestPutUnwritableDir: disk failures surface as errors, not panics.
func TestPutUnwritableDir(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if os.Getuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	if err := r.Put("k", testRecord(1)); err == nil {
		t.Error("Put into unwritable dir succeeded")
	}
	// A failed persist must not leave a memory entry that would mask the
	// failure from retries.
	if _, ok, _ := r.Get("k"); ok {
		t.Error("failed Put left the record cached in memory")
	}
}

// TestSharedByDir: Shared returns one instance per directory, so all
// callers against a store share one cache and one singleflight domain.
func TestSharedByDir(t *testing.T) {
	dir := t.TempDir()
	a, err := Shared(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Shared(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Shared returned distinct registries for one directory")
	}
	c, err := Shared(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("Shared returned one registry for two directories")
	}
	// Path spellings of one directory share an instance.
	d, err := Shared(dir + string(filepath.Separator) + ".")
	if err != nil {
		t.Fatal(err)
	}
	if d != a {
		t.Error("Shared returned distinct registries for two spellings of one directory")
	}
}

// TestGetOrComputeError: compute failures propagate and are not cached — a
// later call retries.
func TestGetOrComputeError(t *testing.T) {
	r, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.GetOrCompute("k", func() (*Record, error) {
		return nil, fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("compute error not propagated")
	}
	rec, fromCache, err := r.GetOrCompute("k", func() (*Record, error) { return testRecord(3), nil })
	if err != nil || fromCache || rec.Strategy.(*core.IdentityStrategy).N != 3 {
		t.Fatalf("retry after error: rec=%+v fromCache=%v err=%v", rec, fromCache, err)
	}
}
