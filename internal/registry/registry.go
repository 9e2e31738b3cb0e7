package registry

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/fsx"
	"repro/internal/parallel"
)

// DefaultMemEntries is the in-memory LRU capacity when the caller does not
// set one. Strategies are small (kilobytes), so the default errs generous.
const DefaultMemEntries = 64

// fileExt is the on-disk strategy file suffix; files are named by cache key.
const fileExt = ".strat"

// Registry is a two-level strategy cache: an in-memory LRU in front of an
// optional on-disk store. All methods are safe for concurrent use, and
// GetOrCompute collapses concurrent misses on the same key into a single
// computation (every waiter gets the one result).
type Registry struct {
	dir  string // "" = memory only
	fsys fsx.FS // disk access seam (fault-injectable in tests)

	hits   atomic.Uint64 // lookups served from memory or disk
	misses atomic.Uint64 // lookups that computed (or failed to)

	mu       sync.Mutex
	capacity int
	items    map[string]*list.Element // key -> element whose Value is *entry
	order    *list.List               // front = most recently used

	flights parallel.Group[cached]
}

// Stats is a snapshot of the registry's lookup counters. Every Get and
// GetOrCompute call counts once: a hit when the record came from memory or
// disk (fromCache true), a miss when it had to be computed or the lookup
// failed. Waiters collapsed into another caller's computation count the
// shared outcome, so hits/(hits+misses) is the cache hit ratio as callers
// experienced it.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// Stats returns the registry's lookup counters since construction.
func (r *Registry) Stats() Stats {
	return Stats{Hits: r.hits.Load(), Misses: r.misses.Load()}
}

// count records one lookup outcome.
func (r *Registry) count(fromCache bool) {
	if fromCache {
		r.hits.Add(1)
	} else {
		r.misses.Add(1)
	}
}

type entry struct {
	key string
	rec *Record
}

// cached is the singleflight value of GetOrCompute: the record plus where
// it came from, so waiters collapsed into another caller's flight count
// the shared outcome.
type cached struct {
	rec       *Record
	fromCache bool
}

// shared holds one process-wide Registry per cache directory, so every
// Engine construction and Optimize call against the same store shares one
// LRU and one singleflight domain — in-process reuse works even with no
// disk directory.
var (
	sharedMu   sync.Mutex
	sharedRegs = map[string]*Registry{}
)

// Shared returns the process-wide registry for dir, creating it on first
// use with the default LRU capacity. The instance is keyed by the cleaned
// directory path, so spellings of one directory ("cache" vs "./cache")
// share one cache and one singleflight domain.
func Shared(dir string) (*Registry, error) {
	if dir != "" {
		dir = filepath.Clean(dir)
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if r, ok := sharedRegs[dir]; ok {
		return r, nil
	}
	r, err := Open(dir, 0)
	if err != nil {
		return nil, err
	}
	sharedRegs[dir] = r
	return r, nil
}

// Open creates a registry. dir is the on-disk store directory (created if
// missing; "" keeps the registry memory-only). memEntries bounds the
// in-memory LRU; <= 0 selects DefaultMemEntries. Most callers want Shared
// instead, which reuses one instance per placement process-wide.
func Open(dir string, memEntries int) (*Registry, error) {
	return OpenFS(dir, memEntries, nil)
}

// OpenFS is Open with an explicit filesystem (nil selects the real OS
// filesystem) — the seam the fault-injection tests thread errors, partial
// writes and simulated crashes through.
func OpenFS(dir string, memEntries int, fsys fsx.FS) (*Registry, error) {
	if fsys == nil {
		fsys = fsx.OS{}
	}
	if dir != "" {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("registry: creating store dir: %w", err)
		}
	}
	if memEntries <= 0 {
		memEntries = DefaultMemEntries
	}
	return &Registry{
		dir:      dir,
		fsys:     fsys,
		capacity: memEntries,
		items:    make(map[string]*list.Element),
		order:    list.New(),
	}, nil
}

// Dir returns the on-disk store directory ("" for memory-only registries).
func (r *Registry) Dir() string { return r.dir }

// Len reports the number of in-memory entries (for tests and diagnostics).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.items)
}

// Path returns the on-disk file a key is stored at, or "" if memory-only.
func (r *Registry) Path(key string) string {
	if r.dir == "" {
		return ""
	}
	return filepath.Join(r.dir, key+fileExt)
}

// Get looks a key up in memory, then on disk. It returns (rec, true, nil)
// on a hit, (nil, false, nil) on a clean miss, and (nil, false, err) when a
// disk blob exists but is corrupted or unreadable.
func (r *Registry) Get(key string) (*Record, bool, error) {
	if rec := r.memGet(key); rec != nil {
		r.count(true)
		return rec, true, nil
	}
	if r.dir == "" {
		r.count(false)
		return nil, false, nil
	}
	blob, err := r.fsys.ReadFile(r.Path(key))
	if os.IsNotExist(err) {
		r.count(false)
		return nil, false, nil
	}
	if err != nil {
		r.count(false)
		return nil, false, fmt.Errorf("registry: reading %s: %w", r.Path(key), err)
	}
	rec, err := Decode(blob)
	if err != nil {
		r.count(false)
		return nil, false, fmt.Errorf("registry: %s: %w", r.Path(key), err)
	}
	r.memPut(key, rec)
	r.count(true)
	return rec, true, nil
}

// Put stores a record on disk (if the registry has a directory) and then
// in memory. The disk write goes through the shared crash-safe protocol
// (temp file + fsync + atomic rename), so a concurrent reader — or a
// process recovering after a crash — never observes a half-written
// strategy; the memory insert happens only after the persist succeeds, so
// a failed Put leaves no cached record that would mask the failure from
// retries.
func (r *Registry) Put(key string, rec *Record) error {
	if r.dir == "" {
		r.memPut(key, rec)
		return nil
	}
	blob, err := Encode(rec)
	if err != nil {
		return err
	}
	if err := fsx.WriteAtomic(r.fsys, r.Path(key), blob); err != nil {
		return fmt.Errorf("registry: writing strategy: %w", err)
	}
	r.memPut(key, rec)
	return nil
}

// GetOrCompute returns the cached record for key, computing and storing it
// on a miss. Concurrent callers with the same key share one computation.
// fromCache reports whether the record was served from memory or disk; a
// corrupted disk blob is treated as a miss and overwritten by the fresh
// result. Persistence is best-effort: when the computation succeeds but
// the store cannot hold it (unwritable directory, or a strategy outside
// the codec's bounds), the computed record is still returned and kept in
// memory — a configured cache must never make serving fail where no cache
// would succeed. Use Put directly for strict persistence semantics.
func (r *Registry) GetOrCompute(key string, compute func() (*Record, error)) (rec *Record, fromCache bool, err error) {
	// Every call counts exactly one lookup outcome, including the caller a
	// panicking compute unwinds through (parallel.Group completes the
	// flight for waiters; the panic itself propagates here).
	counted := false
	defer func() {
		if !counted {
			r.count(false)
		}
	}()
	v, _, err := r.flights.Do(key,
		func() (cached, bool) {
			if rec := r.memGet(key); rec != nil {
				return cached{rec: rec, fromCache: true}, true
			}
			return cached{}, false
		},
		nil,
		func() (cached, error) {
			rec, fromCache, err := r.fill(key, compute)
			return cached{rec: rec, fromCache: fromCache}, err
		},
		nil, // fill publishes into the LRU itself (memory insert only after a successful persist)
	)
	counted = true
	r.count(v.fromCache && err == nil)
	return v.rec, v.fromCache, err
}

// fill loads key from disk or computes it, storing the result.
func (r *Registry) fill(key string, compute func() (*Record, error)) (*Record, bool, error) {
	if r.dir != "" {
		if blob, err := r.fsys.ReadFile(r.Path(key)); err == nil {
			if rec, err := Decode(blob); err == nil {
				r.memPut(key, rec)
				return rec, true, nil
			}
			// Corrupted blob: fall through and recompute over it.
		}
	}
	rec, err := compute()
	if err != nil {
		return nil, false, err
	}
	if err := r.Put(key, rec); err != nil {
		// Best-effort persistence: the computation is good, so serve it and
		// keep it in memory rather than failing a call that would have
		// succeeded with no cache configured.
		r.memPut(key, rec)
	}
	return rec, false, nil
}

// memGet returns the in-memory record for key, refreshing its LRU slot.
func (r *Registry) memGet(key string) *Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.items[key]
	if !ok {
		return nil
	}
	r.order.MoveToFront(el)
	return el.Value.(*entry).rec
}

// memPut inserts key into the in-memory LRU, evicting from the back.
func (r *Registry) memPut(key string, rec *Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.items[key]; ok {
		el.Value.(*entry).rec = rec
		r.order.MoveToFront(el)
		return
	}
	r.items[key] = r.order.PushFront(&entry{key: key, rec: rec})
	for len(r.items) > r.capacity {
		back := r.order.Back()
		r.order.Remove(back)
		delete(r.items, back.Value.(*entry).key)
	}
}
