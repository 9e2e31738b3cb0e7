package snapshot

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/fsx"
)

func testStore(t *testing.T, fsys fsx.FS) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	s.RetryBase = 0 // tests must not sleep
	return s
}

func testSnap(rng *rand.Rand) *Snapshot { return sampleSnapshots(rng)[0] }

// TestStoreSaveLoadRoundTrip: Save persists, Load returns the snapshot
// bit-exactly, counters track the write.
func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s := testStore(t, nil)
	sn := testSnap(rand.New(rand.NewPCG(1, 1)))
	if err := s.Save(sn); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load(sn.Key)
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEqual(t, sn, got)
	st := s.Stats()
	if st.Writes != 1 || st.WriteErrors != 0 || st.Degraded {
		t.Fatalf("stats after clean save: %+v", st)
	}
}

// TestStoreSaveSingleflight: concurrent saves of one key collapse onto a
// single disk write (snapshots are immutable per key).
func TestStoreSaveSingleflight(t *testing.T) {
	s := testStore(t, nil)
	sn := testSnap(rand.New(rand.NewPCG(2, 2)))
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Save(sn); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Writes < 1 || st.Writes > 8 {
		t.Fatalf("writes = %d", st.Writes)
	}
	if _, err := s.Load(sn.Key); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCrashMidWriteLeavesPreviousIntact: a crash at every step of the
// write protocol leaves the previously persisted snapshot loadable, and a
// restarted store recovers it — the central durability claim.
func TestStoreCrashMidWriteLeavesPreviousIntact(t *testing.T) {
	for _, op := range []string{"CreateTemp", "Write", "Sync", "Close", "Rename"} {
		t.Run(op, func(t *testing.T) {
			ffs := fsx.NewFaultFS(nil)
			s := testStore(t, ffs)
			rng := rand.New(rand.NewPCG(3, 3))
			sn := testSnap(rng)
			if err := s.Save(sn); err != nil {
				t.Fatal(err)
			}
			// Same key, "new generation" content (in production the blob is
			// identical; a distinguishable payload proves which one survived).
			sn2 := testSnap(rng)
			sn2.Key = sn.Key
			ffs.Arm(&fsx.Fault{Op: op, Crash: true, AfterBytes: 10})
			if err := s.Save(sn2); !errors.Is(err, fsx.ErrCrashed) {
				t.Fatalf("save during crash: err = %v, want ErrCrashed", err)
			}
			if st := s.Stats(); st.WriteErrors == 0 || !st.Degraded {
				t.Fatalf("crashed write not reflected in stats: %+v", st)
			}

			// "Restart": a fresh store over the real filesystem.
			s2, err := Open(s.Dir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			var recovered []*Snapshot
			n, err := s2.Recover(func(got *Snapshot) error {
				recovered = append(recovered, got)
				return nil
			})
			if err != nil || n != 1 || len(recovered) != 1 {
				t.Fatalf("recover: n=%d err=%v", n, err)
			}
			snapshotsEqual(t, sn, recovered[0])
			if st := s2.Stats(); st.Quarantined != 0 || st.Degraded {
				t.Fatalf("clean previous generation quarantined: %+v", st)
			}
			// The crash's torn temp debris was swept.
			entries, err := os.ReadDir(s.Dir())
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if fsx.IsTempName(e.Name()) {
					t.Fatalf("crash debris %q survived recovery", e.Name())
				}
			}
		})
	}
}

// TestStoreTransientErrorRetries: an error that clears within the retry
// budget costs retries, not the snapshot.
func TestStoreTransientErrorRetries(t *testing.T) {
	ffs := fsx.NewFaultFS(nil, &fsx.Fault{Op: "Sync", Count: 2})
	s := testStore(t, ffs)
	sn := testSnap(rand.New(rand.NewPCG(4, 4)))
	if err := s.Save(sn); err != nil {
		t.Fatalf("save with 2 transient faults and 3 attempts: %v", err)
	}
	st := s.Stats()
	if st.Writes != 1 || st.WriteRetries != 2 || st.WriteErrors != 0 || st.Degraded {
		t.Fatalf("stats: %+v", st)
	}
	if _, err := s.Load(sn.Key); err != nil {
		t.Fatal(err)
	}
}

// TestStorePermanentWriteFailureDegrades: a write that fails through the
// whole retry budget surfaces the error and latches degraded; the engine
// keeps serving from memory (the caller's responsibility), and nothing
// half-written is left where recovery could load it.
func TestStorePermanentWriteFailureDegrades(t *testing.T) {
	ffs := fsx.NewFaultFS(nil, &fsx.Fault{Op: "Rename"})
	s := testStore(t, ffs)
	sn := testSnap(rand.New(rand.NewPCG(5, 5)))
	if err := s.Save(sn); !errors.Is(err, fsx.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	st := s.Stats()
	if st.Writes != 0 || st.WriteErrors != 1 || st.WriteRetries != 2 || !st.Degraded {
		t.Fatalf("stats: %+v", st)
	}
	s2, err := Open(s.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s2.Recover(func(*Snapshot) error { return nil }); n != 0 || err != nil {
		t.Fatalf("recovered %d snapshots from failed writes, want 0 (err=%v)", n, err)
	}
}

// TestStoreRecoverQuarantinesCorruption: corrupted snapshots are moved to
// quarantine (never deleted — and never recomputed, which would spend
// budget), valid ones still recover, and the byte content of the
// quarantined file is preserved for forensics.
func TestStoreRecoverQuarantinesCorruption(t *testing.T) {
	s := testStore(t, nil)
	rng := rand.New(rand.NewPCG(6, 6))
	good := sampleSnapshots(rng)[0]
	bad := sampleSnapshots(rng)[1]
	if err := s.Save(good); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(bad); err != nil {
		t.Fatal(err)
	}
	badPath := s.Path(bad.Key)
	blob, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(badPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(s.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	n, err := s2.Recover(func(sn *Snapshot) error {
		keys = append(keys, sn.Key)
		return nil
	})
	if err != nil || n != 1 || len(keys) != 1 || keys[0] != good.Key {
		t.Fatalf("recover: n=%d keys=%v err=%v", n, keys, err)
	}
	st := s2.Stats()
	if st.Recovered != 1 || st.Quarantined != 1 || !st.Degraded {
		t.Fatalf("stats: %+v", st)
	}
	qBlob, err := os.ReadFile(filepath.Join(s.Dir(), quarantineDir, bad.Key+FileExt))
	if err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if !bytes.Equal(qBlob, blob) {
		t.Fatal("quarantine did not preserve the corrupt bytes")
	}
	if _, err := os.Stat(badPath); !os.IsNotExist(err) {
		t.Fatal("corrupt file still in the store after quarantine")
	}
	// A second recovery pass over the cleaned store is quiet.
	s3, err := Open(s.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s3.Recover(func(*Snapshot) error { return nil }); n != 1 || err != nil {
		t.Fatalf("second pass: n=%d err=%v", n, err)
	}
	if st := s3.Stats(); st.Quarantined != 0 {
		t.Fatalf("second pass re-quarantined: %+v", st)
	}
}

// TestStoreRecoverMixedVersions: a directory holding a version 1 file
// (written before version 2 existed) and a version 2 file recovers both
// and quarantines neither; List verifies both. A v1 snapshot carries paid
// budget, so rejecting it for its version would lose the tenant.
func TestStoreRecoverMixedVersions(t *testing.T) {
	s := testStore(t, nil)
	snaps := sampleSnapshots(rand.New(rand.NewPCG(1, 2)))
	for i, file := range []string{"identity-v1.hdmmsnap", "kron-v2.hdmmsnap"} {
		blob, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.Path(snaps[i].Key), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var adopted []*Snapshot
	n, err := s.Recover(func(sn *Snapshot) error { adopted = append(adopted, sn); return nil })
	if err != nil || n != 2 {
		t.Fatalf("Recover = %d, %v; want 2 adopted", n, err)
	}
	if st := s.Stats(); st.Quarantined != 0 || st.Degraded {
		t.Fatalf("mixed-version recovery: %+v", st)
	}
	for _, sn := range adopted {
		for _, want := range snaps {
			if sn.Key == want.Key {
				snapshotsEqual(t, want, sn)
			}
		}
	}
	entries, err := List(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Err != nil || entries[1].Err != nil {
		t.Fatalf("List = %+v, want two verified entries", entries)
	}
}

// TestStoreRecoverQuarantinesRenamedFile: a snapshot copied under another
// key's name is internally valid but must not serve under the wrong
// handle.
func TestStoreRecoverQuarantinesRenamedFile(t *testing.T) {
	s := testStore(t, nil)
	sn := testSnap(rand.New(rand.NewPCG(7, 7)))
	if err := s.Save(sn); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s.Path(sn.Key), filepath.Join(s.Dir(), "impostor.snap")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(s.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s2.Recover(func(*Snapshot) error { return nil })
	if err != nil || n != 0 {
		t.Fatalf("recover adopted a renamed snapshot: n=%d err=%v", n, err)
	}
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStoreRecoverQuarantinesRejectedAdoption: a snapshot the adopter
// rejects (semantic validation failure) is quarantined, not retried
// forever and never recomputed.
func TestStoreRecoverQuarantinesRejectedAdoption(t *testing.T) {
	s := testStore(t, nil)
	sn := testSnap(rand.New(rand.NewPCG(8, 8)))
	if err := s.Save(sn); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(s.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reject := errors.New("does not fit")
	n, err := s2.Recover(func(*Snapshot) error { return reject })
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	st := s2.Stats()
	if st.Quarantined != 1 || st.Recovered != 0 || !st.Degraded {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStoreRecoverScanFailure: an unreadable directory aborts recovery
// with an error and the degraded flag — the daemon then serves memory-only.
func TestStoreRecoverScanFailure(t *testing.T) {
	ffs := fsx.NewFaultFS(nil, &fsx.Fault{Op: "ReadDir"})
	s := testStore(t, ffs)
	if _, err := s.Recover(func(*Snapshot) error { return nil }); !errors.Is(err, fsx.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !s.Stats().Degraded {
		t.Fatal("scan failure did not latch degraded")
	}
}

// TestStoreSecretPersists: the key-derivation secret survives "restarts"
// (a second Open over the same dir) — without that, idempotent
// re-registration after recovery would derive fresh keys and re-measure.
func TestStoreSecretPersists(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	sec1, err := s1.LoadOrCreateSecret()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	sec2, err := s2.LoadOrCreateSecret()
	if err != nil {
		t.Fatal(err)
	}
	if sec1 != sec2 {
		t.Fatal("secret did not survive the restart")
	}
	var zero [32]byte
	if sec1 == zero {
		t.Fatal("secret is all zeros")
	}
	// A truncated secret file must error, not silently serve guessable keys.
	if err := os.WriteFile(filepath.Join(dir, secretFile), []byte("short"), 0o600); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.LoadOrCreateSecret(); err == nil {
		t.Fatal("truncated secret loaded without error")
	}
}

// TestStoreRejectsUnsafeKeys: traversal-capable keys fail loudly.
func TestStoreRejectsUnsafeKeys(t *testing.T) {
	s := testStore(t, nil)
	sn := testSnap(rand.New(rand.NewPCG(9, 9)))
	for _, key := range []string{"", "../escape", "a/b", "a.b", "k\x00v"} {
		sn.Key = key
		if err := s.Save(sn); err == nil {
			t.Errorf("key %q saved without error", key)
		}
		if _, err := s.Load(key); err == nil {
			t.Errorf("key %q loaded without error", key)
		}
	}
}

// TestList: the inspection path reports valid and corrupt entries without
// quarantining, deleting, or otherwise touching the store.
func TestList(t *testing.T) {
	s := testStore(t, nil)
	rng := rand.New(rand.NewPCG(10, 10))
	good := sampleSnapshots(rng)[0]
	bad := sampleSnapshots(rng)[1]
	if err := s.Save(good); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadOrCreateSecret(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(s.Path(bad.Key))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if err := os.WriteFile(s.Path(bad.Key), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	entries, err := List(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("listed %d entries, want 2 (secret must not be listed)", len(entries))
	}
	var valid, invalid int
	for _, e := range entries {
		if e.Err != nil {
			invalid++
		} else {
			valid++
			if e.Snapshot.Key != good.Key {
				t.Fatalf("valid entry has key %q", e.Snapshot.Key)
			}
		}
		if e.Size == 0 {
			t.Fatalf("entry %s has zero size", e.File)
		}
	}
	if valid != 1 || invalid != 1 {
		t.Fatalf("valid=%d invalid=%d", valid, invalid)
	}
	// Listing is read-only: both files still in place, nothing quarantined.
	if _, err := os.Stat(s.Path(good.Key)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.Path(bad.Key)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), quarantineDir)); !os.IsNotExist(err) {
		t.Fatal("List created a quarantine directory")
	}
}
