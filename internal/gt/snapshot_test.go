package gt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestStoreConcurrentAddSaveLoad hammers one database from many
// goroutines — adders (concurrent jobs feeding trials), lookups and
// snapshotters — then verifies a final SaveFile/LoadFile round-trip
// reproduces the entries exactly. Runs against both subjects.
func TestStoreConcurrentAddSaveLoad(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		dir := t.TempDir()
		path := filepath.Join(dir, "gt.json")

		const (
			adders   = 8
			perAdder = 25
		)
		var wg sync.WaitGroup
		for a := 0; a < adders; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				for i := 0; i < perAdder; i++ {
					if err := s.Add(gtEntry(a*perAdder + i)); err != nil {
						t.Errorf("Add: %v", err)
						return
					}
					// Interleave the operations concurrent jobs perform.
					s.Lookup([]float64{float64(i), 1, 2, 3})
					if i%5 == 0 {
						if _, err := SaveFile(s, path); err != nil {
							t.Errorf("SaveFile: %v", err)
							return
						}
					}
				}
			}(a)
		}
		wg.Wait()
		if got := s.Len(); got != adders*perAdder {
			t.Fatalf("lost entries under concurrency: %d, want %d", got, adders*perAdder)
		}

		rev, err := SaveFile(s, path)
		if err != nil {
			t.Fatal(err)
		}
		if rev != s.Rev() {
			t.Errorf("final snapshot rev %d != database rev %d", rev, s.Rev())
		}
		restored := restoredPeer(t, s, 1)
		if err := LoadFile(restored, path); err != nil {
			t.Fatal(err)
		}
		if restored.Len() != s.Len() {
			t.Fatalf("round-trip lost entries: %d, want %d", restored.Len(), s.Len())
		}
		if !reflect.DeepEqual(restored.Entries(), s.Entries()) {
			t.Error("restored database differs from the original")
		}
	})
}

// TestSnapshotNeverHalfWritten verifies the write-to-temp + rename
// protocol: while writers continuously snapshot a mutating database,
// every read of the target path parses as complete JSON — a reader can
// never observe a partially written snapshot.
func TestSnapshotNeverHalfWritten(t *testing.T) {
	s := NewSharded(DefaultConfig(), 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "gt.json")
	if _, err := SaveFile(s, path); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: grow + snapshot in a tight loop
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Add(gtEntry(i)); err != nil {
				t.Errorf("Add: %v", err)
				return
			}
			if _, err := SaveFile(s, path); err != nil {
				t.Errorf("SaveFile: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		var snap struct {
			Entries []Entry `json:"entries"`
		}
		if err := json.Unmarshal(buf, &snap); err != nil {
			t.Fatalf("read %d observed a half-written snapshot: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	// The temp files of completed snapshots must all be gone.
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("leftover temp files after snapshots: %v", matches)
	}
}

// TestSaveFileFailureLeavesTargetIntact points SaveFile at an unwritable
// location and checks the existing snapshot is untouched.
func TestSaveFileFailureLeavesTargetIntact(t *testing.T) {
	s := NewSharded(DefaultConfig(), 1)
	if err := s.Add(gtEntry(1)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "gt.json")
	if _, err := SaveFile(s, path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SaveFile(s, filepath.Join(dir, "missing", "gt.json")); err == nil {
		t.Fatal("SaveFile into a missing directory succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("failed SaveFile disturbed the existing snapshot")
	}
}

// TestLoadFileMissing verifies first-boot semantics: a missing snapshot
// is not an error and leaves the database empty.
func TestLoadFileMissing(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		if err := LoadFile(s, filepath.Join(t.TempDir(), "absent.json")); err != nil {
			t.Fatalf("missing snapshot: %v", err)
		}
		if s.Len() != 0 {
			t.Fatalf("empty boot has %d entries", s.Len())
		}
	})
}

// BenchmarkGroundTruthSaveFile measures the atomic snapshot cost at a
// realistic database size.
func BenchmarkGroundTruthSaveFile(b *testing.B) {
	s := NewSharded(DefaultConfig(), 1)
	for i := 0; i < 256; i++ {
		if err := s.Add(gtEntry(i)); err != nil {
			b.Fatal(err)
		}
	}
	path := filepath.Join(b.TempDir(), "gt.json")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SaveFile(s, path); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()), "bytes/snapshot")
}
