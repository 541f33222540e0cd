package gt

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// openTestPersistent opens a persistent store over a fresh sharded inner.
func openTestPersistent(t testing.TB, path string, opt PersistOptions) *Persistent {
	t.Helper()
	p, err := OpenPersistent(path, NewSharded(DefaultConfig(), 1), opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPersistentRecoversFromWALAlone verifies the core WAL property: adds
// are durable the moment Add returns, with no snapshot ever written —
// reopening replays the log on top of an absent snapshot.
func TestPersistentRecoversFromWALAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gt.json")
	p := openTestPersistent(t, path, PersistOptions{})
	var want []Entry
	for i := 0; i < 10; i++ {
		e := gtEntry(i)
		if err := p.Add(e); err != nil {
			t.Fatal(err)
		}
		want = append(want, e.clone())
	}
	// No Compact, no Close: simulate a hard crash by just reopening.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("snapshot written without compaction")
	}
	p2 := openTestPersistent(t, path, PersistOptions{})
	defer p2.Close()
	if !reflect.DeepEqual(p2.Entries(), want) {
		t.Fatalf("WAL replay lost entries: got %d, want %d", p2.Len(), len(want))
	}
}

// TestPersistentCompaction verifies the record-count trigger: the WAL
// folds into a snapshot at CompactEvery, the log resets, and recovery
// from snapshot+empty-log equals recovery from log alone.
func TestPersistentCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gt.json")
	p := openTestPersistent(t, path, PersistOptions{CompactEvery: 5})
	for i := 0; i < 12; i++ {
		if err := p.Add(gtEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	// 12 adds with CompactEvery=5: two compactions, 2 records left.
	if got := p.WALRecords(); got != 2 {
		t.Fatalf("WAL holds %d records, want 2", got)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	want := p.Entries()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := openTestPersistent(t, path, PersistOptions{CompactEvery: 5})
	defer p2.Close()
	if !reflect.DeepEqual(p2.Entries(), want) {
		t.Fatal("snapshot+WAL recovery diverged from pre-restart state")
	}
	if got := p2.WALRecords(); got != 0 {
		t.Fatalf("Close left %d WAL records uncompacted", got)
	}
}

// TestPersistentLoadsLegacySnapshot points the persistence layer at a
// pre-refactor groundtruth.json (written by the old SaveFile: entries
// only, no seq, no WAL) — the migration path. It must load fully and then
// operate normally.
func TestPersistentLoadsLegacySnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gt.json")
	legacy := NewSharded(DefaultConfig(), 1)
	for i := 0; i < 8; i++ {
		if err := legacy.Add(gtEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := legacy.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	p := openTestPersistent(t, path, PersistOptions{CompactEvery: 4})
	defer p.Close()
	if !reflect.DeepEqual(p.Entries(), legacy.Entries()) {
		t.Fatalf("legacy snapshot loaded %d entries, want %d", p.Len(), legacy.Len())
	}
	// The store keeps working (and WAL-ing) on top of migrated state.
	for i := 8; i < 14; i++ {
		if err := p.Add(gtEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if p.Len() != 14 {
		t.Fatalf("adds after migration: len=%d, want 14", p.Len())
	}
}

// TestPersistentSkipsRecordsBelowSnapshotSeq simulates a crash between
// "snapshot renamed" and "WAL reset": the log still holds records the
// snapshot already folded in. Replay must skip them (no duplicates).
func TestPersistentSkipsRecordsBelowSnapshotSeq(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gt.json")
	p := openTestPersistent(t, path, PersistOptions{})
	for i := 0; i < 6; i++ {
		if err := p.Add(gtEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := p.Entries()
	// Write the snapshot by hand at the current watermark, but leave the
	// WAL untouched — exactly the crash window.
	if err := writeFileAtomic(path, func(w io.Writer) error {
		return saveEntries(w, want, 6)
	}); err != nil {
		t.Fatal(err)
	}
	_ = p.wal.close() // drop the handle without compacting

	p2 := openTestPersistent(t, path, PersistOptions{})
	defer p2.Close()
	if p2.Len() != len(want) {
		t.Fatalf("replay duplicated snapshot records: len=%d, want %d", p2.Len(), len(want))
	}
	if !reflect.DeepEqual(p2.Entries(), want) {
		t.Fatal("recovered entries diverged")
	}
}

// TestPersistentCrashSafetyProperty is the crash-safety property test:
// for a WAL-backed store with a known entry sequence, ANY truncation of
// the log tail and ANY single-byte corruption must (a) be detected, (b)
// recover a strict prefix of the original entries, and (c) never lose
// entries covered by the snapshot or the undamaged log prefix.
func TestPersistentCrashSafetyProperty(t *testing.T) {
	const total = 20
	const snapshotAt = 8 // entries folded into the snapshot before damage
	dir := t.TempDir()
	path := filepath.Join(dir, "gt.json")

	p := openTestPersistent(t, path, PersistOptions{})
	var want []Entry
	for i := 0; i < total; i++ {
		e := gtEntry(i)
		want = append(want, e.clone())
		if err := p.Add(e); err != nil {
			t.Fatal(err)
		}
		if i == snapshotAt-1 {
			if err := p.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	_ = p.wal.close()
	pristineWAL, err := os.ReadFile(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	pristineSnap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	restore := func() {
		if err := os.WriteFile(path, pristineSnap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(WALPath(path), pristineWAL, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, tag string) {
		p2, err := OpenPersistent(path, NewSharded(DefaultConfig(), 1), PersistOptions{})
		if err != nil {
			t.Fatalf("%s: recovery refused: %v", tag, err)
		}
		defer p2.Close()
		got := p2.Entries()
		if len(got) < snapshotAt {
			t.Fatalf("%s: lost snapshot-covered entries: %d < %d", tag, len(got), snapshotAt)
		}
		if len(got) > total {
			t.Fatalf("%s: invented entries: %d > %d", tag, len(got), total)
		}
		if !reflect.DeepEqual(got, want[:len(got)]) {
			t.Fatalf("%s: recovered entries are not a prefix of the original", tag)
		}
	}

	rng := rand.New(rand.NewSource(42))
	t.Run("truncation", func(t *testing.T) {
		for trial := 0; trial < 40; trial++ {
			restore()
			cut := rng.Intn(len(pristineWAL) + 1)
			if err := os.Truncate(WALPath(path), int64(cut)); err != nil {
				t.Fatal(err)
			}
			check(t, "truncate")
		}
	})
	t.Run("corruption", func(t *testing.T) {
		for trial := 0; trial < 40; trial++ {
			restore()
			damaged := append([]byte(nil), pristineWAL...)
			pos := rng.Intn(len(damaged))
			damaged[pos] ^= byte(1 + rng.Intn(255))
			if err := os.WriteFile(WALPath(path), damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			check(t, "corrupt")
		}
	})
	t.Run("missing-wal", func(t *testing.T) {
		restore()
		if err := os.Remove(WALPath(path)); err != nil {
			t.Fatal(err)
		}
		check(t, "missing")
	})
}

// TestPersistentRecoveryTruncatesDamagedTail verifies recovery repairs
// the log: after reopening over a damaged tail, new appends extend the
// valid prefix and a further recovery sees old-prefix + new entries.
func TestPersistentRecoveryTruncatesDamagedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gt.json")
	p := openTestPersistent(t, path, PersistOptions{})
	for i := 0; i < 6; i++ {
		if err := p.Add(gtEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	_ = p.wal.close()
	// Tear the last record in half.
	wal, err := os.ReadFile(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(WALPath(path), int64(len(wal)-7)); err != nil {
		t.Fatal(err)
	}

	p2 := openTestPersistent(t, path, PersistOptions{})
	if p2.Len() != 5 {
		t.Fatalf("recovered %d entries, want 5 (torn 6th dropped)", p2.Len())
	}
	if err := p2.Add(gtEntry(100)); err != nil {
		t.Fatal(err)
	}
	_ = p2.wal.close()

	p3 := openTestPersistent(t, path, PersistOptions{})
	defer p3.Close()
	if p3.Len() != 6 {
		t.Fatalf("appends after repair not recovered: %d, want 6", p3.Len())
	}
	got := p3.Entries()
	if got[5].Features[0] != 100 {
		t.Fatal("repaired log lost the post-recovery append")
	}
}

// TestOpenPersistentKeepsPrewarmedInnerOnFirstBoot verifies first-boot
// semantics with a warm store: no snapshot on disk must not wipe the
// entries the caller already loaded (e.g. Bootstrap before service
// start).
func TestOpenPersistentKeepsPrewarmedInnerOnFirstBoot(t *testing.T) {
	inner := NewSharded(DefaultConfig(), 1)
	for i := 0; i < 5; i++ {
		if err := inner.Add(gtEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := OpenPersistent(filepath.Join(t.TempDir(), "gt.json"), inner, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Len() != 5 {
		t.Fatalf("first boot wiped the pre-warmed store: %d entries, want 5", p.Len())
	}
}

// TestPersistentAddAllBatches verifies the bulk path: one AddAll lands
// every entry, the records replay after a crash, and the WAL holds one
// record per entry (framed in a single write).
func TestPersistentAddAllBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gt.json")
	p := openTestPersistent(t, path, PersistOptions{})
	batch := make([]Entry, 12)
	for i := range batch {
		batch[i] = gtEntry(i)
	}
	n, err := p.AddAll(batch)
	if err != nil || n != 12 {
		t.Fatalf("AddAll = (%d, %v), want (12, nil)", n, err)
	}
	if got := p.WALRecords(); got != 12 {
		t.Fatalf("WAL holds %d records, want 12", got)
	}
	_ = p.wal.close() // crash, no compaction
	p2 := openTestPersistent(t, path, PersistOptions{})
	defer p2.Close()
	if !reflect.DeepEqual(p2.Entries(), p.Entries()) {
		t.Fatal("batched records did not replay")
	}
}
