package gt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pipetune/internal/params"
)

func TestStoreMissesWhenEmpty(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		if _, ok := s.Lookup(featuresOf(t, lenetMNIST, 1)); ok {
			t.Fatal("empty database returned a hit")
		}
		hits, misses := s.Stats()
		if hits != 0 || misses != 1 {
			t.Fatalf("stats = %d/%d, want 0/1", hits, misses)
		}
	})
}

func TestStoreHitAfterSimilarEntries(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		best := params.SysConfig{Cores: 4, MemoryGB: 8}
		// Populate with two families so k=2 clustering is meaningful.
		for i := 0; i < 4; i++ {
			if err := s.Add(Entry{Features: featuresOf(t, lenetMNIST, uint64(i)), BestSys: best, Metric: 100}); err != nil {
				t.Fatal(err)
			}
			if err := s.Add(Entry{Features: featuresOf(t, cnnNews, uint64(i)), BestSys: params.SysConfig{Cores: 8, MemoryGB: 32}, Metric: 200}); err != nil {
				t.Fatal(err)
			}
		}
		cfg, ok := s.Lookup(featuresOf(t, lenetMNIST, 99))
		if !ok {
			t.Fatal("similar profile missed")
		}
		if cfg != best {
			t.Fatalf("hit returned %v, want %v", cfg, best)
		}
		// The other family resolves to its own configuration.
		cfg2, ok := s.Lookup(featuresOf(t, cnnNews, 99))
		if !ok {
			t.Fatal("second family missed")
		}
		if cfg2 == best {
			t.Fatal("families not separated")
		}
	})
}

func TestStoreAddValidation(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		if err := s.Add(Entry{Features: nil, BestSys: params.DefaultSysConfig()}); err == nil {
			t.Fatal("featureless entry accepted")
		}
		if err := s.Add(Entry{Features: []float64{1}, BestSys: params.SysConfig{}}); err == nil {
			t.Fatal("invalid config accepted")
		}
		if s.Len() != 0 || s.Rev() != 0 {
			t.Fatalf("rejected entries mutated the store: len=%d rev=%d", s.Len(), s.Rev())
		}
	})
}

// restoredPeer builds an empty store of the same implementation.
func restoredPeer(t *testing.T, s Store, seed uint64) Store {
	switch s.(type) {
	case *Sharded:
		return NewSharded(DefaultConfig(), seed)
	case *Persistent:
		return persistentOver(t, NewSharded(DefaultConfig(), seed))
	}
	panic(fmt.Sprintf("unknown store %T", s))
}

func TestStoreSaveLoad(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		for i := 0; i < 4; i++ {
			_ = s.Add(Entry{Features: featuresOf(t, lenetMNIST, uint64(i)), BestSys: params.SysConfig{Cores: 4, MemoryGB: 8}, Metric: 1})
			_ = s.Add(Entry{Features: featuresOf(t, cnnNews, uint64(i)), BestSys: params.SysConfig{Cores: 16, MemoryGB: 32}, Metric: 1})
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		restored := restoredPeer(t, s, 2)
		if err := restored.Load(&buf); err != nil {
			t.Fatal(err)
		}
		if restored.Len() != s.Len() {
			t.Fatalf("restored %d entries, want %d", restored.Len(), s.Len())
		}
		if !reflect.DeepEqual(restored.Entries(), s.Entries()) {
			t.Fatal("restored entries differ (or lost insertion order)")
		}
		// A warm-started database must serve hits immediately (§5.4).
		if _, ok := restored.Lookup(featuresOf(t, lenetMNIST, 50)); !ok {
			t.Fatal("warm-started database missed")
		}
		if err := restored.Load(bytes.NewBufferString("junk")); err == nil {
			t.Fatal("garbage accepted")
		}
	})
}

// TestStoreLoadLegacyFormat feeds both subjects a pre-WAL snapshot (the
// JSON shape the original single-model store wrote — entries only, no
// seq field): migration requires it to load unchanged.
func TestStoreLoadLegacyFormat(t *testing.T) {
	legacy := `{"entries":[` +
		`{"features":[1,2,3],"bestSys":{"cores":4,"memoryGB":8},"metric":0.9},` +
		`{"features":[10,20,30],"bestSys":{"cores":16,"memoryGB":32},"metric":0.7}]}` + "\n"
	eachStore(t, func(t *testing.T, s Store) {
		if err := s.Load(strings.NewReader(legacy)); err != nil {
			t.Fatalf("legacy snapshot rejected: %v", err)
		}
		if s.Len() != 2 {
			t.Fatalf("legacy snapshot loaded %d entries, want 2", s.Len())
		}
		got := s.Entries()
		if got[0].Metric != 0.9 || got[1].BestSys != (params.SysConfig{Cores: 16, MemoryGB: 32}) {
			t.Fatalf("legacy entries mangled: %+v", got)
		}
	})
}

// TestStoreSaveIsLegacyCompatible pins the Save wire format: no seq field
// leaks into plain snapshots, so files written today stay loadable by any
// legacy-format reader.
func TestStoreSaveIsLegacyCompatible(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		if err := s.Add(gtEntry(1)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
			t.Fatal(err)
		}
		if _, ok := raw["seq"]; ok {
			t.Fatal("plain Save leaked the WAL seq field")
		}
		if _, ok := raw["entries"]; !ok {
			t.Fatal("snapshot missing entries")
		}
	})
}

// TestDeferredRefitMatchesEager is the incremental-maintenance
// equivalence proof: a store whose model is refit lazily (lookups only at
// the end) must answer every probe exactly like one that was forced to
// refit after every single Add — the revision watermark changes when the
// refit happens, never its outcome.
func TestDeferredRefitMatchesEager(t *testing.T) {
	const families, perFamily = 3, 12
	build := func(eager bool) *Sharded {
		s := NewSharded(DefaultConfig(), 7)
		for i := 0; i < perFamily; i++ {
			for f := 0; f < families; f++ {
				if err := s.Add(familyEntry(f, i, families)); err != nil {
					t.Fatal(err)
				}
				if eager {
					// Force the refit immediately, as the old design did.
					s.Lookup(familyEntry(f, i, families).Features)
				}
			}
		}
		return s
	}
	eager, deferred := build(true), build(false)

	for f := 0; f < families; f++ {
		for i := 0; i < perFamily+5; i++ {
			q := familyEntry(f, i, families).Features
			ec, eok := eager.Lookup(q)
			dc, dok := deferred.Lookup(q)
			if eok != dok || ec != dc {
				t.Fatalf("family %d query %d: eager=(%v,%v) deferred=(%v,%v)",
					f, i, ec, eok, dc, dok)
			}
		}
	}
	// After the probes both stores' models cover every entry.
	ei, di := eager.Info(), deferred.Info()
	if ei.Shards != di.Shards {
		t.Fatalf("shard layouts diverged: eager %d, deferred %d", ei.Shards, di.Shards)
	}
	if di.ModelRev != di.Rev {
		t.Fatalf("deferred store left stale models behind the watermark: model %d, rev %d",
			di.ModelRev, di.Rev)
	}
}

func TestStoreRev(t *testing.T) {
	eachStore(t, func(t *testing.T, s Store) {
		if s.Rev() != 0 {
			t.Fatalf("fresh rev = %d", s.Rev())
		}
		for i := 1; i <= 3; i++ {
			if err := s.Add(gtEntry(i)); err != nil {
				t.Fatal(err)
			}
			if s.Rev() != uint64(i) {
				t.Fatalf("rev after %d adds = %d", i, s.Rev())
			}
		}
		var buf strings.Builder
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if s.Rev() != 3 {
			t.Errorf("Save mutated rev to %d", s.Rev())
		}
		before := s.Rev()
		if err := s.Load(strings.NewReader(buf.String())); err != nil {
			t.Fatal(err)
		}
		if s.Rev() <= before {
			t.Errorf("rev after Load = %d, want > %d", s.Rev(), before)
		}
	})
}

// TestShardedReplaceKeepsWatermarkInvariant pins the Rev/ModelRev
// contract across Replace: after restoring a snapshot and warming every
// shard's model, ModelRev must equal Rev exactly (and never exceed it in
// between) — the watermark comparison stats consumers rely on.
func TestShardedReplaceKeepsWatermarkInvariant(t *testing.T) {
	s := NewSharded(DefaultConfig(), 1)
	var entries []Entry
	for i := 0; i < 10; i++ {
		e := gtEntry(i)
		entries = append(entries, e)
		if err := s.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Replace(entries); err != nil {
		t.Fatal(err)
	}
	if info := s.Info(); info.ModelRev > info.Rev {
		t.Fatalf("after Replace: modelRev %d > rev %d", info.ModelRev, info.Rev)
	}
	// Warm every shard model.
	for _, e := range entries {
		s.Lookup(e.Features)
	}
	if info := s.Info(); info.ModelRev != info.Rev {
		t.Fatalf("after warming: modelRev %d != rev %d", info.ModelRev, info.Rev)
	}
	// Adds after a Replace keep the invariant moving in lockstep.
	if err := s.Add(gtEntry(100)); err != nil {
		t.Fatal(err)
	}
	s.Lookup(gtEntry(100).Features)
	if info := s.Info(); info.ModelRev != info.Rev {
		t.Fatalf("after post-Replace add: modelRev %d != rev %d", info.ModelRev, info.Rev)
	}
}
