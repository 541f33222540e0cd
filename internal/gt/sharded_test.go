package gt

import (
	"sync"
	"testing"
	"time"
)

// TestShardedSplitsIntoFamilies grows the store past SplitSize with
// well-separated families and checks the shard map partitions them:
// lookups still resolve to per-family configurations, and the store
// reports more than one shard.
func TestShardedSplitsIntoFamilies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SplitSize = 8
	s := NewSharded(cfg, 1)
	const families, perFamily = 4, 16
	for i := 0; i < perFamily; i++ {
		for f := 0; f < families; f++ {
			if err := s.Add(familyEntry(f, i, families)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := s.Info().Shards; got < 2 {
		t.Fatalf("store never sharded: %d shards after %d entries", got, s.Len())
	}
	for f := 0; f < families; f++ {
		q := familyEntry(f, 99, families).Features
		if s.nearest(q) == nil {
			t.Fatalf("family %d routed nowhere", f)
		}
		cfgGot, ok := s.Lookup(q)
		if !ok {
			t.Fatalf("family %d missed after sharding", f)
		}
		want := probeGrid()[f%len(probeGrid())]
		if cfgGot != want {
			t.Fatalf("family %d resolved to %v, want %v", f, cfgGot, want)
		}
	}
	if s.Len() != families*perFamily {
		t.Fatalf("splits lost entries: %d, want %d", s.Len(), families*perFamily)
	}
	// Insertion order must survive the splits.
	entries := s.Entries()
	if len(entries) != families*perFamily {
		t.Fatalf("Entries() lost records: %d", len(entries))
	}
	if entries[0].Features[2] != 0 || entries[1].Features[2] != 1 {
		t.Fatal("Entries() lost insertion order across shards")
	}
}

// TestLookupProceedsDuringInflightAdd is the regression test for the old
// design's defect: GroundTruth.Lookup held the database's one exclusive
// mutex across the full distance computation, so a lookup stalled behind
// any in-flight Add (and its eager refit). Here an Add is simulated
// mid-flight by holding one shard's write lock while lookups run — both
// on a different shard and on the locked shard itself (whose model
// snapshot is current) — and every lookup must complete.
func TestLookupProceedsDuringInflightAdd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SplitSize = 8
	s := NewSharded(cfg, 1)
	const families = 2
	for i := 0; i < 12; i++ {
		for f := 0; f < families; f++ {
			if err := s.Add(familyEntry(f, i, families)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm every shard's model so the hot path has a current snapshot.
	for f := 0; f < families; f++ {
		if _, ok := s.Lookup(familyEntry(f, 0, families).Features); !ok {
			t.Fatalf("family %d missed during warmup", f)
		}
	}

	// Simulate an Add in flight on family 1's shard: Add holds exactly
	// this lock while it appends.
	busy := s.nearest(familyEntry(1, 0, families).Features)
	if busy == nil {
		t.Fatal("no shard for family 1")
	}
	busy.mu.Lock()
	defer busy.mu.Unlock()

	done := make(chan bool, 2)
	go func() {
		_, ok := s.Lookup(familyEntry(0, 3, families).Features) // other shard
		done <- ok
	}()
	go func() {
		_, ok := s.Lookup(familyEntry(1, 3, families).Features) // busy shard, warm model
		done <- ok
	}()
	for i := 0; i < 2; i++ {
		select {
		case ok := <-done:
			if !ok {
				t.Error("lookup missed during in-flight add")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("lookup blocked behind an in-flight Add")
		}
	}
}

// TestShardedConcurrentAddsDontContendAcrossFamilies hammers adds and
// lookups across distinct families concurrently; the store must keep
// every entry, stay race-free (run under -race) and keep serving hits.
func TestShardedConcurrentAddsDontContendAcrossFamilies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SplitSize = 16
	s := NewSharded(cfg, 1)
	const families, perFamily = 4, 50
	// Seed each family so lookups during the storm can hit.
	for f := 0; f < families; f++ {
		for i := 0; i < 4; i++ {
			if err := s.Add(familyEntry(f, i, families)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for f := 0; f < families; f++ {
		wg.Add(2)
		go func(f int) { // adder for this family
			defer wg.Done()
			for i := 4; i < perFamily; i++ {
				if err := s.Add(familyEntry(f, i, families)); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
			}
		}(f)
		go func(f int) { // lookup storm on the same family
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Lookup(familyEntry(f, i, families).Features)
			}
		}(f)
	}
	wg.Wait()
	if s.Len() != families*perFamily {
		t.Fatalf("concurrent adds lost entries: %d, want %d", s.Len(), families*perFamily)
	}
	hits, _ := s.Stats()
	if hits == 0 {
		t.Fatal("no hits during the concurrent storm")
	}
}

// TestNewShardedDefendsConfig pins the constructor trap: a zero
// MinEntries must not leave the store unable to ever fit (it defaults
// like SplitSize/MaxShards do).
func TestNewShardedDefendsConfig(t *testing.T) {
	cfg := Config{KMeans: DefaultConfig().KMeans, Threshold: 2.0} // MinEntries 0
	s := NewSharded(cfg, 1)
	for i := 0; i < 8; i++ {
		if err := s.Add(familyEntry(0, i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Lookup(familyEntry(0, 1, 1).Features); !ok {
		t.Fatal("zero MinEntries left the store permanently unfitted")
	}
}
