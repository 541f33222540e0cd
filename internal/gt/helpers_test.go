package gt

import (
	"path/filepath"
	"testing"

	"pipetune/internal/params"
	"pipetune/internal/perf"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

var (
	lenetMNIST = workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	cnnNews    = workload.Workload{Model: workload.CNN, Dataset: workload.News20}
)

// featuresOf produces a realistic profile feature vector for a workload.
func featuresOf(t testing.TB, w workload.Workload, seed uint64) []float64 {
	t.Helper()
	s := perf.NewSampler()
	p, err := s.EpochProfile(xrand.New(seed), workload.TraitsFor(w),
		params.DefaultHyper(), params.DefaultSysConfig(), perf.PhaseTrain, 30)
	if err != nil {
		t.Fatal(err)
	}
	return p.Features()
}

// probeGrid is the test stand-in for core.DefaultProbeConfigs.
func probeGrid() []params.SysConfig {
	return []params.SysConfig{
		{Cores: 4, MemoryGB: 8},
		{Cores: 8, MemoryGB: 8},
		{Cores: 16, MemoryGB: 8},
		{Cores: 4, MemoryGB: 32},
		{Cores: 8, MemoryGB: 32},
		{Cores: 16, MemoryGB: 32},
	}
}

// gtEntry fabricates a distinguishable entry.
func gtEntry(i int) Entry {
	return Entry{
		Features: []float64{float64(i), float64(i % 7), float64(i % 3), 1},
		BestSys:  probeGrid()[i%len(probeGrid())],
		Metric:   0.5 + float64(i%10)/100,
	}
}

// familyEntry fabricates an entry whose features sit in one of nFamilies
// well-separated clusters — the synthetic analogue of distinct workload
// families, for routing and sharding tests.
func familyEntry(family, i, nFamilies int) Entry {
	base := float64(family * 100)
	jitter := float64(i%5) * 0.2
	return Entry{
		Features: []float64{base + jitter, base - jitter, float64(family), 1},
		BestSys:  probeGrid()[family%len(probeGrid())],
		Metric:   0.5,
	}
}

// eachStore runs a subtest against a fresh sharded store and a fresh
// WAL-backed persistent store over one (the store the daemon runs).
func eachStore(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("sharded", func(t *testing.T) { fn(t, NewSharded(DefaultConfig(), 1)) })
	t.Run("persistent", func(t *testing.T) { fn(t, persistentOver(t, NewSharded(DefaultConfig(), 1))) })
}

// persistentOver opens a persistent store over inner in a fresh temporary
// directory, closed when the test ends.
func persistentOver(t testing.TB, inner Store) *Persistent {
	t.Helper()
	p, err := OpenPersistent(filepath.Join(t.TempDir(), "gt.json"), inner, PersistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}
