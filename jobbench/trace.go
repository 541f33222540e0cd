package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pipetune/api"
	"pipetune/internal/exec"
	"pipetune/internal/gt"
	"pipetune/internal/metrics"
	"pipetune/internal/params"
	"pipetune/internal/trainer"
)

// The traced run times calls into each layer from outside the program:
// decorators over the ground-truth store and the execution backend, the
// program's own metrics read through the client, and serial replays of
// the pure layers over the recorded results (replay.go).

// tracedStore times every Lookup and Add on the System's ground-truth
// store; everything else passes through.
type tracedStore struct {
	gt.Store
	lookups, lookupNs, adds, addNs atomic.Int64
}

func (s *tracedStore) Lookup(features []float64) (params.SysConfig, bool) {
	t0 := time.Now()
	cfg, ok := s.Store.Lookup(features)
	s.lookupNs.Add(int64(time.Since(t0)))
	s.lookups.Add(1)
	return cfg, ok
}

func (s *tracedStore) Add(e gt.Entry) error {
	t0 := time.Now()
	err := s.Store.Add(e)
	s.addNs.Add(int64(time.Since(t0)))
	s.adds.Add(1)
	return err
}

// tracedBackend times every batch the tuning loop hands the execution
// plane.
type tracedBackend struct {
	inner                             exec.Backend
	batches, trials, trialErrs, runNs atomic.Int64
}

func (b *tracedBackend) Name() string { return b.inner.Name() }

func (b *tracedBackend) Run(ctx context.Context, trials []exec.Trial, maxParallel int) ([]*trainer.Result, []error) {
	t0 := time.Now()
	res, errs := b.inner.Run(ctx, trials, maxParallel)
	b.runNs.Add(int64(time.Since(t0)))
	b.batches.Add(1)
	b.trials.Add(int64(len(trials)))
	for _, err := range errs {
		if err != nil {
			b.trialErrs.Add(1)
		}
	}
	return res, errs
}

// localBackend is the local execution plane rebuilt outside the System:
// the System keeps its trainer private, so the decorator's inner backend
// is exec.Local over a trainer built from the configuration each trial
// carries — exactly how a fleet worker rebuilds it. Trials compute the
// same bits; the trainer publishes into the service's registry.
type localBackend struct {
	reg      *metrics.Registry
	mu       sync.Mutex
	trainers map[exec.TrainerConfig]*trainer.Runner
}

func (l *localBackend) Name() string { return "local" }

func (l *localBackend) Run(ctx context.Context, trials []exec.Trial, maxParallel int) ([]*trainer.Result, []error) {
	if len(trials) == 0 {
		return nil, nil
	}
	return exec.NewLocal(l.trainer(trials[0].Trainer)).Run(ctx, trials, maxParallel)
}

func (l *localBackend) trainer(tc exec.TrainerConfig) *trainer.Runner {
	l.mu.Lock()
	defer l.mu.Unlock()
	tr, ok := l.trainers[tc]
	if !ok {
		tr = tc.NewRunner()
		tr.InstrumentMetrics(l.reg)
		l.trainers[tc] = tr
	}
	return tr
}

// cacheStats sums the trial prefix caches of the rebuilt trainers.
func (l *localBackend) cacheStats() trainer.CacheStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	var cs trainer.CacheStats
	for _, tr := range l.trainers {
		if tr.Cache == nil {
			continue
		}
		s := tr.Cache.Stats()
		cs.TrajectoryHits += s.TrajectoryHits
		cs.CheckpointHits += s.CheckpointHits
		cs.FlightHits += s.FlightHits
		cs.Misses += s.Misses
		cs.EpochsSaved += s.EpochsSaved
		cs.EpochsTrained += s.EpochsTrained
		cs.Evictions += s.Evictions
	}
	return cs
}

// tracer owns a traced rig's decorators and the two snapshots that
// bracket its timed phase.
type tracer struct {
	store   *tracedStore
	backend *tracedBackend
	local   *localBackend // nil on the fleet, whose inner backend is exec.Remote
	profile string
	stopCPU func() error
	s0, s1  snapshot
}

// snapshot is everything read at one edge of the timed phase.
type snapshot struct {
	cpu                               float64
	lookups, lookupNs, adds, addNs    int64
	batches, trials, trialErrs, runNs int64
	metrics                           api.MetricsSnapshot
	gt                                api.GroundTruthStats
	cache                             trainer.CacheStats
}

// installTracer wraps the rig's store and backend. It runs right after
// service.New, so on the fleet the store decorator sits over the
// persistent store and the backend decorator over exec.Remote.
func installTracer(r *rig) *tracer {
	t := &tracer{store: &tracedStore{Store: r.sys.GroundTruth()}}
	var inner exec.Backend = r.remote
	if r.remote == nil {
		t.local = &localBackend{reg: r.svc.MetricsRegistry(), trainers: map[exec.TrainerConfig]*trainer.Runner{}}
		inner = t.local
	}
	t.backend = &tracedBackend{inner: inner}
	r.sys.SetGroundTruthStore(t.store)
	r.sys.SetExecBackend(t.backend)
	return t
}

// heartbeatSettle outlasts one worker heartbeat (2s by default), so
// worker-side series shipped on heartbeats are current when read.
const heartbeatSettle = 2500 * time.Millisecond

func (t *tracer) take(r *rig) (snapshot, error) {
	if r.w.Fleet {
		time.Sleep(heartbeatSettle)
	}
	s := snapshot{
		lookups:   t.store.lookups.Load(),
		lookupNs:  t.store.lookupNs.Load(),
		adds:      t.store.adds.Load(),
		addNs:     t.store.addNs.Load(),
		batches:   t.backend.batches.Load(),
		trials:    t.backend.trials.Load(),
		trialErrs: t.backend.trialErrs.Load(),
		runNs:     t.backend.runNs.Load(),
	}
	var err error
	ctx := context.Background()
	if s.metrics, err = r.cl.Metrics(ctx); err != nil {
		return s, err
	}
	if s.gt, err = r.cl.GroundTruth(ctx); err != nil {
		return s, err
	}
	if t.local != nil {
		s.cache = t.local.cacheStats()
	}
	return s, nil
}

// begin snapshots the rig and starts the CPU profile.
func (t *tracer) begin(r *rig) error {
	var err error
	if t.s0, err = t.take(r); err != nil {
		return err
	}
	if t.stopCPU, err = startProfile(t.profile); err != nil {
		return err
	}
	t.s0.cpu = cpuSeconds()
	return nil
}

// end stops the profile and snapshots the rig again.
func (t *tracer) end(r *rig) error {
	cpu := cpuSeconds()
	if err := t.stopCPU(); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var err error
	t.s1, err = t.take(r)
	t.s1.cpu = cpu
	return err
}

// family sums one metric family over its labelled series: the counter
// or gauge value, and a summary's observation count and sum.
func family(snap api.MetricsSnapshot, name string) (value float64, count uint64, sum float64) {
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			value += s.Value
			count += s.Count
			sum += s.Sum
		}
	}
	return value, count, sum
}

// delta is a family's change across the timed phase.
func (t *tracer) delta(name string) (value float64, count float64, sum float64) {
	v0, c0, s0 := family(t.s0.metrics, name)
	v1, c1, s1 := family(t.s1.metrics, name)
	return v1 - v0, float64(c1) - float64(c0), s1 - s0
}

// replayCompactions estimates the time the service spent compacting the
// persistent ground truth: k compactions happened while the store grew
// from e0 to the current entries, so replay up to eight compactions at
// evenly spaced sizes on a scratch persistent store and scale their mean.
// It returns the compactions' busy time and, of that, the part spent
// encoding the snapshot (the rest is writing and syncing it).
func replayCompactions(entries []gt.Entry, e0, k int, tmp string) (busy, encode float64, err error) {
	if k <= 0 || len(entries) == 0 {
		return 0, 0, nil
	}
	dir, err := os.MkdirTemp(tmp, "compact-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	ps, err := gt.OpenPersistent(filepath.Join(dir, "gt.json"), gt.NewSharded(gt.DefaultConfig(), 1),
		gt.PersistOptions{CompactEvery: 1 << 30})
	if err != nil {
		return 0, 0, err
	}
	defer ps.Close()
	e0 = min(e0, len(entries))
	if _, err := ps.AddAll(entries[:e0]); err != nil {
		return 0, 0, err
	}
	m := min(k, 8)
	var busyD, encodeD time.Duration
	have := e0
	for i := 1; i <= m; i++ {
		target := e0 + (len(entries)-e0)*i/m
		if _, err := ps.AddAll(entries[have:target]); err != nil {
			return 0, 0, err
		}
		have = target
		t0 := time.Now()
		if err := ps.Save(io.Discard); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if err := ps.Compact(); err != nil {
			return 0, 0, err
		}
		encodeD += t1.Sub(t0)
		busyD += time.Since(t1)
	}
	scale := float64(k) / float64(m)
	return busyD.Seconds() * scale, encodeD.Seconds() * scale, nil
}
