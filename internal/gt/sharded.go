package gt

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pipetune/internal/kmeans"
	"pipetune/internal/metrics"
	"pipetune/internal/params"
	"pipetune/internal/xrand"
)

// Sharded is the ground-truth store built for the tuning service's
// concurrency profile. Entries are partitioned into shards by profile
// cluster: an entry routes to the shard whose centroid is nearest, and a
// shard that outgrows Config.SplitSize is split in two by 2-means over its
// own entries — so shards converge onto workload families (HetPipe-style
// partitioned state) without any a-priori labelling.
//
// Concurrency design:
//
//   - Lookup is the per-epoch hot path and takes no lock at all: the
//     shard table, each shard's centroid and each shard's fitted model
//     are atomic copy-on-write snapshots, and hit/miss counters are
//     atomics. The only blocking a lookup can experience is the one-off
//     refit of a stale shard model.
//   - Add appends to exactly one shard under that shard's own mutex.
//     Concurrent jobs on different workload families touch different
//     shards and never contend.
//   - Model maintenance is incremental: Add only bumps the shard's
//     revision watermark; the refit is deferred until a Lookup routes to a
//     shard whose model is older than its watermark. The refit seed is
//     derived from (store seed, shard, revision), so the deferred model is
//     identical to what an eager refit at the same revision would have
//     produced — batching changes when work happens, never the outcome.
type Sharded struct {
	cfg  Config
	seed uint64

	hits   atomic.Int64
	misses atomic.Int64
	rev    atomic.Uint64 // data revision: every Add/Replace bumps it
	count  atomic.Int64  // total entries across shards
	ord    atomic.Uint64 // global insertion order for Entries/Save
	// revBase keeps Info's watermark comparable after Replace: Rev ==
	// revBase + entry count at all times, so ModelRev (revBase + the sum
	// of fitted shard revisions) equals Rev exactly when every model is
	// current.
	revBase atomic.Uint64

	// table is the copy-on-write shard list: readers (Lookup routing, Add
	// routing, stats) load it atomically and never block; writers (shard
	// creation, splits, Replace) rebuild it under mu and swap it in. The
	// epoch hot path is therefore entirely lock-free.
	table atomic.Pointer[[]*shard]

	// mu serialises table mutations only.
	mu       sync.Mutex
	shardSeq uint64 // next shard id, for deterministic refit seeds

	// met is the optional metrics plane, behind an atomic pointer so
	// instrumenting an already-running store stays race-free with the
	// lock-free lookup path.
	met atomic.Pointer[storeInstruments]
}

// InstrumentMetrics implements Instrumentable.
func (s *Sharded) InstrumentMetrics(reg *metrics.Registry) {
	if m := newStoreInstruments(reg); m != nil {
		s.met.Store(m)
	}
}

// shard is one profile-cluster partition.
type shard struct {
	id      uint64
	mu      sync.Mutex // guards entries, ords and splits
	retired bool       // set when a split replaced this shard
	entries []Entry
	ords    []uint64
	// splitTried is the entry count at the last failed split attempt; the
	// next attempt waits until the shard doubles, so a cohesive shard
	// (one family, nothing to split) pays amortised O(1) split checks
	// instead of a 2-means fit every SplitSize appends.
	splitTried int
	// centroid is the running mean of member features, kept behind an
	// atomic pointer so lock-free routing can read it mid-Add.
	centroid atomic.Pointer[[]float64]
	// rev counts this shard's entries; the model watermark compares
	// against it.
	rev atomic.Uint64
	// model is the copy-on-write fitted snapshot.
	model atomic.Pointer[shardModel]
}

// shardModel is an immutable fitted snapshot of one shard.
type shardModel struct {
	rev    uint64 // shard revision this model covers
	fitted bool
	sim    Similarity
	best   []params.SysConfig
}

// NewSharded creates an empty sharded store.
func NewSharded(cfg Config, seed uint64) *Sharded {
	if cfg.SplitSize <= 0 {
		cfg.SplitSize = DefaultConfig().SplitSize
	}
	if cfg.MaxShards <= 0 {
		cfg.MaxShards = DefaultConfig().MaxShards
	}
	if cfg.MinEntries <= 0 {
		cfg.MinEntries = DefaultConfig().MinEntries
	}
	return &Sharded{cfg: cfg, seed: seed}
}

// sqDist is the routing metric (squared Euclidean; monotone with the
// distance, so nearest-centroid decisions agree).
func sqDist(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// shards returns the current copy-on-write shard table (never nil).
func (s *Sharded) shards() []*shard {
	if t := s.table.Load(); t != nil {
		return *t
	}
	return nil
}

// nearest routes a feature vector to the shard with the closest centroid,
// lock-free. Distances to clearly-worse shards abort early, so routing
// cost stays near one full distance computation plus a prefix sum per
// remaining shard.
func (s *Sharded) nearest(features []float64) *shard {
	var best *shard
	bestD := 0.0
	for _, sh := range s.shards() {
		c := sh.centroid.Load()
		if c == nil {
			continue
		}
		if best == nil {
			best, bestD = sh, sqDist(features, *c)
			continue
		}
		if d, ok := sqDistWithin(features, *c, bestD); ok {
			best, bestD = sh, d
		}
	}
	return best
}

// sqDistWithin computes the squared distance but gives up (ok=false) as
// soon as the partial sum exceeds bound.
func sqDistWithin(a, b []float64, bound float64) (float64, bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		sum += d * d
		if sum >= bound {
			return sum, false
		}
	}
	return sum, true
}

// Add implements Store: route to the nearest shard, append under that
// shard's lock only, and leave the model refit to the next lookup.
func (s *Sharded) Add(e Entry) error {
	if m := s.met.Load(); m != nil {
		start := time.Now()
		defer func() { m.addSeconds.Observe(time.Since(start).Seconds()) }()
	}
	if err := e.validate(); err != nil {
		return err
	}
	cp := e.clone()
	for {
		sh := s.nearest(cp.Features)
		if sh == nil {
			s.addFirst(cp)
			return nil
		}
		if s.appendTo(sh, cp) {
			return nil
		}
		// The shard was retired by a concurrent split; re-route.
	}
}

// addFirst creates the first shard. Racing callers fall back to appendTo.
func (s *Sharded) addFirst(cp Entry) {
	s.mu.Lock()
	if sh := s.nearest(cp.Features); sh != nil {
		s.mu.Unlock()
		if s.appendTo(sh, cp) {
			return
		}
		// Retired already (extraordinarily unlikely on a fresh store);
		// start over through the normal route.
		_ = s.Add(cp)
		return
	}
	sh := s.newShardLocked(nil, nil)
	next := append(append([]*shard(nil), s.shards()...), sh)
	s.table.Store(&next)
	s.mu.Unlock()
	if !s.appendTo(sh, cp) {
		_ = s.Add(cp)
	}
}

// newShardLocked allocates a shard seeded with the given members. Callers
// hold s.mu in write mode.
func (s *Sharded) newShardLocked(entries []Entry, ords []uint64) *shard {
	sh := &shard{id: s.shardSeq, entries: entries, ords: ords}
	s.shardSeq++
	sh.rev.Store(uint64(len(entries)))
	if len(entries) > 0 {
		c := meanFeatures(entries)
		sh.centroid.Store(&c)
	}
	return sh
}

// meanFeatures computes the centroid of the entries' feature vectors.
func meanFeatures(entries []Entry) []float64 {
	c := make([]float64, len(entries[0].Features))
	for _, e := range entries {
		for i := 0; i < len(c) && i < len(e.Features); i++ {
			c[i] += e.Features[i]
		}
	}
	for i := range c {
		c[i] /= float64(len(entries))
	}
	return c
}

// appendTo appends the entry to the shard, updating its centroid and
// revision. Returns false if the shard was retired by a concurrent split
// (the caller must re-route). Splits are attempted at SplitSize multiples.
func (s *Sharded) appendTo(sh *shard, cp Entry) bool {
	sh.mu.Lock()
	if sh.retired {
		sh.mu.Unlock()
		return false
	}
	sh.entries = append(sh.entries, cp)
	sh.ords = append(sh.ords, s.ord.Add(1))
	n := len(sh.entries)
	// Recompute the centroid incrementally into a fresh slice so routing
	// readers are never disturbed mid-update.
	next := make([]float64, len(cp.Features))
	if prev := sh.centroid.Load(); prev != nil {
		for i := 0; i < len(next) && i < len(*prev); i++ {
			next[i] = (*prev)[i] + (cp.Features[i]-(*prev)[i])/float64(n)
		}
	} else {
		copy(next, cp.Features)
	}
	sh.centroid.Store(&next)
	sh.rev.Add(1)
	// Store-level counters bump inside the shard critical section:
	// Replace retires shards under this same lock, so an Add that made it
	// into a shard has always counted itself before Replace overwrites
	// the counters — count and entries can never drift apart.
	s.count.Add(1)
	s.rev.Add(1)
	sh.mu.Unlock()

	if n > 0 && s.cfg.SplitSize > 0 && n%s.cfg.SplitSize == 0 {
		s.split(sh)
	}
	return true
}

// split partitions an over-full shard in two by 2-means over its own
// entries, replacing it with two shards whose centroids route future
// entries. A degenerate clustering (everything in one group) leaves the
// shard intact until the next multiple.
func (s *Sharded) split(sh *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.retired || len(sh.entries) < 2 || len(s.shards()) >= s.cfg.MaxShards {
		return
	}
	if sh.splitTried > 0 && len(sh.entries) < 2*sh.splitTried {
		return
	}
	points := make([][]float64, len(sh.entries))
	for i, e := range sh.entries {
		points[i] = e.Features
	}
	cfg := kmeans.Config{K: 2, MaxIters: 50, Restarts: 2}
	seed := mix64(s.seed ^ mix64(sh.id<<20|uint64(len(sh.entries))))
	model, err := kmeans.Fit(points, cfg, xrand.New(seed))
	if err != nil {
		sh.splitTried = len(sh.entries)
		return
	}
	// Split-quality gates: a split must produce two shards that can each
	// still fit a model (otherwise their lookups would all miss), and the
	// split must genuinely reduce within-cluster spread — otherwise shards
	// would track sampling noise inside one family instead of family
	// structure.
	var aE, bE []Entry
	var aO, bO []uint64
	for i, lbl := range model.Labels {
		if lbl == 0 {
			aE, aO = append(aE, sh.entries[i]), append(aO, sh.ords[i])
		} else {
			bE, bO = append(bE, sh.entries[i]), append(bO, sh.ords[i])
		}
	}
	minChild := s.cfg.MinEntries
	if minChild < 2 {
		minChild = 2
	}
	if len(aE) < minChild || len(bE) < minChild {
		sh.splitTried = len(sh.entries)
		return
	}
	// Variance-reduction gate: compare the post-split within-cluster sum
	// of squares against the unsplit shard's spread around its own
	// centroid. Real structure (distinct workload families, even many
	// mutually equidistant ones) drops the ratio well below one; noise
	// inside a single family barely moves it. 0.9 admits recursive
	// family splits while rejecting noise splits.
	parentSSQ := 0.0
	if c := sh.centroid.Load(); c != nil {
		for _, p := range points {
			parentSSQ += sqDist(p, *c)
		}
	}
	if parentSSQ == 0 || model.Inertia > 0.9*parentSSQ {
		sh.splitTried = len(sh.entries)
		return
	}
	a := s.newShardLocked(aE, aO)
	b := s.newShardLocked(bE, bO)
	sh.retired = true
	next := append([]*shard(nil), s.shards()...)
	for i, cur := range next {
		if cur == sh {
			next[i] = a
			break
		}
	}
	next = append(next, b)
	s.table.Store(&next)
	if m := s.met.Load(); m != nil {
		m.shardSplits.Inc()
	}
}

// Lookup implements Store: route under a read lock, match against the
// shard's copy-on-write model snapshot, refitting first if the watermark
// shows the model is stale.
func (s *Sharded) Lookup(features []float64) (params.SysConfig, bool) {
	if m := s.met.Load(); m != nil {
		start := time.Now()
		cfg, ok := s.lookup(features)
		m.lookupSeconds.Observe(time.Since(start).Seconds())
		if ok {
			m.hits.Inc()
		} else {
			m.misses.Inc()
		}
		return cfg, ok
	}
	return s.lookup(features)
}

func (s *Sharded) lookup(features []float64) (params.SysConfig, bool) {
	sh := s.nearest(features)
	if sh == nil {
		s.misses.Add(1)
		return params.SysConfig{}, false
	}
	m := sh.model.Load()
	if m == nil || m.rev != sh.rev.Load() {
		m = s.refit(sh)
	}
	if !m.fitted {
		s.misses.Add(1)
		return params.SysConfig{}, false
	}
	group, ok := m.sim.Match(features)
	if !ok || group < 0 || group >= len(m.best) {
		s.misses.Add(1)
		return params.SysConfig{}, false
	}
	s.hits.Add(1)
	return m.best[group], true
}

// refit builds a fresh model snapshot for the shard at its current
// revision. The similarity instance is new per refit and seeded from
// (store seed, shard id, revision) only, so the outcome is independent of
// how many intermediate revisions went unfitted.
func (s *Sharded) refit(sh *shard) *shardModel {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rev := sh.rev.Load()
	if m := sh.model.Load(); m != nil && m.rev == rev {
		return m // raced with another refitter
	}
	m := &shardModel{rev: rev}
	if len(sh.entries) >= s.cfg.MinEntries {
		sim := s.newSimilarity(sh.id, rev, len(sh.entries))
		points := make([][]float64, len(sh.entries))
		for i, e := range sh.entries {
			points[i] = e.Features
		}
		if err := sim.Fit(points); err == nil {
			m.fitted = true
			m.sim = sim
			m.best = groupBest(sh.entries, sim)
		}
	}
	sh.model.Store(m)
	return m
}

// newSimilarity constructs the per-refit similarity instance.
func (s *Sharded) newSimilarity(shardID, rev uint64, n int) Similarity {
	seed := mix64(s.seed ^ mix64(shardID<<32^rev))
	if s.cfg.NewSimilarity != nil {
		return s.cfg.NewSimilarity(seed)
	}
	// Clamp K so a small shard still fits (kmeans refuses n < K).
	cfg := s.cfg.KMeans
	if cfg.K > n {
		cfg.K = n
	}
	return NewKMeansSimilarity(cfg, s.cfg.Threshold, seed)
}

// Len implements Store.
func (s *Sharded) Len() int { return int(s.count.Load()) }

// Stats implements Store.
func (s *Sharded) Stats() (hits, misses int) {
	return int(s.hits.Load()), int(s.misses.Load())
}

// Rev implements Store.
func (s *Sharded) Rev() uint64 { return s.rev.Load() }

// SimilarityName implements Store.
func (s *Sharded) SimilarityName() string {
	return s.newSimilarity(0, 0, s.cfg.MinEntries).Name()
}

// Info implements Store. ModelRev sums the shard model watermarks (plus
// the revision base left by Replace), so ModelRev == Rev exactly when
// every shard's model has seen every entry.
func (s *Sharded) Info() Info {
	table := s.shards()
	shards := len(table)
	modelRev := s.revBase.Load()
	for _, sh := range table {
		if m := sh.model.Load(); m != nil {
			modelRev += m.rev
		}
	}
	hits, misses := s.Stats()
	return Info{
		Store:      "sharded",
		Entries:    s.Len(),
		Hits:       hits,
		Misses:     misses,
		Rev:        s.Rev(),
		ModelRev:   modelRev,
		Shards:     shards,
		Similarity: s.SimilarityName(),
	}
}

// Entries implements Store: all entries, restored to insertion order.
func (s *Sharded) Entries() []Entry {
	type rec struct {
		ord uint64
		e   Entry
	}
	var recs []rec
	for _, sh := range s.shards() {
		sh.mu.Lock()
		for i, e := range sh.entries {
			recs = append(recs, rec{ord: sh.ords[i], e: e.clone()})
		}
		sh.mu.Unlock()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ord < recs[j].ord })
	out := make([]Entry, len(recs))
	for i, r := range recs {
		out[i] = r.e
	}
	return out
}

// Replace implements Store: the new shard map is rebuilt offline by
// re-routing the entries in order (so a Load reproduces the layout the
// same insertion sequence would have produced live) and then swapped in
// under the write lock. An Add racing with the swap either lands before
// it — and is discarded with the rest of the old contents, exactly like
// an Add serialised before the Replace — or observes its shard retired
// and re-routes into the new table.
func (s *Sharded) Replace(entries []Entry) error {
	for _, e := range entries {
		if err := e.validate(); err != nil {
			return err
		}
	}
	tmp := NewSharded(s.cfg, s.seed)
	for _, e := range entries {
		if err := tmp.Add(e); err != nil {
			return err
		}
	}
	s.mu.Lock()
	for _, sh := range s.shards() {
		sh.mu.Lock()
		sh.retired = true
		sh.mu.Unlock()
	}
	next := tmp.shards()
	s.table.Store(&next)
	s.shardSeq = tmp.shardSeq
	s.count.Store(tmp.count.Load())
	s.ord.Store(tmp.ord.Load())
	// Rev stays monotone and lands at revBase+count, so the ModelRev
	// watermark comparison keeps meaning "all models current".
	count := tmp.rev.Load()
	newRev := count
	if old := s.rev.Load(); newRev <= old {
		newRev = old + 1
	}
	s.rev.Store(newRev)
	s.revBase.Store(newRev - count)
	s.mu.Unlock()
	return nil
}

// Save implements Store.
func (s *Sharded) Save(w io.Writer) error {
	return saveEntries(w, s.Entries(), 0)
}

// Load implements Store.
func (s *Sharded) Load(r io.Reader) error {
	snap, err := loadSnapshot(r)
	if err != nil {
		return err
	}
	return s.Replace(snap.Entries)
}

var _ Store = (*Sharded)(nil)
