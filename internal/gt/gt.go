// Package gt is the ground-truth similarity database of §5.4 — the
// cross-job economy that lets a tuning job skip probing because a similar
// job already ran (§7.4) — carved out of internal/core and rebuilt for the
// tuning service's concurrency profile.
//
// Sharded is the store: it partitions the database by profile cluster —
// entries route to the shard whose centroid is nearest (a shard splits in
// two by 2-means once it outgrows Config.SplitSize) — and each shard
// maintains an independently fitted similarity model behind an atomic
// copy-on-write snapshot, with model refits deferred behind a revision
// watermark: Add is O(1) append, and the first Lookup that observes a
// stale watermark pays the refit. Lookups on the epoch hot path take no
// exclusive lock, so concurrent jobs on different workload families never
// contend.
//
// Persistence is layered on top by Persistent: an append-only WAL plus a
// periodically compacted snapshot replace the old whole-file JSON rewrites,
// and the snapshot format stays readable both ways — a pre-WAL
// groundtruth.json loads as a snapshot with an empty log.
package gt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"pipetune/internal/kmeans"
	"pipetune/internal/params"
)

// Entry is one historical ground-truth record: the profile of a trial and
// the best system configuration discovered for it.
type Entry struct {
	Features []float64        `json:"features"` // log-scaled 58-event profile
	BestSys  params.SysConfig `json:"bestSys"`
	// Metric is the winner's *relative advantage*: the best configuration's
	// per-epoch value divided by the mean over all configurations measured
	// alongside it (dimensionless, lower = more dominant). Being relative
	// makes entries comparable across trials with different
	// hyperparameters, which raw durations are not.
	Metric float64 `json:"metric"`
}

// validate rejects malformed entries before they reach any store.
func (e Entry) validate() error {
	if len(e.Features) == 0 {
		return errors.New("gt: entry without features")
	}
	if err := e.BestSys.Validate(); err != nil {
		return fmt.Errorf("gt: %w", err)
	}
	return nil
}

// clone deep-copies the entry so stores never alias caller memory.
func (e Entry) clone() Entry {
	return Entry{
		Features: append([]float64(nil), e.Features...),
		BestSys:  e.BestSys,
		Metric:   e.Metric,
	}
}

// Config tunes the similarity machinery. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// KMeans is the clustering configuration; the paper fixes k=2 (one
	// cluster per workload family, §5.4).
	KMeans kmeans.Config
	// Threshold scales the cluster's RMS radius when deciding whether a
	// new profile is "similar enough" to reuse (§5.6).
	Threshold float64
	// MinEntries is the history size (per shard, for the sharded store)
	// below which every lookup misses (no reliable model yet).
	MinEntries int
	// NewSimilarity, when set, overrides the technique (§5.4's
	// pluggability) by constructing a fresh similarity instance per model
	// refit (the sharded store fits each snapshot on a new instance
	// so readers of the previous snapshot are never disturbed). seed is
	// derived deterministically from the store seed, the shard and the
	// revision being fitted, so a deferred refit produces the same model an
	// eager refit at the same revision would.
	NewSimilarity func(seed uint64) Similarity
	// SplitSize is the shard occupancy (in entries) at which the sharded
	// store attempts to split a shard in two by 2-means. Larger values mean
	// coarser shards, approaching one global model.
	SplitSize int
	// MaxShards bounds the shard count; once reached, shards only grow.
	MaxShards int
}

// DefaultConfig mirrors the paper's settings.
func DefaultConfig() Config {
	return Config{
		KMeans:     kmeans.DefaultConfig(),
		Threshold:  2.0,
		MinEntries: 4,
		SplitSize:  32,
		MaxShards:  64,
	}
}

// Info is a rich snapshot of a store's state, for stats endpoints.
type Info struct {
	// Store names the implementation ("sharded"; the persistence layer
	// passes its inner store's name through).
	Store string
	// Entries, Hits and Misses mirror Len and Stats.
	Entries int
	Hits    int
	Misses  int
	// Rev is the data revision: it advances on every mutation.
	Rev uint64
	// ModelRev is the revision the fitted similarity model(s) cover. When
	// ModelRev == Rev every lookup is served by a model that has seen all
	// entries; a lower value means refits are pending behind the watermark
	// (the sharded store defers them until a lookup needs the shard).
	ModelRev uint64
	// Shards is the shard count.
	Shards int
	// Similarity names the active technique.
	Similarity string
	// WALRecords is the number of un-compacted write-ahead-log records
	// (only set by the persistence layer).
	WALRecords int
}

// Store is the ground-truth database contract shared by every
// implementation. Implementations must be safe for concurrent use.
type Store interface {
	// Add stores an entry. Implementations may defer model maintenance;
	// a subsequent Lookup must observe a model at least as new as this
	// entry's revision.
	Add(e Entry) error
	// Lookup returns the known-best configuration for a profile if the
	// similarity function matches it confidently (§5.6).
	Lookup(features []float64) (params.SysConfig, bool)
	// Len returns the number of stored entries.
	Len() int
	// Stats returns lookup hit/miss counters.
	Stats() (hits, misses int)
	// Rev returns a revision counter that increases on every mutation.
	Rev() uint64
	// Info reports the store's full state for stats endpoints.
	Info() Info
	// SimilarityName reports the active technique.
	SimilarityName() string
	// Entries returns a copy of all entries in insertion order.
	Entries() []Entry
	// Replace swaps the database contents for the given entries (the warm
	// start of §5.4). Lookup counters are preserved.
	Replace(entries []Entry) error
	// Save persists the entries as JSON (the model is refit on load).
	Save(w io.Writer) error
	// Load replaces the database contents from a Save stream.
	Load(r io.Reader) error
}

// snapshot is the JSON persistence format. Seq is the write-ahead-log
// sequence number the snapshot covers; legacy (pre-WAL) files simply lack
// it and decode as Seq 0, which replays any log in full — exactly right,
// since legacy deployments have no log.
type snapshot struct {
	Entries []Entry `json:"entries"`
	Seq     uint64  `json:"seq,omitempty"`
}

// saveEntries encodes entries in the legacy-compatible snapshot format.
func saveEntries(w io.Writer, entries []Entry, seq uint64) error {
	return json.NewEncoder(w).Encode(snapshot{Entries: entries, Seq: seq})
}

// loadSnapshot decodes a snapshot (legacy or WAL-era).
func loadSnapshot(r io.Reader) (snapshot, error) {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return snapshot{}, fmt.Errorf("gt: load snapshot: %w", err)
	}
	return snap, nil
}

// SaveFile persists a store to path atomically: the snapshot is written to
// a temporary file in the same directory, synced, and renamed over the
// target. A crash mid-write therefore never leaves a half-written snapshot
// at path. It returns the revision the snapshot captured.
func SaveFile(s Store, path string) (rev uint64, err error) {
	// Rev is read BEFORE the entries, so under concurrent appends the
	// returned revision may slightly predate the snapshot's contents —
	// the safe direction for skip-writes watermarks: a caller comparing
	// it against Rev() later may take one redundant snapshot, never skip
	// a needed one. Disk I/O happens outside any lock.
	rev = s.Rev()
	entries := s.Entries()
	if err := writeFileAtomic(path, func(w io.Writer) error {
		return saveEntries(w, entries, 0)
	}); err != nil {
		return 0, fmt.Errorf("gt: save: %w", err)
	}
	return rev, nil
}

// LoadFile restores a store from a SaveFile (or legacy) snapshot. A
// missing file is not an error — the store simply stays empty (first boot
// with a fresh state directory).
func LoadFile(s Store, path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("gt: load: %w", err)
	}
	defer f.Close()
	return s.Load(f)
}

// writeFileAtomic writes via a temp file in the target's directory, syncs
// and renames, so readers observe either the old complete file or the new
// one.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// groupBest computes, per similarity group, the configuration that won
// most often among the group's members (ties broken towards the lower mean
// relative-advantage metric, then lexicographically for determinism).
// Shared by every store implementation.
func groupBest(entries []Entry, sim Similarity) []params.SysConfig {
	best := make([]params.SysConfig, sim.Groups())
	for c := range best {
		type agg struct {
			sys    params.SysConfig
			count  int
			metric float64
		}
		byKey := make(map[string]*agg)
		for i, e := range entries {
			if sim.GroupOf(i) != c {
				continue
			}
			key := e.BestSys.String()
			a, ok := byKey[key]
			if !ok {
				a = &agg{sys: e.BestSys}
				byKey[key] = a
			}
			a.count++
			a.metric += e.Metric
		}
		keys := make([]string, 0, len(byKey))
		for k := range byKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		bestKey := ""
		for _, k := range keys {
			if bestKey == "" {
				bestKey = k
				continue
			}
			a, b := byKey[k], byKey[bestKey]
			// Prefer higher vote count, then lower mean metric.
			if a.count > b.count ||
				(a.count == b.count && a.metric/float64(a.count) < b.metric/float64(b.count)) {
				bestKey = k
			}
		}
		if bestKey != "" {
			best[c] = byKey[bestKey].sys
		} else {
			best[c] = params.DefaultSysConfig()
		}
	}
	return best
}

// mix64 is a splitmix64 finaliser: it derives well-distributed seeds from
// (store seed, shard, revision) tuples so deferred refits are reproducible
// regardless of how many refits actually ran in between.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
