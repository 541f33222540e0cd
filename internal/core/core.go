// Package core implements PipeTune itself — the paper's primary
// contribution (§5): pipelined tuning of system parameters inside each
// hyperparameter trial, at epoch granularity.
//
// Algorithm 1 of the paper maps onto this package as follows:
//
//	train(...)            -> tune.Runner executes the trial; the trainer
//	                         invokes the Controller at each epoch boundary
//	                         (the asynchronous tuneSystem call).
//	getProfile(job)       -> the trial's first-epoch 58-event PMU profile.
//	getSimilarity(profile)-> gt.Store.Lookup: k-means over historical
//	                         profiles; a hit within the inertia-derived
//	                         radius returns that cluster's known-best
//	                         system configuration (§5.4, §5.6).
//	probing loop          -> on a miss, each subsequent epoch runs one
//	                         candidate configuration; the optimisation
//	                         function picks the best (O(n) in the number
//	                         of configurations, §5.2) and applies it for
//	                         the remaining epochs.
//
// Completed trials feed their profile and winning configuration back into
// the ground-truth database, which re-clusters — so later jobs with
// similar profiles skip probing entirely (§7.4's "unseen jobs" economy).
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"pipetune/internal/gt"
	"pipetune/internal/params"
	"pipetune/internal/sched"
	"pipetune/internal/trainer"
	"pipetune/internal/tune"
	"pipetune/internal/workload"
)

// OptimizeFor selects the probing optimisation function (§5.2: "e.g.,
// shortest runtime, lowest energy consumption").
type OptimizeFor int

// Optimisation functions.
const (
	MinimizeDuration OptimizeFor = iota + 1
	MinimizeEnergy
)

// String implements fmt.Stringer.
func (o OptimizeFor) String() string {
	switch o {
	case MinimizeDuration:
		return "min-duration"
	case MinimizeEnergy:
		return "min-energy"
	default:
		return fmt.Sprintf("optimize(%d)", int(o))
	}
}

// DefaultProbeConfigs returns the §5.6 probing grid over the §7.1.4 system
// ranges: cores × memory at power-of-two steps. Kept small because each
// probe consumes one epoch.
func DefaultProbeConfigs() []params.SysConfig {
	return []params.SysConfig{
		{Cores: 4, MemoryGB: 8},
		{Cores: 8, MemoryGB: 8},
		{Cores: 16, MemoryGB: 8},
		{Cores: 4, MemoryGB: 32},
		{Cores: 8, MemoryGB: 32},
		{Cores: 16, MemoryGB: 32},
	}
}

// trialPhase is the per-trial state machine of Algorithm 1.
type trialPhase int

const (
	phaseProfiling trialPhase = iota + 1
	phaseProbing
	phaseApplied
)

// probeResult is one epoch-level measurement of a configuration.
type probeResult struct {
	sys      params.SysConfig
	duration float64
	energyJ  float64
}

// trialState tracks one trial's pipelined tuning.
type trialState struct {
	phase     trialPhase
	features  []float64
	probeIdx  int
	measured  []probeResult
	applied   params.SysConfig
	fromGT    bool
	validated bool
	baseline  float64 // metric of the profiling epoch (on the start config)
	epochsRun int
}

// Controller coordinates pipelined system-parameter tuning for the trials
// of one or more HPT jobs. It implements the paper's tuneSystem (Algorithm
// 1, lines 6-17) as a trainer.EpochObserver per trial.
type Controller struct {
	GT       gt.Store
	Probes   []params.SysConfig
	Optimize OptimizeFor

	// MaxProbeEpochs bounds how many epochs a single trial may spend
	// probing (0 = no bound beyond the probe list length).
	MaxProbeEpochs int

	mu     sync.Mutex
	trials map[int]*trialState
}

// NewController creates a controller with the default probe grid.
func NewController(store gt.Store) *Controller {
	return &Controller{
		GT:       store,
		Probes:   DefaultProbeConfigs(),
		Optimize: MinimizeDuration,
		trials:   make(map[int]*trialState),
	}
}

// metric extracts the optimisation value from a measurement.
func (c *Controller) metric(p probeResult) float64 {
	if c.Optimize == MinimizeEnergy {
		return p.energyJ
	}
	return p.duration
}

// state returns (creating if needed) the per-trial state.
func (c *Controller) state(trialID int) *trialState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.trials[trialID]
	if !ok {
		st = &trialState{phase: phaseProfiling}
		c.trials[trialID] = st
	}
	return st
}

// Restart discards a trial's pipelined-tuning state so its body can be
// re-run from epoch one (a remote lease requeued after worker eviction):
// the replay re-profiles, re-queries the ground truth and re-probes from
// scratch, exactly as the first attempt did. Ground-truth adds only
// happen between searcher batches, so within a batch the replay observes
// the same database state and reproduces the original attempt
// bit-identically.
func (c *Controller) Restart(trialID int) {
	c.mu.Lock()
	delete(c.trials, trialID)
	c.mu.Unlock()
}

// ObserverFor returns the epoch observer for one trial; pass this to
// tune.JobSpec.TrialObserver.
func (c *Controller) ObserverFor(trialID int) trainer.EpochObserver {
	return trainer.ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s trainer.EpochStats) *params.SysConfig {
		return c.onEpoch(trialID, s)
	})
}

// onEpoch advances the state machine. The returned configuration (if any)
// applies from the next epoch onward.
func (c *Controller) onEpoch(trialID int, s trainer.EpochStats) *params.SysConfig {
	st := c.state(trialID)
	c.mu.Lock()
	defer c.mu.Unlock()

	st.epochsRun++
	st.measured = append(st.measured, probeResult{sys: s.Sys, duration: s.Duration, energyJ: s.EnergyJ})

	switch st.phase {
	case phaseProfiling:
		// Line 7-8: profile the first epoch, query the similarity
		// function.
		st.features = s.Profile.Features()
		st.baseline = c.metric(st.measured[0])
		if cfg, ok := c.GT.Lookup(st.features); ok {
			// Line 9-10: within the confidence threshold — apply the
			// known-best configuration, no probing needed.
			st.phase = phaseApplied
			st.applied = cfg
			st.fromGT = true
			return &cfg
		}
		// Line 11-15: start probing.
		st.phase = phaseProbing
		st.probeIdx = 0
		if next := c.nextProbeLocked(st, s.Sys); next != nil {
			return next
		}
		// Nothing to probe: settle immediately.
		return c.settleLocked(st)
	case phaseProbing:
		if c.MaxProbeEpochs > 0 && st.epochsRun-1 >= c.MaxProbeEpochs {
			return c.settleLocked(st)
		}
		if next := c.nextProbeLocked(st, s.Sys); next != nil {
			return next
		}
		// Line 16-17: all probes measured — pick the best and apply it.
		return c.settleLocked(st)
	default:
		// Reliability guard on ground-truth reuse: the first epoch after
		// applying a cluster's configuration validates it against the
		// trial's own baseline. Cluster-level configurations are hyper-
		// parameter-agnostic, so a config that was best for the cluster's
		// typical trials can regress an atypical one (e.g. a much larger
		// batch size); in that case fall back to probing — the §5.6 rule
		// of distrusting low-reliability predictions, applied online.
		if st.fromGT && !st.validated {
			st.validated = true
			if c.metric(st.measured[len(st.measured)-1]) > st.baseline*1.10 {
				st.phase = phaseProbing
				st.fromGT = false
				if next := c.nextProbeLocked(st, s.Sys); next != nil {
					return next
				}
				return c.settleLocked(st)
			}
		}
		return nil
	}
}

// nextProbeLocked returns the next unmeasured probe configuration, skipping
// any equal to configurations already measured. Callers hold c.mu.
func (c *Controller) nextProbeLocked(st *trialState, current params.SysConfig) *params.SysConfig {
	for st.probeIdx < len(c.Probes) {
		cfg := c.Probes[st.probeIdx]
		st.probeIdx++
		seen := false
		for _, m := range st.measured {
			if m.sys == cfg {
				seen = true
				break
			}
		}
		if cfg == current || seen {
			continue
		}
		return &cfg
	}
	return nil
}

// settleLocked picks the best measured configuration ("find best config in
// m", Algorithm 1 line 16) and applies it. Callers hold c.mu.
func (c *Controller) settleLocked(st *trialState) *params.SysConfig {
	st.phase = phaseApplied
	best := st.measured[0]
	for _, m := range st.measured[1:] {
		if c.metric(m) < c.metric(best) {
			best = m
		}
	}
	st.applied = best.sys
	return &best.sys
}

// Finish must be called when a trial completes (wire it to
// tune.JobSpec.OnTrialDone). It feeds the trial's outcome into the
// ground-truth database and releases the per-trial state.
func (c *Controller) Finish(trialID int, _ *trainer.Result) {
	c.mu.Lock()
	st, ok := c.trials[trialID]
	if ok {
		delete(c.trials, trialID)
	}
	var entry *gt.Entry
	if ok && st.features != nil && comparedConfigs(st.measured) >= 2 {
		// Only trials with comparative evidence (at least two distinct
		// configurations measured) contribute: a trial that only ever ran
		// the start configuration knows nothing about what is *best* and
		// would drown the database in "default is best" votes.
		best := st.measured[0]
		mean := 0.0
		for _, m := range st.measured {
			mean += c.metric(m)
			if c.metric(m) < c.metric(best) {
				best = m
			}
		}
		mean /= float64(len(st.measured))
		advantage := 1.0
		if mean > 0 {
			advantage = c.metric(best) / mean
		}
		entry = &gt.Entry{Features: st.features, BestSys: best.sys, Metric: advantage}
	}
	c.mu.Unlock()
	if entry != nil {
		// Ground-truth updates only grow the database; errors here must
		// not fail the trial (degraded ground truth, not a broken job).
		_ = c.GT.Add(*entry)
	}
}

// comparedConfigs counts the distinct system configurations measured.
func comparedConfigs(measured []probeResult) int {
	seen := make(map[params.SysConfig]bool, len(measured))
	for _, m := range measured {
		seen[m.sys] = true
	}
	return len(seen)
}

// PipeTune wraps a tune.Runner with the pipelined system-tuning middleware.
// One PipeTune instance holds one persistent ground-truth database shared
// by every job it runs — the cross-job learning of §7.4.
type PipeTune struct {
	Runner   *tune.Runner
	GT       gt.Store
	Probes   []params.SysConfig
	Optimize OptimizeFor
	// Policy, when set, overrides the trial placement policy for PipeTune
	// jobs (FIFO, SJF or backfill from internal/sched). PipeTune trials
	// change their system configuration mid-flight, and the scheduler
	// re-negotiates each trial's cluster allocation at the matching epoch
	// boundary (§5.6 dynamic reconfiguration) — the policy decides which
	// waiting trial claims capacity those reconfigurations free.
	Policy sched.Policy
}

// New creates a PipeTune middleware with an empty ground-truth database:
// the sharded store, safe for the service's shared cross-job database
// (internal/gt documents the design).
func New(runner *tune.Runner, seed uint64) *PipeTune {
	return &PipeTune{
		Runner:   runner,
		GT:       gt.NewSharded(gt.DefaultConfig(), seed),
		Probes:   DefaultProbeConfigs(),
		Optimize: MinimizeDuration,
	}
}

// RunJob executes an HPT job under PipeTune: the hyperparameter search is
// untouched (V1 semantics, accuracy objective preserved), while each
// trial's system parameters are tuned in the pipelined fashion of
// Algorithm 1.
func (p *PipeTune) RunJob(spec tune.JobSpec) (*tune.JobResult, error) {
	return p.RunJobCtx(context.Background(), spec)
}

// RunJobCtx is RunJob with cancellation, forwarded to the tuning event
// loop. A cancelled job contributes whatever completed trials it already
// fed to the ground-truth database (knowledge is kept; the job result is
// not).
func (p *PipeTune) RunJobCtx(ctx context.Context, spec tune.JobSpec) (*tune.JobResult, error) {
	if p.Runner == nil || p.GT == nil {
		return nil, errors.New("core: PipeTune not wired")
	}
	ctrl := NewController(p.GT)
	ctrl.Probes = p.Probes
	ctrl.Optimize = p.Optimize

	spec.Mode = tune.ModeV1 // hyper space only; system handled by the pipeline
	if p.Policy != nil {
		spec.Policy = p.Policy
	}
	spec.TrialObserver = ctrl.ObserverFor
	spec.TrialRestart = ctrl.Restart
	prevDone := spec.OnTrialDone
	spec.OnTrialDone = func(trialID int, res *trainer.Result) {
		ctrl.Finish(trialID, res)
		if prevDone != nil {
			prevDone(trialID, res)
		}
	}
	return p.Runner.RunJobCtx(ctx, spec)
}

// Bootstrap warm-starts the ground-truth database by profiling each given
// workload under every probe configuration for one epoch, at several batch
// sizes — the §7.2 "initial similarity model" campaign (which varies
// memory, cores AND batch size), scaled down. Varying the batch size
// matters: it widens each cluster's radius to cover the profile spread
// that real trials (whose hyperparameters the search varies) will exhibit.
func (p *PipeTune) Bootstrap(workloads []workload.Workload, seed uint64) error {
	if p.Runner == nil || p.Runner.Trainer == nil {
		return errors.New("core: PipeTune not wired")
	}
	for wi, w := range workloads {
		for bi, batch := range []int{32, 1024} {
			h := params.DefaultHyper()
			h.Epochs = 1
			h.BatchSize = batch
			var features []float64
			best := probeResult{}
			haveBest := false
			mean := 0.0
			for ci, sys := range p.Probes {
				res, err := p.Runner.Trainer.Run(w, h, sys, seed+uint64(wi*1000+bi*100+ci), nil)
				if err != nil {
					return fmt.Errorf("core: bootstrap %s at %v: %w", w.Name(), sys, err)
				}
				epoch := res.Epochs[len(res.Epochs)-1]
				m := probeResult{sys: sys, duration: epoch.Duration, energyJ: epoch.EnergyJ}
				if features == nil {
					features = epoch.Profile.Features()
				}
				mean += p.metricOf(m)
				if !haveBest || p.metricOf(m) < p.metricOf(best) {
					best = m
					haveBest = true
				}
			}
			if haveBest {
				mean /= float64(len(p.Probes))
				advantage := 1.0
				if mean > 0 {
					advantage = p.metricOf(best) / mean
				}
				if err := p.GT.Add(gt.Entry{Features: features, BestSys: best.sys, Metric: advantage}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (p *PipeTune) metricOf(m probeResult) float64 {
	if p.Optimize == MinimizeEnergy {
		return m.energyJ
	}
	return m.duration
}
