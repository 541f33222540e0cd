// Package tune is the hyperparameter-tuning library substrate (the paper
// builds on Ray Tune, §6): it runs HPT jobs — collections of training
// trials proposed by a search algorithm — against the trainer, under a
// user-chosen objective function.
//
// Two baseline modes reproduce §4 and §7.1.5:
//
//   - V1: hyperparameters only, objective = maximise accuracy; every trial
//     runs with the same default system configuration.
//   - V2: "system as hyperparameters" — the system space is concatenated
//     into the search space and the objective becomes accuracy/duration.
//
// PipeTune plugs in through two extension points: a per-trial
// trainer.EpochObserver factory (system tuning inside the trial) and a
// trial-completion hook (feeding the ground-truth database).
//
// Job execution is event-driven: trials flow through the internal/sched
// discrete-event scheduler, each admitted the moment its system footprint
// fits the cluster (under the configured placement policy) and reported to
// the searcher the instant it completes — there is no batch barrier. Trials
// whose epoch log shows a mid-trial system reconfiguration (PipeTune's
// pipelined tuning) re-negotiate their cluster allocation at the matching
// simulated instant.
//
// Trial bodies execute through a pluggable exec.Backend — by default the
// local in-process pool, optionally a remote worker fleet — and all
// reported times are simulated seconds derived from the cost model, so
// results are deterministic regardless of goroutine interleaving and of
// which backend computed them.
package tune

import (
	"context"
	"errors"
	"fmt"
	"math"

	"pipetune/internal/cluster"
	"pipetune/internal/ec2"
	"pipetune/internal/exec"
	"pipetune/internal/params"
	"pipetune/internal/sched"
	"pipetune/internal/search"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// Objective is the score a job maximises.
type Objective int

// Objectives from §5.1: maximum accuracy, or maximum accuracy with minimum
// training time (expressed as the accuracy/duration ratio, §4).
const (
	MaximizeAccuracy Objective = iota + 1
	MaximizeAccuracyPerTime
)

// String implements fmt.Stringer.
func (o Objective) String() string {
	switch o {
	case MaximizeAccuracy:
		return "accuracy"
	case MaximizeAccuracyPerTime:
		return "accuracy/time"
	default:
		return fmt.Sprintf("objective(%d)", int(o))
	}
}

// Score evaluates a finished trial under the objective; higher is better.
func (o Objective) Score(res *trainer.Result) float64 {
	switch o {
	case MaximizeAccuracyPerTime:
		// Normalise by epoch count where known: HyperBand runs trials at
		// different budgets, and a one-epoch trial must not beat a full
		// trial merely by being short. The denominator is therefore the
		// per-epoch duration (in kiloseconds, keeping scores O(accuracy)).
		dur := res.Duration
		if n := len(res.Epochs) - 1; n > 0 {
			dur = res.Duration / float64(n)
		}
		if dur <= 0 {
			return 0
		}
		return res.Accuracy / (dur / 1000)
	default:
		return res.Accuracy
	}
}

// Mode selects the baseline behaviour.
type Mode int

// Modes.
const (
	ModeV1 Mode = iota + 1 // hyper only, fixed default system parameters
	ModeV2                 // hyper + system parameters in one search space
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeV1:
		return "tune-v1"
	case ModeV2:
		return "tune-v2"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// SearcherFactory builds the search algorithm for a job. The default
// factory builds HyperBand, the paper's choice.
type SearcherFactory func(space params.Space, r *xrand.Source) (search.Searcher, error)

// DefaultSearcher returns the HyperBand factory used throughout the
// evaluation (§6), with R=9 and eta=3.
func DefaultSearcher() SearcherFactory {
	return func(space params.Space, r *xrand.Source) (search.Searcher, error) {
		return search.NewHyperBand(space, 9, 3, r)
	}
}

// JobSpec describes one HPT job (Figure 6's "hyperparameter tuning input").
type JobSpec struct {
	Workload    workload.Workload
	Mode        Mode
	Objective   Objective
	HyperSpace  params.Space
	SystemSpace params.Space // consulted only in ModeV2
	BaseHyper   params.Hyper
	BaseSys     params.SysConfig
	Seed        uint64
	// MaxParallel bounds concurrent trials; 0 derives it from the cluster
	// capacity under BaseSys.
	MaxParallel int
	Searcher    SearcherFactory

	// Policy selects the trial placement policy (FIFO, SJF, backfill);
	// nil falls back to the Runner's policy, then to FIFO — the order the
	// paper's cluster uses and the one whose makespan exactly matches the
	// legacy barrier scheduler.
	Policy sched.Policy

	// TrialObserver, when set, supplies a per-trial epoch observer (this
	// is PipeTune's hook; nil for the baselines).
	TrialObserver func(trialID int) trainer.EpochObserver
	// TrialRestart, when set, is called when an execution backend must
	// re-run a trial body from scratch (a remote lease requeued after
	// worker eviction): it must discard the trial's observer-side state
	// so the replayed epochs are observed as a fresh first attempt.
	TrialRestart func(trialID int)
	// OnTrialDone, when set, is called as each trial completes, in
	// simulated completion order (PipeTune's ground-truth feeder). When a
	// job is cancelled, trials of the interrupted batch that had already
	// finished computing are still delivered — in suggestion order, since
	// no schedule exists for them — so their knowledge is not lost.
	//
	// The hook runs synchronously inside the scheduling event loop, so it
	// must stay cheap: a slow hook delays every waiting trial's dispatch.
	// PipeTune's feeder satisfies this because internal/gt stores make Add
	// an O(1) append — model refits are deferred behind the store's
	// revision watermark and paid by the next lookup, never here.
	OnTrialDone func(trialID int, res *trainer.Result)
}

// TrialRecord is one evaluated trial.
type TrialRecord struct {
	ID         int               `json:"id"`
	Assignment params.Assignment `json:"assignment"`
	Hyper      params.Hyper      `json:"hyper"`
	StartSys   params.SysConfig  `json:"startSys"`
	BudgetFrac float64           `json:"budgetFrac"`
	Result     *trainer.Result   `json:"result"`
	Score      float64           `json:"score"`
	// Start/End are simulated wall-clock seconds within the tuning job.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Resizes/ResizesDenied count the trial's mid-flight allocation
	// re-negotiations (granted and refused) — PipeTune's §5.6 dynamic
	// reconfiguration as seen by the scheduler. Always zero for baselines,
	// whose system configuration is fixed for the whole trial.
	Resizes       int `json:"resizes,omitempty"`
	ResizesDenied int `json:"resizesDenied,omitempty"`
	// Class names the node class the trial's final attempt ran on and Spot
	// marks it revocable; both are empty on legacy single-class clusters.
	Class string `json:"class,omitempty"`
	Spot  bool   `json:"spot,omitempty"`
	// Revocations counts the spot interruptions the trial survived;
	// SalvagedEpochs sums, over those interruptions, the epochs each
	// checkpoint resume skipped retraining (0 = every retry from scratch);
	// WastedSeconds is the simulated node-time the interrupted attempts
	// burned. CostUSD prices all attempts at the hosting classes' hourly
	// rates. All zero — and absent from JSON — on non-spot clusters.
	Revocations    int     `json:"revocations,omitempty"`
	SalvagedEpochs int     `json:"salvagedEpochs,omitempty"`
	WastedSeconds  float64 `json:"wastedSeconds,omitempty"`
	CostUSD        float64 `json:"costUSD,omitempty"`
}

// ProgressPoint supports the convergence plots (Figures 9 and 10): the
// state of the search when a trial completes.
type ProgressPoint struct {
	Time          float64 `json:"time"`          // simulated wall clock
	BestAccuracy  float64 `json:"bestAccuracy"`  // best accuracy so far
	TrialDuration float64 `json:"trialDuration"` // duration of the finishing trial
}

// JobResult is a finished HPT job (Figure 6's output: trained model +
// optimal parameters).
type JobResult struct {
	Spec        JobSpec         `json:"-"`
	Trials      []TrialRecord   `json:"trials"`
	Best        *TrialRecord    `json:"best"`
	TuningTime  float64         `json:"tuningTime"`  // simulated makespan
	TotalEnergy float64         `json:"totalEnergy"` // joules across all trials
	Progress    []ProgressPoint `json:"progress"`
}

// Clone deep-copies the record: the assignment map and trainer result are
// duplicated, so mutating the copy never reaches the original.
func (t TrialRecord) Clone() TrialRecord {
	if t.Assignment != nil { // preserve nil-ness for bit-identical JSON
		t.Assignment = t.Assignment.Clone()
	}
	t.Result = t.Result.Clone()
	return t
}

// Clone returns a deep copy of the result. Registries that retain results
// while handing them to API callers use it so no caller can mutate shared
// state (Spec is copied shallowly: it is configuration, excluded from the
// wire format, and treated as immutable after submission).
func (r *JobResult) Clone() *JobResult {
	if r == nil {
		return nil
	}
	cp := *r
	if r.Trials != nil { // preserve nil-ness for bit-identical JSON
		cp.Trials = make([]TrialRecord, len(r.Trials))
		for i, t := range r.Trials {
			cp.Trials[i] = t.Clone()
		}
	}
	if r.Best != nil {
		b := r.Best.Clone()
		cp.Best = &b
	}
	cp.Progress = append([]ProgressPoint(nil), r.Progress...)
	return &cp
}

// Runner executes HPT jobs.
type Runner struct {
	Trainer *trainer.Runner
	Cluster *cluster.Cluster
	// Workers bounds the local backend's real goroutine pool (not the
	// simulated slots); 0 means one worker per simulated slot.
	Workers int
	// Policy is the default trial placement policy for jobs that do not
	// set JobSpec.Policy; nil means FIFO.
	Policy sched.Policy
	// Exec is the execution backend trial bodies run on; nil means the
	// local in-process pool over Trainer (the pre-refactor behaviour,
	// bit-identical). The pipetuned daemon swaps in exec.Remote to fan
	// trials out to a pipetune-worker fleet.
	Exec exec.Backend
}

// backend resolves the execution backend, defaulting to local.
func (r *Runner) backend() exec.Backend {
	if r.Exec != nil {
		return r.Exec
	}
	return exec.NewLocal(r.Trainer)
}

// NewRunner wires a runner to a trainer and cluster.
func NewRunner(t *trainer.Runner, c *cluster.Cluster) *Runner {
	return &Runner{Trainer: t, Cluster: c}
}

// budgetIterations maps a space-size growth ratio to HyperBand bracket
// iterations: sqrt scaling, clamped to [1, 4].
func budgetIterations(ratio int) int {
	if ratio <= 1 {
		return 1
	}
	it := int(math.Sqrt(float64(ratio)) + 0.5)
	if it < 1 {
		it = 1
	}
	if it > 4 {
		it = 4
	}
	return it
}

// slotCount derives the simulated parallelism: how many BaseSys-sized
// trials the cluster fits, bounded by spec.MaxParallel. The count is taken
// against a scratch clone of the cluster — never the live one — so
// concurrent jobs sharing a Runner (the pipetuned service) cannot observe
// each other's transient allocations.
func (r *Runner) slotCount(spec JobSpec) (int, error) {
	if !r.Cluster.Fits(spec.BaseSys) {
		return 0, fmt.Errorf("tune: base config %v does not fit any node", spec.BaseSys)
	}
	// Count allocations until the scratch cluster is full; the clone is
	// discarded, so nothing needs releasing.
	scratch := r.Cluster.Clone()
	slots := 0
	for {
		if _, err := scratch.Allocate(spec.BaseSys); err != nil {
			break
		}
		slots++
	}
	if spec.MaxParallel > 0 && spec.MaxParallel < slots {
		slots = spec.MaxParallel
	}
	if slots < 1 {
		slots = 1
	}
	return slots, nil
}

// prepare validates the spec and constructs the job machinery shared by the
// event-driven and barrier execution paths.
func (r *Runner) prepare(spec JobSpec) (searcher search.Searcher, slots, workers int, err error) {
	if r.Trainer == nil || r.Cluster == nil {
		return nil, 0, 0, errors.New("tune: runner not wired")
	}
	if spec.Mode != ModeV1 && spec.Mode != ModeV2 {
		return nil, 0, 0, fmt.Errorf("tune: invalid mode %v", spec.Mode)
	}
	if spec.Objective != MaximizeAccuracy && spec.Objective != MaximizeAccuracyPerTime {
		return nil, 0, 0, fmt.Errorf("tune: invalid objective %v", spec.Objective)
	}
	if err := spec.BaseHyper.Validate(); err != nil {
		return nil, 0, 0, fmt.Errorf("tune: %w", err)
	}
	if err := spec.BaseSys.Validate(); err != nil {
		return nil, 0, 0, fmt.Errorf("tune: %w", err)
	}
	space := spec.HyperSpace
	if spec.Mode == ModeV2 {
		space = params.Concat(spec.HyperSpace, spec.SystemSpace)
	}
	if err := space.Validate(); err != nil {
		return nil, 0, 0, fmt.Errorf("tune: %w", err)
	}
	factory := spec.Searcher
	if factory == nil {
		// The default sample budget tracks the search space: folding the
		// system parameters into the search (V2) multiplies the space by
		// the system grid's size, so the HyperBand bracket structure is
		// repeated ~sqrt(ratio) times to keep per-dimension coverage
		// comparable — the mechanism behind the paper's observation that
		// V2 lengthens tuning (§7.3 reason 1).
		iterations := 1
		if spec.Mode == ModeV2 {
			iterations = budgetIterations(spec.SystemSpace.Size())
		}
		factory = func(space params.Space, r *xrand.Source) (search.Searcher, error) {
			return search.NewHyperBandIterations(space, 9, 3, iterations, r)
		}
	}
	rng := xrand.New(spec.Seed)
	searcher, err = factory(space, rng.Split())
	if err != nil {
		return nil, 0, 0, fmt.Errorf("tune: build searcher: %w", err)
	}
	slots, err = r.slotCount(spec)
	if err != nil {
		return nil, 0, 0, err
	}
	workers = r.Workers
	if workers <= 0 {
		workers = slots
	}
	return searcher, slots, workers, nil
}

// policyFor resolves the placement policy precedence: spec, runner, FIFO.
func (r *Runner) policyFor(spec JobSpec) sched.Policy {
	if spec.Policy != nil {
		return spec.Policy
	}
	if r.Policy != nil {
		return r.Policy
	}
	return sched.FIFO()
}

// resizeEvents converts a trial's epoch log into scheduler resize events:
// one for every epoch boundary at which the epoch observer switched the
// system configuration. Baseline trials run every epoch on StartSys and
// produce none; PipeTune trials re-negotiate their allocation as probing
// and settling proceed — the paper's §5.6 dynamic reconfiguration expressed
// as scheduler events rather than only re-priced in the cost model.
func resizeEvents(res *trainer.Result) []sched.Resize {
	if len(res.Epochs) == 0 {
		return nil
	}
	var out []sched.Resize
	cur := res.Epochs[0].Sys
	for _, ep := range res.Epochs[1:] {
		if ep.Sys != cur {
			out = append(out, sched.Resize{Offset: ep.EndTime - ep.Duration, Sys: ep.Sys})
			cur = ep.Sys
		}
	}
	return out
}

// trialSeed derives a trial's deterministic seed from the job seed and
// trial ID (splitmix-style odd-constant mixing).
func trialSeed(jobSeed uint64, id int) uint64 {
	return jobSeed ^ (uint64(id)+1)*0x9e3779b97f4a7c15
}

// spotSeedSalt decorrelates the spot-revocation process from every other
// consumer of the job seed (trial seeds, searcher RNG).
const spotSeedSalt uint64 = 0x5b0f5eedc0ffee11

// resumeSpec shapes a revoked trial's replacement attempt: resume from the
// deepest checkpoint at or below the last epoch the interrupted attempt
// completed. res.Epochs[0] is the init phase and epoch k lives at index k,
// so a resume-after-epoch-salv attempt replays init and then epochs
// salv+1..N: its duration is init + the original tail past epoch salv, its
// starting footprint is epoch salv+1's configuration, and the resize
// schedule is the original one re-based to the shortened timeline.
func resumeSpec(res *trainer.Result, startSys params.SysConfig, salv int) sched.ResumeSpec {
	if salv <= 0 || len(res.Epochs) < 2 {
		return sched.ResumeSpec{
			Duration: res.Duration,
			Sys:      startSys,
			Resizes:  resizeEvents(res),
		}
	}
	// base maps original-timeline instants to the resumed attempt's clock:
	// resumed time of epoch e's end = init + (EndTime[e] - EndTime[salv]).
	base := res.Epochs[salv].EndTime - res.Epochs[0].Duration
	out := sched.ResumeSpec{
		Duration:       res.Duration - base,
		Sys:            res.Epochs[salv+1].Sys,
		SalvagedEpochs: salv,
	}
	cur := out.Sys
	for _, ep := range res.Epochs[salv+2:] {
		if ep.Sys != cur {
			out.Resizes = append(out.Resizes, sched.Resize{Offset: ep.EndTime - ep.Duration - base, Sys: ep.Sys})
			cur = ep.Sys
		}
	}
	return out
}

// evictHandler builds one trial's sched.EvictHandler. The closure tracks
// the attempt's current resume point so a second revocation measures
// progress on the shortened timeline, and consults the trainer's prefix
// cache for the deepest checkpoint available under the trial's key — the
// compute-then-simulate split means the body (and its checkpoints) already
// exist when the simulated revocation fires, so the binding constraint is
// the epoch the interrupted attempt had actually reached.
func (r *Runner) evictHandler(rec *TrialRecord, key string) sched.EvictHandler {
	res := rec.Result
	salvaged := 0 // current attempt's resume point (epochs skipped)
	return func(_ int, elapsed float64) sched.ResumeSpec {
		if len(res.Epochs) < 2 {
			return sched.ResumeSpec{Duration: res.Duration, Sys: rec.StartSys}
		}
		// Attempt-local completion instant of epoch e: init duration plus
		// the original gap from the resume point's end to e's end.
		base := res.Epochs[salvaged].EndTime - res.Epochs[0].Duration
		// The restored state already sits at epoch `salvaged` when the
		// attempt begins, so progress never regresses below it.
		completed := salvaged
		for e := salvaged + 1; e < len(res.Epochs); e++ {
			if res.Epochs[e].EndTime-base > elapsed {
				break
			}
			completed = e
		}
		depth := 0
		if key != "" && r.Trainer.Cache != nil {
			depth = r.Trainer.Cache.CheckpointDepth(key)
		}
		salv := completed
		if depth < salv {
			salv = depth
		}
		salvaged = salv
		return resumeSpec(res, rec.StartSys, salv)
	}
}

// RunJob executes the HPT job to completion on the event-driven scheduler:
// every trial is admitted the moment its footprint fits the cluster under
// the placement policy, and the searcher observes each result at the
// trial's simulated completion instant. The searcher is asked for more work
// as soon as all outstanding suggestions have reported (incremental
// Observe), so search algorithms that can promote early do; with the
// default FIFO policy the schedule — and therefore TuningTime and Best —
// is identical to the legacy barrier scheduler's.
func (r *Runner) RunJob(spec JobSpec) (*JobResult, error) {
	return r.RunJobCtx(context.Background(), spec)
}

// RunJobCtx is RunJob with cancellation: the context is checked before
// every searcher batch and before every trial body, so a cancelled job
// stops within one trial's real compute time. Cancellation surfaces as an
// error satisfying errors.Is(err, ctx.Err()); the job's partial results
// are discarded — a tuning job is only meaningful complete.
func (r *Runner) RunJobCtx(ctx context.Context, spec JobSpec) (*JobResult, error) {
	searcher, slots, workers, err := r.prepare(spec)
	if err != nil {
		return nil, err
	}
	eng := sched.New(r.Cluster.SchedPool(), r.policyFor(spec), slots)
	if rates := r.Cluster.SpotRevocationRates(); rates != nil {
		// The revocation process is seeded from the job seed (salted so it
		// never correlates with trial seeds), making the whole spot
		// schedule a deterministic function of the job spec.
		eng.SetRevocations(ec2.NewSpotProcess(spec.Seed^spotSeedSalt, rates, ec2.DefaultOutageSeconds))
	}
	res := &JobResult{Spec: spec}
	outstanding := 0
	bestAcc := 0.0
	var loopErr error

	var submit func(batch []search.Suggestion)
	complete := func(rec *TrialRecord) {
		res.Trials = append(res.Trials, *rec)
		res.TotalEnergy += rec.Result.EnergyJ
		searcher.Observe([]search.Report{{ID: rec.ID, Score: rec.Score}})
		if spec.OnTrialDone != nil {
			spec.OnTrialDone(rec.ID, rec.Result)
		}
		// Ties resolve to the lower trial ID — the same winner the barrier
		// scheduler's in-order scan selects.
		if res.Best == nil || rec.Score > res.Best.Score ||
			(rec.Score == res.Best.Score && rec.ID < res.Best.ID) {
			cp := *rec
			res.Best = &cp
		}
		if rec.Result.Accuracy > bestAcc {
			bestAcc = rec.Result.Accuracy
		}
		res.Progress = append(res.Progress, ProgressPoint{
			Time:          rec.End,
			BestAccuracy:  bestAcc,
			TrialDuration: rec.Result.Duration,
		})
		outstanding--
		if outstanding == 0 && loopErr == nil {
			if next := searcher.Next(); len(next) > 0 {
				submit(next)
			}
		}
	}
	submit = func(batch []search.Suggestion) {
		if err := ctx.Err(); err != nil {
			loopErr = fmt.Errorf("tune: job cancelled: %w", err)
			eng.Halt()
			return
		}
		records, err := r.runBatch(ctx, spec, batch, workers)
		if err != nil {
			// Trials of this batch that finished before the cancellation
			// landed have paid their full compute; deliver them to
			// OnTrialDone so their knowledge (PipeTune's ground-truth
			// feed) survives even though the job result is discarded.
			// Order is suggestion order here, not simulated completion
			// order — the schedule was never established. ctx.Err()
			// covers both cancel() and deadline expiry.
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) && spec.OnTrialDone != nil {
				for i := range records {
					if records[i].Result != nil {
						spec.OnTrialDone(records[i].ID, records[i].Result)
					}
				}
			}
			loopErr = err
			eng.Halt()
			return
		}
		outstanding += len(records)
		for i := range records {
			rec := &records[i]
			task := sched.Task{
				ID:       rec.ID,
				Arrival:  eng.Now(),
				Sys:      rec.StartSys,
				Duration: rec.Result.Duration,
				Resizes:  resizeEvents(rec.Result),
			}
			var onEvict sched.EvictHandler
			if eng.HasRevocations() {
				var key string
				if r.Trainer.Cache != nil {
					key = r.Trainer.PrefixKey(spec.Workload, rec.Hyper, trialSeed(spec.Seed, rec.ID))
				}
				onEvict = r.evictHandler(rec, key)
			}
			err := eng.SubmitRevocable(task, onEvict, func(_ sched.Task, st sched.TaskStats) {
				rec.Start, rec.End = st.Start, st.End
				rec.Resizes, rec.ResizesDenied = st.ResizesGranted, st.ResizesDenied
				rec.Class, rec.Spot = st.Class, st.Spot
				rec.Revocations, rec.SalvagedEpochs = st.Revocations, st.SalvagedEpochs
				rec.WastedSeconds, rec.CostUSD = st.WastedSeconds, st.CostUSD
				complete(rec)
			})
			if err != nil {
				loopErr = fmt.Errorf("tune: trial %d: %w", rec.ID, err)
				eng.Halt()
				return
			}
		}
	}

	first := searcher.Next()
	if len(first) == 0 {
		return nil, errors.New("tune: searcher proposed no trials")
	}
	submit(first)
	if loopErr != nil {
		return nil, loopErr
	}
	if err := eng.Run(); err != nil && loopErr == nil {
		return nil, fmt.Errorf("tune: %w", err)
	}
	if loopErr != nil {
		return nil, loopErr
	}
	if res.Best == nil {
		return nil, errors.New("tune: searcher proposed no trials")
	}
	// The makespan is the last trial completion, not eng.Now(): a revoked
	// spot node's replacement arrival may trail the final completion.
	// Without spot capacity the two coincide, keeping legacy output
	// bit-identical.
	for i := range res.Trials {
		if res.Trials[i].End > res.TuningTime {
			res.TuningTime = res.Trials[i].End
		}
	}
	return res, nil
}

// runBatch executes one searcher batch on the execution backend and
// returns the records in suggestion order (deterministic). The tuning
// layer resolves each suggestion into a concrete trial body — applied
// hyperparameters, budget-scaled epochs, validated system footprint,
// derived trial seed, per-trial observer — and the backend only decides
// where that body computes. A cancelled context skips trials that have
// not started yet; trials already inside a trainer run to completion (a
// trial body is the cancellation granularity). On error the records
// completed so far are still returned (their Result is non-nil) so the
// caller can salvage their knowledge.
func (r *Runner) runBatch(ctx context.Context, spec JobSpec, batch []search.Suggestion, workers int) ([]TrialRecord, error) {
	records := make([]TrialRecord, len(batch))
	errs := make([]error, len(batch))
	trials := make([]exec.Trial, 0, len(batch))
	idx := make([]int, 0, len(batch)) // trial position -> record index
	tc := exec.CaptureTrainerConfig(r.Trainer)
	// Cost-aware policies on heterogeneous clusters get a deterministic
	// preferred-class hint stamped on each assignment: the class the policy
	// would choose on an idle cluster, priced from the cost model's
	// predicted duration. Actual placement is re-decided at simulated
	// dispatch against live occupancy; the hint only routes the compute.
	chooser, _ := r.policyFor(spec).(sched.ClassChooser)
	var hintPool *sched.Pool
	if chooser != nil {
		if p := r.Cluster.SchedPool(); p.NumClasses() > 0 {
			hintPool = p
		}
	}
	for i, sug := range batch {
		// Cancellation outranks per-trial validation, as it did when the
		// pre-refactor pool checked the context before each trial body: a
		// cancelled job must classify as cancelled even when the batch
		// also contains an unfittable suggestion.
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("tune: job cancelled: %w", err)
			continue
		}
		h := sug.Assignment.ApplyHyper(spec.BaseHyper)
		// HyperBand rungs scale the epoch budget.
		if sug.BudgetFrac > 0 && sug.BudgetFrac < 1 {
			scaled := int(float64(h.Epochs)*sug.BudgetFrac + 0.5)
			if scaled < 1 {
				scaled = 1
			}
			h.Epochs = scaled
		}
		sys := spec.BaseSys
		if spec.Mode == ModeV2 {
			sys = sug.Assignment.ApplySys(spec.BaseSys)
			if !r.Cluster.Fits(sys) {
				errs[i] = fmt.Errorf("tune: trial config %v does not fit the cluster", sys)
				continue
			}
		}
		var obs trainer.EpochObserver
		if spec.TrialObserver != nil {
			obs = spec.TrialObserver(sug.ID)
		}
		var restart func()
		if spec.TrialRestart != nil {
			id := sug.ID
			restart = func() { spec.TrialRestart(id) }
		}
		records[i] = TrialRecord{
			ID:         sug.ID,
			Assignment: sug.Assignment.Clone(),
			Hyper:      h,
			StartSys:   sys,
			BudgetFrac: sug.BudgetFrac,
		}
		seed := trialSeed(spec.Seed, sug.ID)
		var cacheKey string
		if r.Trainer.Cache != nil {
			// Derive the prefix-cache key once here so every backend —
			// the in-process pool and each remote worker — uses the
			// submitting trainer's key, not a locally re-derived one.
			cacheKey = r.Trainer.PrefixKey(spec.Workload, h, seed)
		}
		var classHint string
		if hintPool != nil {
			if d, err := r.Trainer.PredictDuration(spec.Workload, h, sys); err == nil {
				classHint = sched.PreferredClass(hintPool, chooser, sys, d)
			}
		}
		trials = append(trials, exec.Trial{
			ID:       sug.ID,
			Workload: spec.Workload,
			Hyper:    h,
			Sys:      sys,
			Seed:     seed,
			Observer: obs,
			Restart:  restart,
			Trainer:  tc,
			CacheKey: cacheKey,
			Class:    classHint,
		})
		idx = append(idx, i)
	}
	results, runErrs := r.backend().Run(ctx, trials, workers)
	for k, i := range idx {
		if err := runErrs[k]; err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				errs[i] = fmt.Errorf("tune: job cancelled: %w", err)
			} else {
				errs[i] = fmt.Errorf("tune: trial %d: %w", records[i].ID, err)
			}
			records[i] = TrialRecord{} // failed trials leave no partial record
			continue
		}
		records[i].Result = results[k]
		records[i].Score = spec.Objective.Score(results[k])
	}
	for _, err := range errs {
		if err != nil {
			return records, err
		}
	}
	return records, nil
}
