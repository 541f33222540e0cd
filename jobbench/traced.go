package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"pipetune/api"
	"pipetune/internal/xrand"
)

// Replay budgets: enough calls for a stable mean, bounded so a traced
// run stays well inside its time limit.
const (
	simReplayBudget = 2 * time.Second
	nnReplayBudget  = 4 * time.Second
)

// runTraced measures the per-layer metrics. The first half of the time
// runs untraced on its own rig, the second half traced on a fresh one;
// their throughput ratio is the tracing overhead.
func runTraced(o options) (*report, error) {
	half := o.seconds / 2
	plain, err := setup(o.workload, o.tmpRoot, false)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	ref, err := runPhase(plain, o, half)
	plain.teardown()
	if err != nil {
		return nil, err
	}

	r, err := setup(o.workload, o.tmpRoot, true)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer r.teardown()
	r.tr.profile = o.cpuProfile
	ph, err := runPhase(r, o, half)
	if err != nil {
		return nil, err
	}

	rep := ph.report()
	ref0 := ref.report()
	rep.Attempted += ref0.Attempted
	rep.Failed += ref0.Failed
	rep.Correct = rep.Correct && ref0.Correct
	m, err := layerMetrics(r, ph, ref, o)
	if err != nil {
		return nil, err
	}
	rep.Metrics = m
	return rep, nil
}

// layerMetrics computes every per-layer metric of the traced phase.
func layerMetrics(r *rig, ph *phase, ref *phase, o options) (map[string]metric, error) {
	t := r.tr
	s0, s1 := t.s0, t.s1
	out := map[string]metric{}
	add := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	ok := ph.ok()

	// service: what the client sees around each job.
	var wait, submit, fetch []float64
	kb := 0.0
	for _, j := range ok {
		if j.status.Started != nil {
			wait = append(wait, j.status.Started.Sub(j.status.Submitted).Seconds())
		}
		submit = append(submit, j.submit.Seconds()*1000)
		fetch = append(fetch, j.fetch.Seconds()*1000)
		body, _ := json.Marshal(j.status)
		kb += float64(len(body)) / 1000
	}
	add("service.queue_wait_p50_s", median(wait), "s")
	add("service.submit_p50_ms", median(submit), "ms")
	add("service.result_fetch_p50_ms", median(fetch), "ms")
	add("service.result_kb", kb/float64(max(len(ok), 1)), "kB")

	// gt: the store decorator, plus compactions replayed on a scratch
	// persistent store.
	lookupS := float64(s1.lookupNs-s0.lookupNs) / 1e9
	addS := float64(s1.addNs-s0.addNs) / 1e9
	compactions, _, _ := t.delta("pipetune_gt_compactions_total")
	compactS, encodeS, err := replayCompactions(r.sys.GroundTruth().Entries(), s0.gt.Entries, int(compactions), o.tmpRoot)
	if err != nil {
		return nil, fmt.Errorf("replay compactions: %w", err)
	}
	// Writing and syncing the log and the snapshots is time the layer is
	// busy but not on a CPU.
	_, _, walS := t.delta("pipetune_gt_wal_fsync_seconds")
	ioS := walS + compactS - encodeS
	add("gt.lookups", float64(s1.lookups-s0.lookups), "count")
	add("gt.lookup_s", lookupS, "s")
	add("gt.adds", float64(s1.adds-s0.adds), "count")
	add("gt.add_s", addS, "s")
	add("gt.entries", float64(s1.gt.Entries), "count")
	add("gt.compact_s", compactS, "s")
	add("gt.io_s", ioS, "s")

	// exec: the backend decorator and the execution plane's own series.
	trials := float64(s1.trials - s0.trials)
	runS := float64(s1.runNs-s0.runNs) / 1e9
	wireBytes, _, _ := t.delta("pipetune_exec_wire_bytes_total")
	wireFrames, _, _ := t.delta("pipetune_exec_wire_frames_total")
	requeues, _, _ := t.delta("pipetune_exec_requeues_total")
	_, _, workerTrialS := t.delta("pipetune_worker_trial_seconds")
	add("exec.run_s", runS, "s")
	add("exec.trial_errors", float64(s1.trialErrs-s0.trialErrs), "count")
	add("exec.requeues", requeues, "count")
	add("exec.wire_bytes_per_trial", wireBytes/max(trials, 1), "B")
	add("exec.wire_frames_per_trial", wireFrames/max(trials, 1), "count")
	add("exec.worker_trial_s", workerTrialS, "s")

	// tune: the job loop is what a job's run time leaves after the
	// execution plane and the ground-truth writes it waits on.
	jobRun := 0.0
	recorded := 0
	for _, j := range ok {
		recorded += len(j.status.Result.Trials)
		if j.status.Started != nil && j.status.Finished != nil {
			jobRun += j.status.Finished.Sub(*j.status.Started).Seconds()
		}
	}
	add("tune.trials", float64(recorded), "count")
	add("tune.batches", float64(s1.batches-s0.batches), "count")
	add("tune.loop_s", jobRun-runS-addS-compactS, "s")

	// core: PipeTune's controller, read from the results and the store.
	hits := float64(s1.gt.Hits - s0.gt.Hits)
	misses := float64(s1.gt.Misses - s0.gt.Misses)
	add("core.gt_hit_ratio", hits/max(hits+misses, 1), "ratio")
	add("core.probe_epoch_frac", probeEpochFrac(ok), "ratio")
	add("core.tuning_reduction_pct", tuningReductionPct(ok), "%")

	// trainer: the prefix cache, and corpus synthesis (a set-up cost).
	sets, corpusS, err := corpora(r.w)
	if err != nil {
		return nil, err
	}
	cs0, cs1 := s0.cache, s1.cache
	lookups := float64((cs1.TrajectoryHits + cs1.CheckpointHits + cs1.FlightHits + cs1.Misses) -
		(cs0.TrajectoryHits + cs0.CheckpointHits + cs0.FlightHits + cs0.Misses))
	cacheHits := float64((cs1.TrajectoryHits + cs1.CheckpointHits + cs1.FlightHits) -
		(cs0.TrajectoryHits + cs0.CheckpointHits + cs0.FlightHits))
	add("trainer.cache_hit_ratio", cacheHits/max(lookups, 1), "ratio")
	add("trainer.cache_epochs_saved", float64(cs1.EpochsSaved-cs0.EpochsSaved), "count")
	add("trainer.cache_evictions", float64(cs1.Evictions-cs0.Evictions), "count")
	add("trainer.corpus_s", corpusS, "s")

	// nn and the simulation plane: counts from the run, CPU from serial
	// replays over a seeded sample of the recorded trials.
	refs := recordedTrials(ok)
	order := xrand.New(o.seed).Perm(len(refs))
	_, epochs, trainWall := t.delta("nn_train_epoch_seconds")
	_, wEpochs, wTrainWall := t.delta("pipetune_worker_train_epoch_seconds")
	_, evals, _ := t.delta("nn_eval_seconds")
	_, wEvals, _ := t.delta("pipetune_worker_eval_seconds")
	epochs, evals, trainWall = epochs+wEpochs, evals+wEvals, trainWall+wTrainWall
	// Every trial builds its network once, except those the prefix
	// cache replayed whole or joined in flight.
	builds := float64(len(refs)) -
		float64((cs1.TrajectoryHits+cs1.FlightHits)-(cs0.TrajectoryHits+cs0.FlightHits))
	nc := replayNN(refs, order, sets, nnReplayBudget)
	trainS := perCall(nc.trainS, nc.trainEpochs) * epochs
	evalS := perCall(nc.evalS, nc.evals) * evals
	buildS := perCall(nc.buildS, nc.builds) * builds
	add("nn.train_epochs", epochs, "count")
	add("nn.train_s", trainS, "s")
	add("nn.train_wall_s", trainWall, "s")
	add("nn.train_samples_per_s", epochs*float64(r.w.TrainSize)/max(trainS, 1e-9), "1/s")
	add("nn.evals", evals, "count")
	add("nn.eval_s", evalS, "s")
	add("nn.builds", builds, "count")
	add("nn.build_s", buildS, "s")

	sc := replaySim(refs, order, simReplayBudget)
	perfS, costS, energyS := sc.scale(sc.perfS), sc.scale(sc.costS), sc.scale(sc.energyS)
	cpuS := s1.cpu - s0.cpu
	add("perf.samples", float64(sc.samples), "count")
	add("perf.profile_s", perfS, "s")
	add("costmodel.epoch_s", costS, "s")
	add("energy.series_s", energyS, "s")
	add("sim.share", (perfS+costS+energyS)/cpuS, "ratio")

	attributed := trainS + evalS + buildS + perfS + costS + energyS + lookupS + addS + compactS - ioS
	add("trace.cpu_s", cpuS, "s")
	add("trace.unattributed_s", cpuS-attributed, "s")
	add("trace.overhead_frac", 1-ph.jobsPerS()/ref.jobsPerS(), "ratio")

	// The busy times above are replay cost times the run's call counts,
	// so they hold only while each replay reproduces its recorded trial.
	if nc.lossMismatch+sc.energyMismatch+sc.durMismatch > 0 {
		return nil, fmt.Errorf("replay diverged from the record: %d losses, %d energies, %d durations",
			nc.lossMismatch, sc.energyMismatch, sc.durMismatch)
	}
	fmt.Fprintf(os.Stderr, "jobbench: replayed %d/%d trials through nn and %d/%d epochs through the simulation plane\n",
		nc.builds, len(refs), sc.replayed, sc.epochs)
	return out, nil
}

// probeEpochFrac is the share of PipeTune training epochs that ran on a
// configuration other than the one the trial settled on.
func probeEpochFrac(jobs []*jobRecord) float64 {
	probe, total := 0, 0
	for _, j := range jobs {
		if j.req.Mode != api.ModePipeTune {
			continue
		}
		for _, t := range j.status.Result.Trials {
			for _, e := range t.Result.Epochs {
				if e.Init {
					continue
				}
				total++
				if e.Sys != t.Result.FinalSys {
					probe++
				}
			}
		}
	}
	return float64(probe) / float64(max(total, 1))
}

// tuningReductionPct compares twin pairs: how much shorter PipeTune's
// simulated tuning time is than Tune V1's on the same search.
func tuningReductionPct(jobs []*jobRecord) float64 {
	v1, pt := 0.0, 0.0
	for _, j := range jobs {
		if j.twin == nil || j.req.Mode != api.ModePipeTune || j.twin.err != nil {
			continue
		}
		pt += j.status.Result.TuningTime
		v1 += j.twin.status.Result.TuningTime
	}
	if v1 == 0 {
		return 0
	}
	return 100 * (1 - pt/v1)
}
