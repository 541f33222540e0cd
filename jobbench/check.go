package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"pipetune"
	"pipetune/api"
	"pipetune/internal/trainer"
)

// checkJob verifies the JobResult invariants every finished job must
// hold, independently of how the result was computed.
func checkJob(j *jobRecord) error {
	res := j.status.Result
	if j.status.State != api.StateDone || res == nil {
		return fmt.Errorf("%s: state %s without result", j.status.ID, j.status.State)
	}
	if want := expectedTrials(j.req.Mode); len(res.Trials) != want {
		return fmt.Errorf("%s: %d trials, HyperBand schedules %d", j.status.ID, len(res.Trials), want)
	}
	// Best is the top score; ties go to the lower trial ID.
	best := -1
	maxEnd, energy := 0.0, 0.0
	for i, t := range res.Trials {
		if t.Result == nil {
			return fmt.Errorf("%s: trial %d has no result", j.status.ID, t.ID)
		}
		if best < 0 || t.Score > res.Trials[best].Score ||
			(t.Score == res.Trials[best].Score && t.ID < res.Trials[best].ID) {
			best = i
		}
		maxEnd = max(maxEnd, t.End)
		energy += t.Result.EnergyJ
	}
	if res.Best == nil {
		return fmt.Errorf("%s: no best trial", j.status.ID)
	}
	got, _ := json.Marshal(res.Best)
	want, _ := json.Marshal(res.Trials[best])
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: best is trial %d, want trial %d", j.status.ID, res.Best.ID, res.Trials[best].ID)
	}
	if res.TuningTime != maxEnd {
		return fmt.Errorf("%s: tuning time %v, last trial ends at %v", j.status.ID, res.TuningTime, maxEnd)
	}
	if res.TotalEnergy != energy {
		return fmt.Errorf("%s: total energy %v, trials sum to %v", j.status.ID, res.TotalEnergy, energy)
	}
	return nil
}

// checkTwins verifies that a PipeTune job learned exactly what its Tune V1
// twin learned: system tuning may change when and where epochs run, never
// which trials the search proposes or what SGD computes. With the trial
// cache on, this also proves cache replays are bit-identical.
func checkTwins(v1, pt *jobRecord) error {
	a, b := v1.status.Result, pt.status.Result
	if len(a.Trials) != len(b.Trials) {
		return fmt.Errorf("twins %s/%s: %d vs %d trials", v1.status.ID, pt.status.ID, len(a.Trials), len(b.Trials))
	}
	byID := make(map[int]int, len(a.Trials))
	for i, t := range a.Trials {
		byID[t.ID] = i
	}
	for _, t := range b.Trials {
		i, ok := byID[t.ID]
		if !ok {
			return fmt.Errorf("twins %s/%s: trial %d only in the PipeTune job", v1.status.ID, pt.status.ID, t.ID)
		}
		u := a.Trials[i]
		if t.Hyper != u.Hyper || t.Result.Accuracy != u.Result.Accuracy ||
			!slices.Equal(trainLosses(t.Result.Epochs), trainLosses(u.Result.Epochs)) {
			return fmt.Errorf("twins %s/%s: trial %d learned differently", v1.status.ID, pt.status.ID, t.ID)
		}
	}
	return nil
}

func trainLosses(epochs []trainer.EpochStats) []float64 {
	out := make([]float64, 0, len(epochs))
	for _, e := range epochs {
		if !e.Init {
			out = append(out, e.TrainLoss)
		}
	}
	return out
}

// checkRerun re-runs a baseline job in-process through System.RunBaseline
// and requires byte-identical canonical JSON: baseline results do not
// depend on the shared ground truth, so the daemon must reproduce the
// library exactly.
func checkRerun(sys *pipetune.System, j *jobRecord) error {
	w, err := api.ParseWorkload(j.req.Workload)
	if err != nil {
		return err
	}
	spec := sys.JobSpec(w)
	spec.Seed = j.req.Seed
	if j.req.Mode == api.ModeTuneV2 {
		spec.Mode = pipetune.ModeV2
		spec.Objective = pipetune.MaximizeAccuracyPerTime
	}
	res, err := sys.RunBaseline(spec)
	if err != nil {
		return fmt.Errorf("%s: re-run: %w", j.status.ID, err)
	}
	got, _ := json.Marshal(j.status.Result)
	want, _ := json.Marshal(res)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: daemon result differs from System.RunBaseline", j.status.ID)
	}
	return nil
}
