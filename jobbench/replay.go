package main

import (
	"time"

	"pipetune/api"
	"pipetune/internal/costmodel"
	"pipetune/internal/dataset"
	"pipetune/internal/energy"
	"pipetune/internal/nn"
	"pipetune/internal/params"
	"pipetune/internal/perf"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// Serial replays of the pure layers. During the timed phase trial bodies
// run on many goroutines over two CPUs, so wall time measured inside a
// trial counts time spent waiting for a CPU. Replaying the same calls
// one at a time afterwards measures what each layer costs in CPU; a
// layer's busy time is its mean replayed cost per call times the number
// of calls the run made. Replays stop after a time budget, on a seeded
// sample of the recorded trials.

// trialRef is one recorded trial with the inputs its body ran on.
type trialRef struct {
	w    workload.Workload
	h    params.Hyper
	seed uint64
	res  *trainer.Result
}

// recordedTrials lists the trials of the jobs that passed the check.
func recordedTrials(jobs []*jobRecord) []trialRef {
	var out []trialRef
	for _, j := range jobs {
		for _, t := range j.status.Result.Trials {
			out = append(out, trialRef{w: t.Result.Workload, h: t.Result.Hyper, seed: trialSeed(j.req.Seed, t.ID), res: t.Result})
		}
	}
	return out
}

// trialSeed is the tuning layer's per-trial seed derivation, so replays
// draw the same random streams the trial bodies drew.
func trialSeed(jobSeed uint64, id int) uint64 {
	return jobSeed ^ (uint64(id)+1)*0x9e3779b97f4a7c15
}

// simCost is the replayed simulation plane.
type simCost struct {
	epochs, samples             int     // recorded totals
	replayed                    int     // epochs replayed
	costS, perfS, energyS       float64 // replayed seconds
	energyMismatch, durMismatch int     // replayed epochs that disagree with the record
}

// replaySim re-runs, per recorded epoch, the trainer's calls into the
// cost model, the PMU sampler and the power model, with the trial's own
// random streams, until the budget is spent.
func replaySim(trials []trialRef, order []int, budget time.Duration) simCost {
	var c simCost
	for _, t := range trials {
		for _, e := range t.res.Epochs {
			c.epochs++
			c.samples += min(max(int(e.Duration), 1), 30) // EpochProfile's per-second samples
		}
	}
	cost, sampler, power := costmodel.Default(), perf.NewSampler(), energy.DefaultPowerModel()
	start := time.Now()
	for _, i := range order {
		if time.Since(start) > budget {
			break
		}
		t := trials[i]
		tr := workload.TraitsFor(t.w)
		rng := xrand.New(t.seed)
		rng.Split() // network init
		rng.Split() // shuffling
		perfRng, powerRng := rng.Split(), rng.Split()
		for _, e := range t.res.Epochs {
			t0 := time.Now()
			var dur, computeFrac float64
			if e.Init {
				dur, computeFrac = cost.InitDuration(tr), 0.3
			} else {
				bd, _ := cost.EpochBreakdown(tr, t.h, e.Sys)
				dur, _ = cost.EpochDuration(tr, t.h, e.Sys)
				computeFrac = bd.ComputeFraction()
			}
			dur = costmodel.WithLoad(dur, 1)
			t1 := time.Now()
			phase := perf.PhaseTrain
			if e.Init {
				phase = perf.PhaseInit
			}
			_, _ = sampler.EpochProfile(perfRng, tr, t.h, e.Sys, phase, dur)
			t2 := time.Now()
			series, _ := power.Series(powerRng, e.Sys, computeFrac, dur)
			joules := energy.Integrate(series)
			t3 := time.Now()
			c.costS += t1.Sub(t0).Seconds()
			c.perfS += t2.Sub(t1).Seconds()
			c.energyS += t3.Sub(t2).Seconds()
			c.replayed++
			if joules != e.EnergyJ {
				c.energyMismatch++
			}
			if dur != e.Duration {
				c.durMismatch++
			}
		}
	}
	return c
}

// scale turns replayed seconds into the run's estimated busy seconds.
func (c simCost) scale(s float64) float64 {
	if c.replayed == 0 {
		return 0
	}
	return s * float64(c.epochs) / float64(c.replayed)
}

// nnCost is the replayed nn layer.
type nnCost struct {
	builds, trainEpochs, evals int // replayed calls
	buildS, trainS, evalS      float64
	lossMismatch               int // replayed epochs whose loss disagrees with the record
}

// corpora synthesises each dataset the trials use, as the trainer does,
// and returns the time synthesis took.
func corpora(w Workload) (map[workload.Dataset][2]*dataset.Set, float64, error) {
	out := map[workload.Dataset][2]*dataset.Set{}
	seed := trainer.NewRunner().DataSeed
	start := time.Now()
	for _, c := range w.Classes {
		wl, err := api.ParseWorkload(c.Workload)
		if err != nil {
			return nil, 0, err
		}
		if _, ok := out[wl.Dataset]; ok {
			continue
		}
		train, test, err := dataset.Generate(wl, seed, dataset.Config{TrainSize: w.TrainSize, TestSize: w.TestSize})
		if err != nil {
			return nil, 0, err
		}
		out[wl.Dataset] = [2]*dataset.Set{train, test}
	}
	return out, time.Since(start).Seconds(), nil
}

// replayNN re-trains recorded trials from scratch, serially: nn.Build,
// then per epoch TrainEpoch and Evaluate, with the trial's own streams.
func replayNN(trials []trialRef, order []int, sets map[workload.Dataset][2]*dataset.Set, budget time.Duration) nnCost {
	var c nnCost
	start := time.Now()
	for _, i := range order {
		if time.Since(start) > budget {
			break
		}
		t := trials[i]
		set := sets[t.w.Dataset]
		rng := xrand.New(t.seed)
		netRng, shuffleRng := rng.Split(), rng.Split()
		t0 := time.Now()
		net, err := nn.Build(t.w.Model, set[0].Dim, set[0].NumClasses, t.h, netRng)
		if err != nil {
			continue
		}
		c.buildS += time.Since(t0).Seconds()
		c.builds++
		for _, e := range t.res.Epochs {
			if e.Init {
				continue
			}
			t0 := time.Now()
			loss, _ := net.TrainEpoch(set[0], t.h.BatchSize, t.h.LearningRate, shuffleRng)
			t1 := time.Now()
			_, _, _ = net.Evaluate(set[1])
			c.trainS += t1.Sub(t0).Seconds()
			c.evalS += time.Since(t1).Seconds()
			c.trainEpochs++
			c.evals++
			if loss != e.TrainLoss {
				c.lossMismatch++
			}
		}
	}
	return c
}

func perCall(total float64, calls int) float64 {
	if calls == 0 {
		return 0
	}
	return total / float64(calls)
}
