package tune

// Tests for the event-driven scheduler: determinism, alternative
// placement policies, and the monotone-progress regression. Its FIFO
// results are pinned by TestGoldenRunJob.

import (
	"testing"

	"pipetune/internal/cluster"
	"pipetune/internal/dataset"
	"pipetune/internal/params"
	"pipetune/internal/sched"
	"pipetune/internal/search"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// hyperbandSpec is baseSpec with the evaluation's default searcher.
func hyperbandSpec() JobSpec {
	spec := baseSpec(ModeV1, MaximizeAccuracy)
	spec.Searcher = nil // default: HyperBand
	return spec
}

// catalogRunner and catalogSpec are the standard V1 HyperBand job over a
// Table 3 workload: paper search spaces, 4 epochs, seed 42, corpus 128/64.
func catalogRunner() *Runner {
	tr := trainer.NewRunner()
	tr.Data = dataset.Config{TrainSize: 128, TestSize: 64}
	return NewRunner(tr, cluster.Paper())
}

func catalogSpec(w workload.Workload) JobSpec {
	h := params.DefaultHyper()
	h.Epochs = 4
	return JobSpec{
		Workload:    w,
		Mode:        ModeV1,
		Objective:   MaximizeAccuracy,
		HyperSpace:  params.PaperHyperSpace(),
		SystemSpace: params.PaperSystemSpace(),
		BaseHyper:   h,
		BaseSys:     params.DefaultSysConfig(),
		Seed:        42,
	}
}

func TestEventSchedulerDeterministic(t *testing.T) {
	for _, policy := range []sched.Policy{sched.FIFO(), sched.SJF(), sched.Backfill()} {
		run := func() *JobResult {
			r := testRunner()
			spec := hyperbandSpec()
			spec.Policy = policy
			res, err := r.RunJob(spec)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if a.TuningTime != b.TuningTime || a.Best.ID != b.Best.ID || a.Best.Score != b.Best.Score {
			t.Fatalf("%s: same seed diverged: %v/%d vs %v/%d",
				policy.Name(), a.TuningTime, a.Best.ID, b.TuningTime, b.Best.ID)
		}
		for i := range a.Trials {
			if a.Trials[i].ID != b.Trials[i].ID || a.Trials[i].Start != b.Trials[i].Start {
				t.Fatalf("%s: trial schedule diverged at %d", policy.Name(), i)
			}
		}
	}

	// The catalog HyperBand job under FIFO: a second run on a fresh
	// Runner reproduces the first byte for byte.
	catalog := workload.Catalog()
	if testing.Short() {
		catalog = catalog[:2]
	}
	for _, w := range catalog {
		a, err := catalogRunner().RunJob(catalogSpec(w))
		if err != nil {
			t.Fatal(err)
		}
		b, err := catalogRunner().RunJob(catalogSpec(w))
		if err != nil {
			t.Fatal(err)
		}
		if mustJSON(t, a) != mustJSON(t, b) {
			t.Fatalf("%s: same seed diverged", w.Name())
		}
	}
}

func TestEventSchedulerProgressMonotone(t *testing.T) {
	// Regression for the async refactor: the progress curve must be
	// monotone in both time and best accuracy without any post-hoc sort —
	// completions arrive in simulated time order.
	r := testRunner()
	res, err := r.RunJob(hyperbandSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Progress) != len(res.Trials) {
		t.Fatalf("progress has %d points, want %d", len(res.Progress), len(res.Trials))
	}
	for i := 1; i < len(res.Progress); i++ {
		if res.Progress[i].Time < res.Progress[i-1].Time {
			t.Fatalf("progress time decreased at %d: %v < %v",
				i, res.Progress[i].Time, res.Progress[i-1].Time)
		}
		if res.Progress[i].BestAccuracy < res.Progress[i-1].BestAccuracy {
			t.Fatalf("best-accuracy curve decreased at %d", i)
		}
	}
	if res.TuningTime != res.Progress[len(res.Progress)-1].Time {
		t.Fatalf("TuningTime %v != last completion %v",
			res.TuningTime, res.Progress[len(res.Progress)-1].Time)
	}
}

func TestEventSchedulerObservesIncrementally(t *testing.T) {
	// The searcher must receive exactly one report per completed trial, in
	// completion order — not one batched Observe per rung.
	r := testRunner()
	spec := baseSpec(ModeV1, MaximizeAccuracy)
	var calls [][]search.Report
	spec.Searcher = func(space params.Space, rng *xrand.Source) (search.Searcher, error) {
		g, err := search.NewGrid(space, 0, 0)
		if err != nil {
			return nil, err
		}
		return &observeSpy{Searcher: g, calls: &calls}, nil
	}
	res, err := r.RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(res.Trials) {
		t.Fatalf("Observe called %d times, want once per trial (%d)", len(calls), len(res.Trials))
	}
	for i, reports := range calls {
		if len(reports) != 1 {
			t.Fatalf("Observe call %d carried %d reports, want 1", i, len(reports))
		}
		if reports[0].ID != res.Trials[i].ID {
			t.Fatalf("Observe call %d reported trial %d, completion order says %d",
				i, reports[0].ID, res.Trials[i].ID)
		}
	}
}

// observeSpy records every Observe call made by the runner.
type observeSpy struct {
	search.Searcher
	calls *[][]search.Report
}

func (s *observeSpy) Observe(reports []search.Report) {
	cp := make([]search.Report, len(reports))
	copy(cp, reports)
	*s.calls = append(*s.calls, cp)
	s.Searcher.Observe(reports)
}

func TestPolicyPrecedence(t *testing.T) {
	r := testRunner()
	if got := r.policyFor(JobSpec{}); got.Name() != sched.NameFIFO {
		t.Fatalf("default policy %s, want fifo", got.Name())
	}
	r.Policy = sched.SJF()
	if got := r.policyFor(JobSpec{}); got.Name() != sched.NameSJF {
		t.Fatalf("runner policy not honoured: %s", got.Name())
	}
	if got := r.policyFor(JobSpec{Policy: sched.Backfill()}); got.Name() != sched.NameBackfill {
		t.Fatalf("spec policy not honoured: %s", got.Name())
	}
}

func TestResizeEventsFromEpochLog(t *testing.T) {
	// A PipeTune-style trial that probes two configurations and settles
	// must yield one resize event per configuration switch.
	r := testRunner()
	spec := baseSpec(ModeV1, MaximizeAccuracy)
	spec.BaseHyper.Epochs = 3
	probe := params.SysConfig{Cores: 16, MemoryGB: 16}
	settle := params.SysConfig{Cores: 4, MemoryGB: 8}
	spec.TrialObserver = func(trialID int) trainer.EpochObserver {
		return trainer.ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s trainer.EpochStats) *params.SysConfig {
			switch s.Epoch {
			case 1:
				cfg := probe
				return &cfg
			case 2:
				cfg := settle
				return &cfg
			}
			return nil
		})
	}
	res, err := r.RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Trials {
		events := resizeEvents(rec.Result)
		if len(events) != 2 {
			t.Fatalf("trial %d: %d resize events, want 2", rec.ID, len(events))
		}
		if events[0].Sys != probe || events[1].Sys != settle {
			t.Fatalf("trial %d: resize targets %v, want [%v %v]", rec.ID, events, probe, settle)
		}
		if !(0 < events[0].Offset && events[0].Offset < events[1].Offset) {
			t.Fatalf("trial %d: offsets not increasing: %v", rec.ID, events)
		}
		if rec.Resizes+rec.ResizesDenied != 2 {
			t.Fatalf("trial %d: scheduler saw %d+%d resizes, want 2",
				rec.ID, rec.Resizes, rec.ResizesDenied)
		}
	}
}
