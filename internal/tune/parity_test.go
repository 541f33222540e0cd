package tune

import (
	"encoding/json"
	"sort"
	"sync"
	"testing"

	"pipetune/internal/cluster"
	"pipetune/internal/dataset"
	"pipetune/internal/exec"
	"pipetune/internal/params"
	"pipetune/internal/trainer"
	"pipetune/internal/workload"
)

// Shared fixtures for the RunJob golden digest (golden_test.go) and the
// local-backend checks below: a small catalog job, its runner, a stateful
// probing observer, and the canonical JSON rendering results are
// compared by.

// parityRunner builds a fast runner over the paper cluster.
func parityRunner() *Runner {
	tr := trainer.NewRunner()
	tr.Data = dataset.Config{TrainSize: 96, TestSize: 48}
	return NewRunner(tr, cluster.Paper())
}

// paritySpec is the standard catalog job, small enough to sweep.
func paritySpec(w workload.Workload, mode Mode, seed uint64) JobSpec {
	h := params.DefaultHyper()
	h.Epochs = 3
	obj := MaximizeAccuracy
	if mode == ModeV2 {
		obj = MaximizeAccuracyPerTime
	}
	return JobSpec{
		Workload:  w,
		Mode:      mode,
		Objective: obj,
		HyperSpace: params.Space{
			{Name: params.KeyBatchSize, Values: []float64{32, 256, 1024}},
			{Name: params.KeyLearningRate, Values: []float64{0.005, 0.05}},
		},
		SystemSpace: params.Space{
			{Name: params.KeyCores, Values: []float64{4, 16}},
			{Name: params.KeyMemoryGB, Values: []float64{8, 32}},
		},
		BaseHyper: h,
		BaseSys:   params.DefaultSysConfig(),
		Seed:      seed,
	}
}

// mustJSON renders a JobResult for byte comparison.
func mustJSON(t *testing.T, res *JobResult) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// probeObserver is a stateful per-trial epoch observer standing in for
// PipeTune's controller: epoch 1 switches to the probe config, epoch 2
// settles back. It exercises the TrialObserver plumbing (and the resize
// events it produces) without importing internal/core.
type probeObserver struct {
	mu     sync.Mutex
	epochs map[int]int
}

func (p *probeObserver) observerFor(trialID int) trainer.EpochObserver {
	return trainer.ObserverFunc(func(_ uint64, _ workload.Workload, _ params.Hyper, s trainer.EpochStats) *params.SysConfig {
		p.mu.Lock()
		p.epochs[trialID]++
		n := p.epochs[trialID]
		p.mu.Unlock()
		switch n {
		case 1:
			return &params.SysConfig{Cores: 16, MemoryGB: 32}
		case 2:
			return &params.SysConfig{Cores: 8, MemoryGB: 8}
		default:
			return nil
		}
	})
}

// TestExplicitLocalBackendIsDefault pins that a Runner with Exec unset
// and one with an explicit exec.NewLocal produce identical results —
// the nil default is not a third code path.
func TestExplicitLocalBackendIsDefault(t *testing.T) {
	w := workload.Workload{Model: workload.CNN, Dataset: workload.News20}
	spec := paritySpec(w, ModeV1, 11)
	implicit, err := parityRunner().RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := parityRunner()
	r.Exec = exec.NewLocal(r.Trainer)
	explicit, err := r.RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, implicit) != mustJSON(t, explicit) {
		t.Fatal("explicit exec.Local diverges from the nil default")
	}
}

// TestParityProgressOrdering sanity-checks what the golden digest pins:
// the progress curve must be sorted by simulated completion time (a
// scrambled curve would make the byte comparison meaningless).
func TestParityProgressOrdering(t *testing.T) {
	spec := paritySpec(workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}, ModeV1, 42)
	res, err := parityRunner().RunJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(res.Progress, func(i, j int) bool {
		return res.Progress[i].Time < res.Progress[j].Time
	}) {
		t.Fatal("progress curve not in completion-time order")
	}
}
