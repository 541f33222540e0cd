package tune

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"pipetune/internal/golden"
	"pipetune/internal/sched"
	"pipetune/internal/workload"
)

// TestGoldenRunJob pins RunJob to one digest: canonical JobResult JSON
// for the catalog under FIFO (grid and HyperBand searchers), ModeV2, the
// SJF and backfill placement policies and the TrialObserver resize path.
// Each job runs on a fresh Runner.
func TestGoldenRunJob(t *testing.T) {
	golden.SkipUnlessPinnedArch(t)
	if testing.Short() {
		t.Skip("catalog golden run skipped in -short mode")
	}
	lenet := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	type job struct {
		name   string
		runner func() *Runner
		spec   func() JobSpec
	}
	var jobs []job
	for _, w := range workload.Catalog() {
		w := w
		jobs = append(jobs, job{"parity " + w.Name(), parityRunner, func() JobSpec { return paritySpec(w, ModeV1, 42) }})
	}
	jobs = append(jobs,
		job{"v2-fifo", parityRunner, func() JobSpec { return paritySpec(lenet, ModeV2, 7) }},
		job{"v1-sjf", parityRunner, func() JobSpec {
			s := paritySpec(lenet, ModeV1, 7)
			s.Policy = sched.SJF()
			return s
		}},
		job{"v1-backfill", parityRunner, func() JobSpec {
			s := paritySpec(lenet, ModeV1, 7)
			s.Policy = sched.Backfill()
			return s
		}},
		job{"v1-observed", parityRunner, func() JobSpec {
			s := paritySpec(lenet, ModeV1, 7)
			obs := &probeObserver{epochs: make(map[int]int)}
			s.TrialObserver = obs.observerFor
			return s
		}},
		job{"grid-v1", testRunner, func() JobSpec { return baseSpec(ModeV1, MaximizeAccuracy) }},
		job{"grid-v2", testRunner, func() JobSpec { return baseSpec(ModeV2, MaximizeAccuracyPerTime) }},
		job{"hyperband-v1", testRunner, hyperbandSpec},
	)
	for _, w := range workload.Catalog() {
		w := w
		jobs = append(jobs, job{"catalog " + w.Name(), catalogRunner, func() JobSpec { return catalogSpec(w) }})
	}

	var buf bytes.Buffer
	for _, j := range jobs {
		res, err := j.runner().RunJob(j.spec())
		if err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s %s\n", j.name, js)
	}
	golden.Check(t, "../../testdata/golden/tune_runjob.sha256", buf.Bytes())
}
