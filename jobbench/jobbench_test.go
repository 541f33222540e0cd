package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"pipetune/api"
)

// benchmarkFile is the repository's BENCHMARK.json, as far as the
// benchmark's own output must honour it.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmokeEveryMetric runs every workload briefly, untraced and traced,
// and requires every metric BENCHMARK.json names, with its unit. A traced
// run whose replays diverge from the recorded trials returns an error, so
// this also requires the replays to reproduce the run bit for bit.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	for _, bw := range bf.Workloads {
		w, err := findWorkload(bw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			rep, err := run(options{workload: w, seed: DevSeed, seconds: 1, trace: traced, setups: 1, tmpRoot: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: printed %d metrics, BENCHMARK.json names %d", w.Name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v (ok=%v), want unit %q", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestTamperedTwinFailsCheck alters one trial's accuracy in a PipeTune
// twin after the daemon returned it: the output check must catch it.
func TestTamperedTwinFailsCheck(t *testing.T) {
	w, err := findWorkload("local-twins-cached")
	if err != nil {
		t.Fatal(err)
	}
	tampered := 0
	rep, err := run(options{workload: w, seed: DevSeed, seconds: 1, setups: 1, tmpRoot: t.TempDir(),
		mutate: func(j *jobRecord) {
			if j.req.Mode != api.ModePipeTune || tampered > 0 {
				return
			}
			res := j.status.Result
			for i := range res.Trials {
				if res.Trials[i].ID != res.Best.ID {
					res.Trials[i].Result.Accuracy += 1e-9
					tampered++
					return
				}
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if tampered != 1 {
		t.Fatalf("tampered with %d jobs, want 1", tampered)
	}
	if rep.Correct || rep.Failed != 1 {
		t.Fatalf("tampered run: correct=%v failed=%d, want the check to fail exactly one job", rep.Correct, rep.Failed)
	}
}

// TestCheckJobInvariants breaks each JobResult invariant in turn.
func TestCheckJobInvariants(t *testing.T) {
	w, err := findWorkload("fleet-pipetune")
	if err != nil {
		t.Fatal(err)
	}
	w.Fleet = false // the local backend computes the same result faster
	r, err := setup(w, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.teardown()
	ph, err := runPhase(r, options{seed: DevSeed}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	ok := ph.ok()
	if len(ok) == 0 {
		t.Fatal("no job finished")
	}
	good := ok[0]
	for name, breakIt := range map[string]func(*api.JobResult){
		"trial count":  func(r *api.JobResult) { r.Trials = r.Trials[1:] },
		"tuning time":  func(r *api.JobResult) { r.TuningTime++ },
		"total energy": func(r *api.JobResult) { r.TotalEnergy *= 1.0000001 },
		"best":         func(r *api.JobResult) { r.Best.Score = -1 },
	} {
		j := *good
		j.status.Result = good.status.Result.Clone()
		breakIt(j.status.Result)
		if checkJob(&j) == nil {
			t.Errorf("%s: broken result passed the check", name)
		}
	}
	if err := checkJob(good); err != nil {
		t.Errorf("untouched result failed: %v", err)
	}
}

func TestGenerateIsSeeded(t *testing.T) {
	w, err := findWorkload("local-baselines")
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := Generate(w, DevSeed, 40), Generate(w, DevSeed, 40), Generate(w, HeldOutSeed, 40)
	if !slices.EqualFunc(a, b, itemEqual) {
		t.Fatal("same seed, different job lists")
	}
	if slices.EqualFunc(a, c, itemEqual) {
		t.Fatal("different seeds, same job list")
	}
	// Every deck holds each class exactly once.
	for d := 0; d+len(w.Classes) <= len(a); d += len(w.Classes) {
		seen := map[Class]int{}
		for _, it := range a[d : d+len(w.Classes)] {
			seen[it.Class]++
		}
		if len(seen) != len(w.Classes) {
			t.Fatalf("deck at %d covers %d of %d classes", d, len(seen), len(w.Classes))
		}
	}
}

func itemEqual(x, y Item) bool { return x.Class == y.Class && slices.Equal(x.Jobs, y.Jobs) }

func TestExpectedTrials(t *testing.T) {
	if got := expectedTrials(api.ModeTuneV1); got != 22 {
		t.Errorf("tune-v1: %d trials, want 22", got)
	}
	if got := expectedTrials(api.ModePipeTune); got != 22 {
		t.Errorf("pipetune: %d trials, want 22", got)
	}
	if got := expectedTrials(api.ModeTuneV2); got != 66 {
		t.Errorf("tune-v2: %d trials, want 66", got)
	}
}
