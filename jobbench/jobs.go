package main

import (
	"fmt"
	"math"

	"pipetune"
	"pipetune/api"
	"pipetune/internal/xrand"
)

// Seeds recorded for claims made against this benchmark: tune against
// DevSeed, then confirm the claim on HeldOutSeed, which must not be used
// while the change is written.
const (
	DevSeed     uint64 = 1
	HeldOutSeed uint64 = 20261017
)

// Workload is one named traffic mix: the system configuration the daemon
// runs with and the classes of jobs the generator draws from.
type Workload struct {
	Name string
	// TrainSize and TestSize are the synthetic corpus of every dataset.
	TrainSize, TestSize int
	// Fleet routes trial bodies over exec.Remote to in-process worker
	// agents on the binary stream, and persists the ground truth.
	Fleet bool
	// Cache enables the trial prefix cache with its default budget.
	Cache bool
	// Twins makes every generated item a pair: a tune-v1 job and a
	// pipetune job with the same workload and seed, submitted together.
	Twins bool
	// Classes is the (workload, mode) deck; for twin workloads only the
	// workload of each class is used.
	Classes []Class
}

// Class is one kind of job in a workload's mix.
type Class struct {
	Workload string
	Mode     string
}

// typeIandII are the four Type-I/II workloads of Table 3: the deep
// learning models whose trials train a real network.
var typeIandII = []string{"lenet/mnist", "lenet/fashion", "cnn/news20", "lstm/news20"}

// Workloads lists the benchmark's traffic mixes. Their names are cited by
// later performance claims; README.md records why each exists.
var Workloads = []Workload{
	{
		Name:      "fleet-pipetune",
		TrainSize: 64, TestSize: 32,
		Fleet:   true,
		Classes: classes(catalogNames(), api.ModePipeTune),
	},
	{
		Name:      "local-baselines",
		TrainSize: 256, TestSize: 64,
		Classes: classes(typeIandII, api.ModeTuneV1, api.ModeTuneV2),
	},
	{
		Name:      "local-twins-cached",
		TrainSize: 256, TestSize: 64,
		Cache:   true,
		Twins:   true,
		Classes: classes(typeIandII, api.ModeTuneV1),
	},
}

// findWorkload resolves a workload by name.
func findWorkload(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

func catalogNames() []string {
	var out []string
	for _, w := range pipetune.Catalog() {
		out = append(out, w.Name())
	}
	return out
}

func classes(workloads []string, modes ...string) []Class {
	var out []Class
	for _, w := range workloads {
		for _, m := range modes {
			out = append(out, Class{Workload: w, Mode: m})
		}
	}
	return out
}

// Item is one unit of client work: a single job, or a twin pair.
type Item struct {
	Class Class
	Jobs  []api.JobRequest
}

// Generate draws the first n items of the workload's job list for seed.
// The list is a sequence of decks: each deck holds every class once, in
// a seeded order, and each job gets a seeded non-zero job seed. Decks
// keep every prefix of the list close to the workload's nominal mix, so
// runs that complete different numbers of jobs still measure the same
// mix.
func Generate(w Workload, seed uint64, n int) []Item {
	r := xrand.New(seed ^ 0x6a6f6262656e6368) // "jobbench"
	out := make([]Item, 0, n)
	for len(out) < n {
		for _, ci := range r.Perm(len(w.Classes)) {
			if len(out) == n {
				break
			}
			c := w.Classes[ci]
			jobSeed := r.Uint64()>>1 | 1 // 0 would select the daemon's master seed
			it := Item{Class: c}
			if w.Twins {
				for _, mode := range []string{api.ModeTuneV1, api.ModePipeTune} {
					it.Jobs = append(it.Jobs, api.JobRequest{Workload: c.Workload, Mode: mode, Seed: jobSeed})
				}
			} else {
				it.Jobs = []api.JobRequest{{Workload: c.Workload, Mode: c.Mode, Seed: jobSeed}}
			}
			out = append(out, it)
		}
	}
	return out
}

// hyperbandTrials is the number of trials the default HyperBand searcher
// (R=9, eta=3) proposes over the given number of bracket sweeps: it does
// not depend on scores, only on the bracket structure.
func hyperbandTrials(iterations int) int {
	const maxR, eta = 9.0, 3.0
	sMax := int(math.Floor(math.Log(maxR) / math.Log(eta)))
	total := 0
	for s := sMax; s >= 0; s-- {
		n := int(math.Ceil(float64(sMax+1) / float64(s+1) * math.Pow(eta, float64(s))))
		for rung := 0; rung <= s && n > 0; rung++ {
			total += n
			n = int(math.Floor(float64(n) / eta))
			if n < 1 {
				n = 1
			}
		}
	}
	return total * iterations
}

// expectedTrials is the trial count a job of the given mode must report.
// Tune V2 folds the system grid into the search space and repeats the
// bracket structure about sqrt(grid size) times, clamped to [1, 4].
func expectedTrials(mode string) int {
	if mode != api.ModeTuneV2 {
		return hyperbandTrials(1)
	}
	it := int(math.Sqrt(float64(pipetune.PaperSystemSpace().Size())) + 0.5)
	it = max(1, min(it, 4))
	return hyperbandTrials(it)
}
