// Package dataset synthesises the evaluation corpora of Table 3.
//
// The paper trains on MNIST, Fashion-MNIST, News20 and Rodinia inputs. Those
// corpora are not shippable inside an offline, dependency-free module, so
// this package generates class-structured synthetic stand-ins with the same
// label cardinality and qualitative difficulty ordering:
//
//   - MNIST-style: 10 well-separated Gaussian digit prototypes over a
//     pixel-like feature grid (easiest).
//   - Fashion-MNIST-style: 10 classes with more inter-class overlap
//     (slightly harder, as in the real datasets).
//   - News20-style: 20 topics as sparse bag-of-words count vectors
//     (hardest; text models need capacity to separate them).
//   - Rodinia-style: numeric kernel states labelled by regime (small,
//     4-class task for the Type-III sprinting workloads).
//
// Everything a tuner observes — accuracy trajectories responding to batch
// size, learning rate, dropout, capacity — emerges from genuinely training
// on these sets. Generation is deterministic per (workload, seed).
package dataset

import (
	"fmt"
	"math"

	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// Sample is one labelled feature vector.
type Sample struct {
	Features []float64
	Label    int
}

// Set is an in-memory dataset split.
type Set struct {
	Name       string
	Dim        int
	NumClasses int
	Samples    []Sample
}

// Len returns the number of samples.
func (s *Set) Len() int { return len(s.Samples) }

// Config controls synthetic corpus size. The defaults are deliberately much
// smaller than Table 3's file counts: learning dynamics need only enough
// data to show convergence trends, while simulated epoch *time* is driven by
// the full Table 3 sizes via workload.Traits.
type Config struct {
	TrainSize int
	TestSize  int
}

// DefaultConfig returns the standard scaled-down corpus size.
func DefaultConfig() Config {
	return Config{TrainSize: 1536, TestSize: 512}
}

// Generate synthesises the train/test splits for the given workload's
// dataset. The same (dataset, seed, cfg) always yields identical splits,
// regardless of the model half of the workload.
func Generate(w workload.Workload, seed uint64, cfg Config) (train, test *Set, err error) {
	if cfg.TrainSize <= 0 || cfg.TestSize <= 0 {
		return nil, nil, fmt.Errorf("dataset: non-positive split sizes %+v", cfg)
	}
	// Seed depends only on the dataset so Type-II workloads (two models,
	// one dataset) genuinely share their corpus, as in the paper.
	r := xrand.New(seed ^ (uint64(w.Dataset) * 0x9e3779b97f4a7c15))
	var g generator
	switch w.Dataset {
	case workload.MNIST:
		g = newPrototypeGenerator(r, 10, 64, 2.4, 0.55)
	case workload.FashionMNIST:
		g = newPrototypeGenerator(r, 10, 64, 1.9, 0.70)
	case workload.News20:
		g = newBagOfWordsGenerator(r, 20, 128)
	case workload.Rodinia:
		g = newKernelStateGenerator(r, 4, 32)
	default:
		return nil, nil, fmt.Errorf("dataset: unknown dataset %v", w.Dataset)
	}
	train = g.split(w.Dataset.String()+"/train", cfg.TrainSize)
	test = g.split(w.Dataset.String()+"/test", cfg.TestSize)
	return train, test, nil
}

// generator produces labelled samples from a fixed class structure.
type generator interface {
	split(name string, n int) *Set
}

// prototypeGenerator draws samples as class prototype + isotropic noise:
// the image-classification stand-in. separation controls inter-prototype
// distance; noise controls intra-class spread. Lower separation/noise
// ratios make the task harder.
type prototypeGenerator struct {
	r          *xrand.Source
	classes    int
	dim        int
	noise      float64
	prototypes [][]float64
}

func newPrototypeGenerator(r *xrand.Source, classes, dim int, separation, noise float64) *prototypeGenerator {
	g := &prototypeGenerator{r: r, classes: classes, dim: dim, noise: noise}
	g.prototypes = make([][]float64, classes)
	for c := range g.prototypes {
		p := make([]float64, dim)
		for i := range p {
			p[i] = r.NormFloat64() * separation / math.Sqrt(float64(dim))
		}
		g.prototypes[c] = p
	}
	return g
}

func (g *prototypeGenerator) split(name string, n int) *Set {
	set := &Set{Name: name, Dim: g.dim, NumClasses: g.classes, Samples: make([]Sample, n)}
	for i := 0; i < n; i++ {
		label := i % g.classes // balanced classes
		f := make([]float64, g.dim)
		proto := g.prototypes[label]
		for d := range f {
			f[d] = proto[d] + g.r.NormFloat64()*g.noise
		}
		set.Samples[i] = Sample{Features: f, Label: label}
	}
	shuffle(g.r, set.Samples)
	return set
}

// bagOfWordsGenerator models News20-style text: each topic has a Zipf-ish
// vocabulary preference, documents are sparse non-negative count vectors
// (log1p-scaled). Topics share common stop-words, creating realistic
// overlap that rewards model capacity (embedding width).
type bagOfWordsGenerator struct {
	r        *xrand.Source
	classes  int
	vocab    int
	topicPri [][]float64
}

func newBagOfWordsGenerator(r *xrand.Source, classes, vocab int) *bagOfWordsGenerator {
	g := &bagOfWordsGenerator{r: r, classes: classes, vocab: vocab}
	g.topicPri = make([][]float64, classes)
	// First tenth of the vocabulary is shared "stop words".
	stop := vocab / 10
	for c := range g.topicPri {
		p := make([]float64, vocab)
		for v := 0; v < stop; v++ {
			p[v] = 1.0
		}
		// Each topic strongly prefers an exclusive band plus random extras.
		bandWidth := (vocab - stop) / classes
		start := stop + c*bandWidth
		for v := start; v < start+bandWidth && v < vocab; v++ {
			p[v] = 3.0
		}
		for k := 0; k < vocab/8; k++ {
			p[stop+g.r.Intn(vocab-stop)] += 0.8
		}
		g.topicPri[c] = p
	}
	return g
}

func (g *bagOfWordsGenerator) split(name string, n int) *Set {
	set := &Set{Name: name, Dim: g.vocab, NumClasses: g.classes, Samples: make([]Sample, n)}
	for i := 0; i < n; i++ {
		label := i % g.classes
		pri := g.topicPri[label]
		f := make([]float64, g.vocab)
		// Draw ~vocab/4 word occurrences weighted by topic priority.
		draws := g.vocab / 4
		for d := 0; d < draws; d++ {
			v := g.r.Intn(g.vocab)
			if g.r.Float64() < pri[v]/3.0 {
				f[v]++
			}
		}
		for v := range f {
			f[v] = math.Log1p(f[v])
		}
		set.Samples[i] = Sample{Features: f, Label: label}
	}
	shuffle(g.r, set.Samples)
	return set
}

// kernelStateGenerator models the Rodinia Type-III tasks: low-dimensional
// numeric states (grid residuals, frontier sizes, centroid spreads)
// labelled by operating regime. Moderate difficulty, tiny dimensionality.
type kernelStateGenerator struct {
	r       *xrand.Source
	classes int
	dim     int
	centers [][]float64
}

func newKernelStateGenerator(r *xrand.Source, classes, dim int) *kernelStateGenerator {
	g := &kernelStateGenerator{r: r, classes: classes, dim: dim}
	g.centers = make([][]float64, classes)
	for c := range g.centers {
		center := make([]float64, dim)
		for i := range center {
			center[i] = float64(c)*0.9 + r.NormFloat64()*0.4
		}
		g.centers[c] = center
	}
	return g
}

func (g *kernelStateGenerator) split(name string, n int) *Set {
	set := &Set{Name: name, Dim: g.dim, NumClasses: g.classes, Samples: make([]Sample, n)}
	for i := 0; i < n; i++ {
		label := i % g.classes
		f := make([]float64, g.dim)
		for d := range f {
			f[d] = g.centers[label][d] + g.r.NormFloat64()*0.6
		}
		set.Samples[i] = Sample{Features: f, Label: label}
	}
	shuffle(g.r, set.Samples)
	return set
}

func shuffle(r *xrand.Source, s []Sample) {
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

// EachBatch invokes fn on each contiguous minibatch of perm — indices
// [0,n) permuted by perm (nil for identity order), split into batches of
// size b with the final batch possibly short. It is the canonical epoch
// iteration used by the trainer: one forward+backward per batch, as in
// synchronous minibatch SGD. Batches are subslices of perm, so with a
// non-nil perm the iteration allocates nothing; fn must not retain or
// mutate them. Iteration stops at the first error, which is returned.
func EachBatch(n, b int, perm []int, fn func(batch []int) error) error {
	if b <= 0 || n <= 0 {
		return nil
	}
	idx := identity(n, perm)
	for start := 0; start < n; start += b {
		end := start + b
		if end > n {
			end = n
		}
		if err := fn(idx[start:end]); err != nil {
			return err
		}
	}
	return nil
}

// identity returns perm, or a fresh identity permutation of [0,n) when
// perm is nil.
func identity(n int, perm []int) []int {
	if perm != nil {
		return perm
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}
