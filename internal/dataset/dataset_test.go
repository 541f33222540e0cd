package dataset

import (
	"testing"
	"testing/quick"

	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

func gen(t *testing.T, w workload.Workload) (*Set, *Set) {
	t.Helper()
	train, test, err := Generate(w, 42, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func TestGenerateShapes(t *testing.T) {
	cases := []struct {
		w       workload.Workload
		dim     int
		classes int
	}{
		{workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}, 64, 10},
		{workload.Workload{Model: workload.LeNet5, Dataset: workload.FashionMNIST}, 64, 10},
		{workload.Workload{Model: workload.CNN, Dataset: workload.News20}, 128, 20},
		{workload.Workload{Model: workload.Jacobi, Dataset: workload.Rodinia}, 32, 4},
	}
	for _, tc := range cases {
		t.Run(tc.w.Name(), func(t *testing.T) {
			train, test := gen(t, tc.w)
			if train.Dim != tc.dim || train.NumClasses != tc.classes {
				t.Fatalf("train dim/classes = %d/%d, want %d/%d",
					train.Dim, train.NumClasses, tc.dim, tc.classes)
			}
			if train.Len() != DefaultConfig().TrainSize || test.Len() != DefaultConfig().TestSize {
				t.Fatalf("split sizes = %d/%d", train.Len(), test.Len())
			}
			for _, s := range train.Samples {
				if len(s.Features) != tc.dim {
					t.Fatalf("sample has %d features, want %d", len(s.Features), tc.dim)
				}
				if s.Label < 0 || s.Label >= tc.classes {
					t.Fatalf("label %d out of range", s.Label)
				}
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	w := workload.Workload{Model: workload.CNN, Dataset: workload.News20}
	a, _, err := Generate(w, 7, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(w, 7, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i].Label != b.Samples[i].Label {
			t.Fatalf("labels diverge at %d", i)
		}
		for d := range a.Samples[i].Features {
			if a.Samples[i].Features[d] != b.Samples[i].Features[d] {
				t.Fatalf("features diverge at sample %d dim %d", i, d)
			}
		}
	}
}

func TestTypeIIWorkloadsShareDataset(t *testing.T) {
	cnn, _, err := Generate(workload.Workload{Model: workload.CNN, Dataset: workload.News20}, 7, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	lstm, _, err := Generate(workload.Workload{Model: workload.LSTM, Dataset: workload.News20}, 7, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range cnn.Samples {
		if cnn.Samples[i].Label != lstm.Samples[i].Label {
			t.Fatal("Type-II workloads should share the exact same corpus")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	a, _, _ := Generate(w, 1, DefaultConfig())
	b, _, _ := Generate(w, 2, DefaultConfig())
	same := 0
	for i := range a.Samples {
		if a.Samples[i].Features[0] == b.Samples[i].Features[0] {
			same++
		}
	}
	if same > a.Len()/10 {
		t.Fatalf("seeds 1 and 2 share %d/%d first features", same, a.Len())
	}
}

func TestClassBalance(t *testing.T) {
	for _, w := range workload.Catalog() {
		train, _ := gen(t, w)
		counts := make([]int, train.NumClasses)
		for _, s := range train.Samples {
			counts[s.Label]++
		}
		want := train.Len() / train.NumClasses
		for c, n := range counts {
			if n < want-1 || n > want+1 {
				t.Fatalf("%s class %d has %d samples, want ~%d", w.Name(), c, n, want)
			}
		}
	}
}

func TestBagOfWordsNonNegative(t *testing.T) {
	train, _ := gen(t, workload.Workload{Model: workload.CNN, Dataset: workload.News20})
	for _, s := range train.Samples {
		for _, f := range s.Features {
			if f < 0 {
				t.Fatalf("bag-of-words feature negative: %v", f)
			}
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	if _, _, err := Generate(w, 1, Config{TrainSize: 0, TestSize: 10}); err == nil {
		t.Fatal("zero train size accepted")
	}
	if _, _, err := Generate(w, 1, Config{TrainSize: 10, TestSize: -1}); err == nil {
		t.Fatal("negative test size accepted")
	}
}

func TestClassesAreLinearlySeparableEnough(t *testing.T) {
	// Nearest-prototype classification on the synthetic MNIST stand-in
	// should comfortably beat chance — otherwise no model could learn it.
	w := workload.Workload{Model: workload.LeNet5, Dataset: workload.MNIST}
	train, test := gen(t, w)
	centroids := make([][]float64, train.NumClasses)
	counts := make([]int, train.NumClasses)
	for c := range centroids {
		centroids[c] = make([]float64, train.Dim)
	}
	for _, s := range train.Samples {
		for d, f := range s.Features {
			centroids[s.Label][d] += f
		}
		counts[s.Label]++
	}
	for c := range centroids {
		for d := range centroids[c] {
			centroids[c][d] /= float64(counts[c])
		}
	}
	correct := 0
	for _, s := range test.Samples {
		best, bestDist := -1, 0.0
		for c := range centroids {
			dist := 0.0
			for d := range s.Features {
				diff := s.Features[d] - centroids[c][d]
				dist += diff * diff
			}
			if best == -1 || dist < bestDist {
				best, bestDist = c, dist
			}
		}
		if best == s.Label {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.5 {
		t.Fatalf("nearest-centroid accuracy = %.2f; synthetic MNIST too hard", acc)
	}
}

// collectBatches gathers EachBatch's minibatches (copied, since EachBatch
// hands out subslices fn must not retain).
func collectBatches(n, b int, perm []int) [][]int {
	var out [][]int
	EachBatch(n, b, perm, func(batch []int) error {
		out = append(out, append([]int(nil), batch...))
		return nil
	})
	return out
}

func TestBatches(t *testing.T) {
	b := collectBatches(10, 4, nil)
	if len(b) != 3 || len(b[0]) != 4 || len(b[2]) != 2 {
		t.Fatalf("EachBatch(10,4) = %v", b)
	}
	seen := make(map[int]bool)
	for _, batch := range b {
		for _, i := range batch {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("covered %d indices, want 10", len(seen))
	}
	if collectBatches(0, 4, nil) != nil || collectBatches(4, 0, nil) != nil {
		t.Fatal("degenerate sizes should yield no batches")
	}
}

func TestBatchesWithPermutation(t *testing.T) {
	r := xrand.New(5)
	perm := r.Perm(20)
	b := collectBatches(20, 6, perm)
	flat := make([]int, 0, 20)
	for _, batch := range b {
		flat = append(flat, batch...)
	}
	for i, v := range flat {
		if v != perm[i] {
			t.Fatalf("batches do not follow permutation at %d", i)
		}
	}
}

// Property: batches always partition [0,n) exactly.
func TestQuickBatchesPartition(t *testing.T) {
	f := func(nRaw, bRaw uint8) bool {
		n, b := int(nRaw)%200+1, int(bRaw)%32+1
		seen := make(map[int]bool, n)
		for _, batch := range collectBatches(n, b, nil) {
			if len(batch) == 0 || len(batch) > b {
				return false
			}
			for _, i := range batch {
				if i < 0 || i >= n || seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
