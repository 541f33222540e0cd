package gt

import (
	"testing"

	"pipetune/internal/kmeans"
	"pipetune/internal/params"
)

func TestKMeansSimilarityGroupsFamilies(t *testing.T) {
	s := NewKMeansSimilarity(kmeans.DefaultConfig(), 2.0, 1)
	var points [][]float64
	for i := 0; i < 4; i++ {
		points = append(points, featuresOf(t, lenetMNIST, uint64(i)))
		points = append(points, featuresOf(t, cnnNews, uint64(i)))
	}
	if err := s.Fit(points); err != nil {
		t.Fatal(err)
	}
	if s.Groups() != 2 {
		t.Fatalf("groups = %d, want 2", s.Groups())
	}
	// Even indices (lenet) share a group; odd (cnn) share the other.
	if s.GroupOf(0) != s.GroupOf(2) || s.GroupOf(1) != s.GroupOf(3) {
		t.Fatal("family members split across groups")
	}
	if s.GroupOf(0) == s.GroupOf(1) {
		t.Fatal("families collapsed")
	}
	// A new lenet profile matches the lenet group confidently.
	group, ok := s.Match(featuresOf(t, lenetMNIST, 99))
	if !ok || group != s.GroupOf(0) {
		t.Fatalf("match = (%d, %v), want lenet group %d", group, ok, s.GroupOf(0))
	}
}

func TestKMeansSimilarityUnfit(t *testing.T) {
	s := NewKMeansSimilarity(kmeans.DefaultConfig(), 2.0, 1)
	if _, ok := s.Match([]float64{1, 2}); ok {
		t.Fatal("unfit model matched")
	}
	if s.Groups() != 0 {
		t.Fatal("unfit model has groups")
	}
	if err := s.Fit([][]float64{{1}}); err == nil {
		t.Fatal("fit with fewer points than k accepted")
	}
}

func TestNearestNeighborSimilarity(t *testing.T) {
	s := NewNearestNeighborSimilarity(3.0)
	var points [][]float64
	for i := 0; i < 3; i++ {
		points = append(points, featuresOf(t, lenetMNIST, uint64(i)))
		points = append(points, featuresOf(t, cnnNews, uint64(i)))
	}
	if err := s.Fit(points); err != nil {
		t.Fatal(err)
	}
	if s.Groups() != 6 {
		t.Fatalf("k-NN groups = %d, want one per point", s.Groups())
	}
	group, ok := s.Match(featuresOf(t, lenetMNIST, 42))
	if !ok {
		t.Fatal("near-duplicate profile did not match")
	}
	if group%2 != 0 {
		t.Fatalf("lenet query matched point %d (a cnn profile)", group)
	}
	// A far-away query must not be confident.
	far := make([]float64, len(points[0]))
	for i := range far {
		far[i] = 100
	}
	if _, ok := s.Match(far); ok {
		t.Fatal("distant query matched confidently")
	}
}

func TestNearestNeighborSimilarityDegenerate(t *testing.T) {
	s := NewNearestNeighborSimilarity(2.0)
	if err := s.Fit(nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	if _, ok := s.Match([]float64{1}); ok {
		t.Fatal("unfit k-NN matched")
	}
	// Single point: no NN scale, so matches are never confident.
	if err := s.Fit([][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Match([]float64{1, 2}); ok {
		t.Fatal("single-point model should not be confident")
	}
}

// TestStoreWithNearestNeighbor exercises §5.4's pluggability on both
// store subjects: the similarity factory replaces k-means.
func TestStoreWithNearestNeighbor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NewSimilarity = func(uint64) Similarity { return NewNearestNeighborSimilarity(3.0) }
	for name, s := range map[string]Store{
		"sharded":    NewSharded(cfg, 1),
		"persistent": persistentOver(t, NewSharded(cfg, 1)),
	} {
		t.Run(name, func(t *testing.T) {
			if s.SimilarityName() != "nearest-neighbor" {
				t.Fatalf("similarity = %q", s.SimilarityName())
			}
			best := params.SysConfig{Cores: 4, MemoryGB: 32}
			for i := 0; i < 4; i++ {
				if err := s.Add(Entry{Features: featuresOf(t, lenetMNIST, uint64(i)), BestSys: best, Metric: 0.8}); err != nil {
					t.Fatal(err)
				}
			}
			cfgGot, ok := s.Lookup(featuresOf(t, lenetMNIST, 77))
			if !ok || cfgGot != best {
				t.Fatalf("k-NN lookup = (%v, %v), want (%v, true)", cfgGot, ok, best)
			}
		})
	}
}
