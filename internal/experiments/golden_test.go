package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"pipetune/internal/golden"
)

// TestGoldenGTAblations pins the three ground-truth ablations (no ground
// truth, similarity threshold, probe budget) to one digest of their
// full-precision JSON at the quick configuration.
func TestGoldenGTAblations(t *testing.T) {
	golden.SkipUnlessPinnedArch(t)
	if testing.Short() {
		t.Skip("ground-truth ablation golden run skipped in -short mode")
	}
	cfg := quickConfig()
	var buf bytes.Buffer
	for _, a := range []struct {
		name string
		run  func(Config) (any, error)
	}{
		{"no-ground-truth", func(c Config) (any, error) { return AblationNoGroundTruth(c) }},
		{"threshold", func(c Config) (any, error) { return AblationThreshold(c) }},
		{"probe-budget", func(c Config) (any, error) { return AblationProbeBudget(c) }},
	} {
		res, err := a.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s %s\n", a.name, js)
	}
	golden.Check(t, "../../testdata/golden/gt_ablations.sha256", buf.Bytes())
}
