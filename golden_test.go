package pipetune

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"pipetune/internal/golden"
)

// TestGoldenJobResults pins the whole system to one digest: canonical
// JobResult JSON for every Table 3 workload under Tune V1, Tune V2 and
// PipeTune, run in order on one System (so PipeTune jobs also exercise
// the ground truth the earlier jobs fed). Any change to a trial's
// learning curve, simulated duration, energy, PMU profile or scheduling
// shows up here.
func TestGoldenJobResults(t *testing.T) {
	golden.SkipUnlessPinnedArch(t)
	if testing.Short() {
		t.Skip("whole-catalog golden run skipped in -short mode")
	}
	s, err := New(WithSeed(20261017), WithCorpusSize(64, 32))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, w := range Catalog() {
		for _, system := range []string{"v1", "v2", "pipetune"} {
			spec := s.JobSpec(w)
			var res *JobResult
			switch system {
			case "v1":
				res, err = s.RunBaseline(spec)
			case "v2":
				spec.Mode = ModeV2
				res, err = s.RunBaseline(spec)
			case "pipetune":
				res, err = s.RunPipeTune(spec)
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name(), system, err)
			}
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%s %s %s\n", w.Name(), system, js)
		}
	}
	golden.Check(t, "testdata/golden/jobresults.sha256", buf.Bytes())
}
