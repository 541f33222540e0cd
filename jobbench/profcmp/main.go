// Command profcmp cross-checks the benchmark's per-layer attribution
// against a CPU profile of the same traced phase. For each layer it
// prints the share of process CPU the traced run attributed to it and
// the share of profile samples whose outermost frame from a layer
// package belongs to it, and flags gaps wider than ten points.
//
// Usage, from the repository root:
//
//	bash jobbench/run.sh --workload fleet-pipetune --seconds 34 --trace 1 \
//	    --cpuprofile .bench_build/cpu.pprof > .bench_build/trace.out
//	(cd jobbench && go run ./profcmp -profile ../.bench_build/cpu.pprof -trace ../.bench_build/trace.out)
//
// The outermost-frame rule matches how the replays time a layer: a call
// into perf that reaches the cost model counts as perf, exactly as the
// perf replay's timing includes it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// layers maps each attributed layer to the traced run's busy-time
// metrics (a leading "-" subtracts: gt's busy time includes disk writes,
// which gt.io_s measures and a CPU profile does not see) and to the Go
// packages whose frames it owns.
var layers = []struct {
	name     string
	metrics  []string
	packages []string
}{
	{"nn", []string{"nn.train_s", "nn.eval_s", "nn.build_s"}, []string{"pipetune/internal/nn."}},
	{"perf", []string{"perf.profile_s"}, []string{"pipetune/internal/perf."}},
	{"costmodel", []string{"costmodel.epoch_s"}, []string{"pipetune/internal/costmodel."}},
	{"energy", []string{"energy.series_s"}, []string{"pipetune/internal/energy."}},
	{"gt", []string{"gt.lookup_s", "gt.add_s", "gt.compact_s", "-gt.io_s"}, []string{"pipetune/internal/gt.", "pipetune/internal/kmeans."}},
}

// gapPoints is the largest tolerated difference in percentage points.
const gapPoints = 10

func main() {
	profile := flag.String("profile", "", "CPU profile written by --cpuprofile")
	trace := flag.String("trace", "", "standard output of the traced run (its last line is read)")
	flag.Parse()
	if err := run(*profile, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "profcmp:", err)
		os.Exit(1)
	}
}

func run(profile, trace string) error {
	attributed, cpu, err := readTrace(trace)
	if err != nil {
		return err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	sampled, total, err := attribute(out)
	if err != nil {
		return err
	}
	flagged := 0
	fmt.Printf("%-10s %10s %10s %8s\n", "layer", "traced%", "pprof%", "gap")
	for _, l := range layers {
		a := 100 * attributed[l.name] / cpu
		p := 100 * sampled[l.name] / total
		mark := ""
		if a-p > gapPoints || p-a > gapPoints {
			mark = "  FLAG"
			flagged++
		}
		fmt.Printf("%-10s %10.1f %10.1f %8.1f%s\n", l.name, a, p, a-p, mark)
	}
	if flagged > 0 {
		return fmt.Errorf("%d layers differ by more than %d points", flagged, gapPoints)
	}
	return nil
}

// readTrace sums each layer's busy seconds from the traced run's JSON.
func readTrace(path string) (map[string]float64, float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var rep struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, l := range layers {
		for _, m := range l.metrics {
			if name, ok := strings.CutPrefix(m, "-"); ok {
				out[l.name] -= rep.Metrics[name].Value
			} else {
				out[l.name] += rep.Metrics[m].Value
			}
		}
	}
	cpu := rep.Metrics["trace.cpu_s"].Value
	if cpu <= 0 {
		return nil, 0, fmt.Errorf("%s: no trace.cpu_s; was it a --trace 1 run?", path)
	}
	return out, cpu, nil
}

// attribute reads `go tool pprof -traces` output: one block per sampled
// stack, the first line holding the sample's CPU time, frames listed
// leaf first. Each sample goes to the layer of its outermost layer frame.
func attribute(traces []byte) (map[string]float64, float64, error) {
	out := map[string]float64{}
	total := 0.0
	var value float64
	var owner string
	flush := func() {
		total += value
		if owner != "" {
			out[owner] += value
		}
		value, owner = 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(traces))
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			if inBlock {
				flush()
			}
			inBlock = true
			continue
		}
		if !inBlock {
			continue
		}
		// A sample's first line carries its value right-aligned in the
		// first column; frame lines leave that column blank.
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fn := fields[0]
		if len(line) > 11 && strings.TrimSpace(line[:11]) != "" {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, 0, fmt.Errorf("sample value %q: %w", fields[0], err)
			}
			value = d.Seconds()
			if len(fields) < 2 {
				continue
			}
			fn = fields[1]
		}
		if l := layerOf(fn); l != "" {
			owner = l // later frames are further out
		}
	}
	if inBlock {
		flush()
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("profile holds no samples")
	}
	return out, total, sc.Err()
}

func layerOf(fn string) string {
	for _, l := range layers {
		for _, p := range l.packages {
			if strings.HasPrefix(fn, p) {
				return l.name
			}
		}
	}
	return ""
}
