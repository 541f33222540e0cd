// Command jobbench is the repository's benchmark: it drives seeded
// streams of tuning jobs through the pipetuned service in-process, over
// HTTP through package client, checks every result, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as one
// JSON object on the last line of standard output.
//
// Usage, from the repository root:
//
//	bash jobbench/run.sh --workload fleet-pipetune --seed 1 --seconds 20 --trace 0
//
// README.md beside this file explains the workloads, the metrics and how
// each per-layer metric is measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pipetune/api"
	"pipetune/internal/stats"
	"pipetune/internal/xrand"
)

// options is one invocation.
type options struct {
	workload   Workload
	seed       uint64
	seconds    float64
	trace      bool
	setups     int    // set-ups measured for setup_s; see run
	cpuProfile string // traced runs: CPU profile of the traced phase
	tmpRoot    string
	// mutate, when set, edits each fetched job before the output check
	// (tests use it to prove the check catches a wrong result).
	mutate func(*jobRecord)
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Uint64("seed", DevSeed, "job-list seed")
		seconds  = flag.Float64("seconds", 20, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
		cpuProf  = flag.String("cpuprofile", "", "with --trace 1, write a CPU profile of the traced phase here")
	)
	flag.Parse()
	w, err := findWorkload(*workload)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(2)
	}
	os.MkdirAll(".bench_build", 0o755)
	tmp, err := os.MkdirTemp(".bench_build", "jobbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(1)
	}
	rep, err := run(options{
		workload:   w,
		seed:       *seed,
		seconds:    *seconds,
		trace:      *trace == 1,
		setups:     setupsPerRun,
		cpuProfile: *cpuProf,
		tmpRoot:    tmp,
	})
	os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(rep)
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

// setupsPerRun is how many times an untraced run sets up; setup_s is
// their median.
const setupsPerRun = 11

// run executes one invocation: end-to-end metrics from an untraced run,
// or per-layer metrics from a traced run.
func run(o options) (*report, error) {
	if o.trace {
		return runTraced(o)
	}
	// Half the set-ups run before the timed phase, the last of them
	// serving it, and the rest after it, so a slow spell of the host at
	// either end of the run moves the median less.
	before := (o.setups + 1) / 2
	var setupS []float64
	var r *rig
	for k := 0; k < before; k++ {
		if r != nil {
			r.teardown()
		}
		var err error
		if r, err = timedSetup(o, &setupS); err != nil {
			return nil, err
		}
	}
	ph, err := runPhase(r, o, o.seconds)
	r.teardown()
	if err != nil {
		return nil, err
	}
	rep := ph.report()
	add := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	add("jobs_per_s", ph.jobsPerS(), "jobs/s")
	lat := ph.latencies()
	add("job_latency_p50_s", percentile(lat, 50), "s")
	add("job_latency_p90_s", percentile(lat, 90), "s")
	add("job_ok_ratio", float64(rep.Attempted-rep.Failed)/float64(max(rep.Attempted, 1)), "ratio")
	add("rss_mb", ph.rssMB, "MB")
	add("sim_tuning_s", ph.classMean(func(res *api.JobResult) float64 { return res.TuningTime }), "s")
	add("sim_energy_kj", ph.classMean(func(res *api.JobResult) float64 { return res.TotalEnergy / 1000 }), "kJ")
	add("best_accuracy", ph.classMean(func(res *api.JobResult) float64 { return res.Best.Result.Accuracy }), "ratio")
	inPhase := ph.inPhase()
	for k := before; k < o.setups; k++ {
		later, err := timedSetup(o, &setupS)
		if err != nil {
			return nil, err
		}
		later.teardown()
	}
	add("setup_s", median(setupS), "s")
	fmt.Fprintf(os.Stderr, "jobbench: set-ups %.4f s\n", setupS)
	fmt.Fprintf(os.Stderr, "jobbench: %s seed=%d: %d jobs attempted, %d in the %gs window, %d failed; p90 has %d jobs beyond it; peak RSS %.1f MB\n",
		o.workload.Name, o.seed, rep.Attempted, inPhase, o.seconds, rep.Failed, len(lat)/10, peakRSSMB())
	return rep, nil
}

// timedSetup sets up an untraced rig and appends its set-up time to
// times. The previous rig's garbage is collected first, outside the
// timing.
func timedSetup(o options, times *[]float64) (*rig, error) {
	runtime.GC()
	t0 := time.Now()
	r, err := setup(o.workload, o.tmpRoot, false)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	*times = append(*times, time.Since(t0).Seconds())
	return r, nil
}

// phase is one timed closed-loop run over a rig and its checked records.
type phase struct {
	seconds float64
	start   time.Time // first submit
	jobs    []*jobRecord
	rssMB   float64 // median resident set while the load ran
}

// runPhase generates the job list, drives it through the rig for the
// given seconds, and runs the output check on every job. On a traced rig
// the tracer's snapshots bracket the load.
func runPhase(r *rig, o options, seconds float64) (*phase, error) {
	// Enough items that no run can exhaust the list: far above what the
	// fastest workload completes per second.
	items := Generate(r.w, o.seed, int(seconds*200)+100)
	runtime.GC()
	if r.tr != nil {
		if err := r.tr.begin(r); err != nil {
			return nil, err
		}
	}
	stopRSS := sampleRSS()
	jobs, start, err := runLoad(r, items, seconds)
	rss := stopRSS()
	if err != nil {
		return nil, err
	}
	if r.tr != nil {
		if err := r.tr.end(r); err != nil {
			return nil, err
		}
	}
	ph := &phase{seconds: seconds, start: start, jobs: jobs, rssMB: rss}
	for _, j := range jobs {
		if j.err == nil && o.mutate != nil {
			o.mutate(j)
		}
	}
	for _, j := range jobs {
		if j.err == nil {
			j.err = checkJob(j)
		}
	}
	for _, j := range jobs {
		if j.twin != nil && j.req.Mode == api.ModePipeTune && j.err == nil && j.twin.err == nil {
			if err := checkTwins(j.twin, j); err != nil {
				j.err = err
			}
		}
	}
	for _, j := range rerunSample(jobs, o.seed) {
		j.err = checkRerun(r.sys, j)
	}
	for _, j := range jobs {
		if j.err != nil {
			fmt.Fprintln(os.Stderr, "jobbench: FAILED:", j.err)
		}
	}
	return ph, nil
}

// rerunSample picks one finished baseline job of each mode, in a seeded
// order, for the in-process re-run check. Twins are left out: their
// PipeTune half already pins the V1 half's learning.
func rerunSample(jobs []*jobRecord, seed uint64) []*jobRecord {
	var out []*jobRecord
	picked := map[string]bool{}
	for _, i := range xrand.New(seed).Perm(len(jobs)) {
		j := jobs[i]
		baseline := j.req.Mode == api.ModeTuneV1 || j.req.Mode == api.ModeTuneV2
		if j.err != nil || !baseline || j.twin != nil || picked[j.req.Mode] {
			continue
		}
		picked[j.req.Mode] = true
		out = append(out, j)
	}
	return out
}

// report starts the result with the output check's verdict.
func (p *phase) report() *report {
	rep := &report{Correct: true, Attempted: len(p.jobs), Metrics: map[string]metric{}}
	for _, j := range p.jobs {
		if j.err != nil {
			rep.Failed++
		}
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep
}

// ok lists the jobs that finished and passed the output check.
func (p *phase) ok() []*jobRecord {
	var out []*jobRecord
	for _, j := range p.jobs {
		if j.err == nil {
			out = append(out, j)
		}
	}
	return out
}

func (p *phase) inPhase() int {
	n := 0
	for _, j := range p.ok() {
		if j.inPhase {
			n++
		}
	}
	return n
}

// jobsPerS is the rate of correct completions inside the timed window:
// their count over the time from the first submit to the last of them,
// so the rate does not jump by a whole job when one lands just after the
// deadline.
func (p *phase) jobsPerS() float64 {
	n, last := 0, p.start
	for _, j := range p.ok() {
		if j.inPhase {
			n++
			if j.end.After(last) {
				last = j.end
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(n) / last.Sub(p.start).Seconds()
}

func (p *phase) latencies() []float64 {
	var out []float64
	for _, j := range p.ok() {
		out = append(out, j.latency().Seconds())
	}
	return out
}

// classMean averages f over jobs of each (workload, mode) class, then
// over classes, so a run that ends part-way through a deck still weighs
// every class equally.
func (p *phase) classMean(f func(*api.JobResult) float64) float64 {
	sums := map[Class][2]float64{}
	for _, j := range p.ok() {
		c := Class{Workload: j.req.Workload, Mode: j.req.Mode}
		s := sums[c]
		sums[c] = [2]float64{s[0] + f(j.status.Result), s[1] + 1}
	}
	if len(sums) == 0 {
		return 0
	}
	total := 0.0
	for _, s := range sums {
		total += s[0] / s[1]
	}
	return total / float64(len(sums))
}

func percentile(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// sampleRSS samples the process's resident set every 100 ms until the
// returned func is called, which returns the median sample. The median
// reads the footprint the load holds; the peak is set by whichever few
// trials happen to allocate their networks at the same instant.
func sampleRSS() (stop func() float64) {
	quit, done := make(chan struct{}), make(chan float64)
	go func() {
		var mb []float64
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				done <- median(mb)
				return
			case <-t.C:
				if v, err := rssMB(); err == nil {
					mb = append(mb, v)
				}
			}
		}
	}()
	return func() float64 {
		close(quit)
		return <-done
	}
}

// rssMB reads the current resident set from /proc/self/statm.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// startProfile starts a CPU profile into path; the returned func stops it.
func startProfile(path string) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
