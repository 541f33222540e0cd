// Package perf simulates the hardware performance-counter profiling pipeline
// of §5.3: 58 measurable PMU events (the exact Figure 2 list) sampled every
// second through a CPU with only 2 generic and 3 fixed counters, so events
// are time-multiplexed by the kernel and rescaled with
//
//	final_count = raw_count * time_enabled / time_running
//
// which introduces estimation error for multiplexed events. Per-epoch
// averages of the rescaled rates form the 58-dimensional workload profile
// that PipeTune's ground-truth phase clusters.
//
// Event rates are derived mechanistically from workload traits (compute /
// memory / branch intensity, working set) and the system configuration, so
// that epochs of the same workload produce near-identical profiles
// (Figure 2's repetitive columns) while distinct workload families remain
// separable (Figure 8's clusters) — without the simulator ever seeing the
// model or dataset identity (the §5.5 privacy property).
package perf

import (
	"fmt"
	"math"
	"strings"

	"pipetune/internal/costmodel"
	"pipetune/internal/params"
	"pipetune/internal/stats"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// NumEvents is the number of PMU events profiled (§5.3).
const NumEvents = 58

// eventNames is the exact Figure 2 event list, in its display order.
var eventNames = []string{
	"L1-dcache-load-misses", "L1-dcache-loads", "L1-dcache-stores",
	"L1-icache-load-misses", "LLC-load-misses", "LLC-loads",
	"LLC-store-misses", "LLC-stores", "branch-load-misses", "branch-loads",
	"branch-misses", "branches", "bus-cycles", "cache-misses",
	"cache-references", "cpu-cycles", "cpu/branch-instructions/",
	"cpu/branch-misses/", "cpu/bus-cycles/", "cpu/cache-misses/",
	"cpu/cache-references/", "cpu/cpu-cycles/", "cpu/cycles-ct/",
	"cpu/cycles-t/", "cpu/el-abort/", "cpu/el-capacity/", "cpu/el-commit/",
	"cpu/el-conflict/", "cpu/el-start/", "cpu/instructions/",
	"cpu/mem-loads/", "cpu/mem-stores/", "cpu/topdown-fetch-bubbles/",
	"cpu/topdown-recovery-bubbles/", "cpu/topdown-slots-issued/",
	"cpu/topdown-slots-retired/", "cpu/topdown-total-slots/",
	"cpu/tx-abort/", "cpu/tx-capacity/", "cpu/tx-commit/",
	"cpu/tx-conflict/", "cpu/tx-start/", "dTLB-load-misses", "dTLB-loads",
	"dTLB-store-misses", "dTLB-stores", "iTLB-load-misses", "iTLB-loads",
	"instructions", "msr/aperf/", "msr/mperf/", "msr/pperf/", "msr/smi/",
	"msr/tsc/", "node-load-misses", "node-loads", "node-store-misses",
	"node-stores",
}

// EventNames returns a copy of the 58 event names in display order.
func EventNames() []string {
	out := make([]string, NumEvents)
	copy(out, eventNames)
	return out
}

// EventIndex returns the index of a named event, or -1 if unknown.
func EventIndex(name string) int {
	for i, n := range eventNames {
		if n == name {
			return i
		}
	}
	return -1
}

// EventIndexMust is EventIndex for known-good names; it panics on a typo,
// which is a programming error caught by the package tests.
func EventIndexMust(name string) int {
	i := EventIndex(name)
	if i < 0 {
		panic("perf: unknown event " + name)
	}
	return i
}

// GenericCounters is the number of programmable counters available for the
// remaining events; they share hardware via time multiplexing (§5.3).
const GenericCounters = 2

// Phase distinguishes the initiation phase from training epochs; Figure 2
// shows them with visibly different event mixes.
type Phase int

// Profiling phases.
const (
	PhaseInit Phase = iota + 1
	PhaseTrain
)

// Profile is one per-epoch average of the 58 event rates (events/second).
type Profile []float64

// Features returns the similarity feature vector: log1p-scaled (raw rates
// span 1e2..1e8+, Figure 2's colour scale) and mean-centred. Centring in
// log space removes multiplicative factors common to every event — core
// count and utilisation scale the whole counter vector — so similarity
// captures the workload's *shape*, which is what identifies a workload
// family regardless of the system configuration it happened to run on.
func (p Profile) Features() []float64 {
	f := stats.Log1pScale(p)
	mean := stats.Mean(f)
	for i := range f {
		f[i] -= mean
	}
	return f
}

// eventTraits holds the per-event generative parameters, derived once from
// a fixed seed so every Sampler agrees on the event model.
type eventTraits struct {
	base        float64 // base rate at reference cycles: 10^logBase
	wCompute    float64 // sensitivity to compute intensity
	wMemory     float64 // sensitivity to memory intensity
	wBranch     float64 // sensitivity to branch intensity
	missLike    bool    // miss-type events respond to batch locality
	memoryClass bool    // memory-hierarchy events respond to spill pressure
	fixed       bool    // counted on a fixed counter: never multiplexed
}

// Sampler generates per-second event observations and per-epoch profiles.
type Sampler struct {
	table [NumEvents]eventTraits
	share float64 // fraction of each window a multiplexed event is counted
	model costmodel.Model
}

// NewSampler builds a sampler with the canonical event table.
func NewSampler() *Sampler {
	r := xrand.New(0x5eed_e4e7) // fixed: the event model is part of the spec
	s := &Sampler{model: costmodel.Default()}
	multiplexed := 0
	for i, name := range eventNames {
		et := eventTraits{
			wCompute: r.Range(-0.5, 0.5),
			wMemory:  r.Range(-0.5, 0.5),
			wBranch:  r.Range(-0.5, 0.5),
		}
		var logBase float64
		lower := strings.ToLower(name)
		switch {
		case strings.Contains(lower, "miss") || strings.Contains(lower, "bubble") ||
			strings.Contains(lower, "abort") || strings.Contains(lower, "conflict"):
			logBase = r.Range(3.5, 5.5)
			et.missLike = true
		case strings.Contains(lower, "cycles") || strings.Contains(lower, "slots") ||
			strings.Contains(lower, "msr"):
			logBase = r.Range(7.5, 9.0)
		case strings.Contains(lower, "instructions"):
			logBase = r.Range(8.0, 9.0)
		default:
			logBase = r.Range(5.5, 7.5)
		}
		switch {
		case strings.Contains(lower, "branch"):
			et.wBranch += 1.6
		case strings.Contains(lower, "l1") || strings.Contains(lower, "llc") ||
			strings.Contains(lower, "cache") || strings.Contains(lower, "tlb") ||
			strings.Contains(lower, "node") || strings.Contains(lower, "mem"):
			et.wMemory += 1.6
			et.memoryClass = true
		default:
			et.wCompute += 1.2
		}
		if strings.Contains(lower, "smi") { // system-management interrupts: rare
			logBase = r.Range(0.5, 1.5)
		}
		et.base = math.Pow(10, logBase)
		// Common Intel PMUs dedicate fixed counters to cycles, instructions
		// and reference/bus cycles; every other event multiplexes.
		switch name {
		case "cpu-cycles", "instructions", "bus-cycles":
			et.fixed = true
		default:
			multiplexed++
		}
		s.table[i] = et
	}
	s.share = float64(GenericCounters) / float64(multiplexed)
	return s
}

// MultiplexScale applies the kernel's estimate for a counter that was only
// scheduled for part of the window: final = raw * enabled / running. A
// non-positive running time yields 0 (the event was never scheduled).
func MultiplexScale(raw, timeEnabled, timeRunning float64) float64 {
	if timeRunning <= 0 {
		return 0
	}
	return raw * timeEnabled / timeRunning
}

// rates computes the noiseless events/second of every event. Its inputs
// are constant across an epoch window, so it runs once per window and
// every per-second sample draws from the result.
func (s *Sampler) rates(rate *[NumEvents]float64, tr workload.Traits, h params.Hyper, sys params.SysConfig, phase Phase) error {
	if phase != PhaseInit && phase != PhaseTrain {
		return fmt.Errorf("perf: invalid phase %d", phase)
	}
	// Active cycles scale with cores; utilisation drops during the
	// sync-heavy regimes the cost model identifies. EpochBreakdown also
	// validates the hyperparameters, system configuration and traits.
	bd, err := s.model.EpochBreakdown(tr, h, sys)
	if err != nil {
		return fmt.Errorf("perf: %w", err)
	}
	util := 0.45 + 0.55*bd.ComputeFraction()
	cyclesScale := float64(sys.Cores) / 8.0 * util

	// Larger batches improve locality: fewer misses per second. The effect
	// is kept an order of magnitude below the inter-family differences so
	// configuration changes perturb a workload's signature without moving
	// it across family clusters.
	locality := math.Pow(32/float64(h.BatchSize), 0.05)
	spill := 1.0 // exact identity when the working set fits
	if required := costmodel.MemoryRequiredGB(tr, h); float64(sys.MemoryGB) < required {
		shortfall := (required - float64(sys.MemoryGB)) / required
		spill = 1 + 0.4*shortfall
	}

	for i := range s.table {
		et := &s.table[i]
		mix := math.Exp(et.wCompute*(tr.ComputeIntensity-0.5) +
			et.wMemory*(tr.MemoryIntensity-0.5) +
			et.wBranch*(tr.BranchIntensity-0.5))
		r := et.base * cyclesScale * mix
		if et.missLike {
			r *= locality
		}
		if et.memoryClass {
			r *= spill
		}
		if phase == PhaseInit {
			// Initiation is I/O- and allocation-heavy: memory events up,
			// compute events down (the distinct "Init." column of Figure 2).
			if et.memoryClass {
				r *= 1.8
			} else {
				r *= 0.5
			}
		}
		rate[i] = r
	}
	return nil
}

// observe adds one 1-second observation of every event to sum, including
// multiplexing estimation error: fixed-counter events carry only ~0.5%
// measurement noise, while generic events are observed for a 2/55 share
// of the window and rescaled, leaving a few percent of estimation error.
func (s *Sampler) observe(r *xrand.Source, sum Profile, rate *[NumEvents]float64) {
	for i := range s.table {
		if s.table[i].fixed {
			sum[i] += r.Jitter(rate[i], 0.005)
			continue
		}
		// The event is scheduled for `share` of the window; the count
		// observed during that slice is rescaled to the full window.
		timeEnabled := 1.0
		timeRunning := s.share * r.Jitter(1, 0.10) // scheduling slack
		raw := rate[i] * timeRunning * r.Jitter(1, 0.02)
		sum[i] += MultiplexScale(raw, timeEnabled, timeRunning)
	}
}

// Sample returns one 1-second observation of all 58 events: an epoch
// window of one second.
func (s *Sampler) Sample(r *xrand.Source, tr workload.Traits, h params.Hyper, sys params.SysConfig, phase Phase) (Profile, error) {
	return s.EpochProfile(r, tr, h, sys, phase, 1)
}

// EpochProfile averages per-second samples across an epoch window of the
// given duration (minimum one sample), exactly as §5.3 stores "the average
// of results during each epoch's time window". It returns an error for
// an invalid phase, hyperparameters, system configuration or workload
// traits.
func (s *Sampler) EpochProfile(r *xrand.Source, tr workload.Traits, h params.Hyper, sys params.SysConfig, phase Phase, epochSeconds float64) (Profile, error) {
	var rate [NumEvents]float64
	if err := s.rates(&rate, tr, h, sys, phase); err != nil {
		return nil, err
	}
	n := int(epochSeconds)
	if n < 1 {
		n = 1
	}
	// Cap the per-epoch sample count: averaging 30 one-second samples is
	// statistically indistinguishable from averaging 600 and keeps long
	// simulated epochs cheap.
	if n > 30 {
		n = 30
	}
	sum := make(Profile, NumEvents)
	for k := 0; k < n; k++ {
		s.observe(r, sum, &rate)
	}
	for i := range sum {
		sum[i] /= float64(n)
	}
	return sum, nil
}
