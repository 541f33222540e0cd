package perf

import (
	"encoding/binary"
	"math"
	"testing"

	"pipetune/internal/golden"
	"pipetune/internal/params"
	"pipetune/internal/workload"
	"pipetune/internal/xrand"
)

// TestGoldenSamplerBits pins the sampler's exact float64 output over a
// grid that reaches every branch of the event model: the spill branch
// (2 GB is below every workload's memory requirement), the init
// phase, sub-second windows (one sample), mid windows and windows capped
// at 30 samples. One RNG stream runs through the whole grid, so the
// digest also pins the number and order of draws.
func TestGoldenSamplerBits(t *testing.T) {
	golden.SkipUnlessPinnedArch(t)
	s := NewSampler()
	r := xrand.New(0x901de7)
	var out []byte
	put := func(p Profile) {
		for _, v := range p {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	for _, w := range workload.Catalog() {
		tr := workload.TraitsFor(w)
		for _, cores := range []int{1, 4, 16, 64} {
			for _, mem := range []int{2, 6, 16, 64} {
				for _, bs := range []int{8, 32, 256, 4096} {
					h := params.DefaultHyper()
					h.BatchSize = bs
					sys := params.SysConfig{Cores: cores, MemoryGB: mem}
					for _, phase := range []Phase{PhaseInit, PhaseTrain} {
						for _, window := range []float64{0.3, 7, 45} {
							p, err := s.EpochProfile(r, tr, h, sys, phase, window)
							if err != nil {
								t.Fatal(err)
							}
							put(p)
						}
						p, err := s.Sample(r, tr, h, sys, phase)
						if err != nil {
							t.Fatal(err)
						}
						put(p)
					}
				}
			}
		}
	}
	golden.Check(t, "../../testdata/golden/perf_sampler.sha256", out)
}
