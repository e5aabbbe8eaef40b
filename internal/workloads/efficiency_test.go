package workloads

import (
	"context"
	"testing"
)

// TestFiresPerWorkUnit pins each triggered kernel's efficiency: the
// critical PE's dynamic instructions per unit of work. These are the
// numbers behind E1/E2 — a regression here silently erodes the paper's
// results, so the bounds are deliberately tight (~10% headroom over the
// designed fire counts).
func TestFiresPerWorkUnit(t *testing.T) {
	// designed fires of the critical PE per work unit (see each kernel's
	// doc comment for the unit).
	bounds := map[string]float64{
		"mergesort": 2.2,  // cmp + send per merged element (root PE)
		"kmp":       5.3,  // grab, req, upd, chk, inc per character
		"smvm":      3.5,  // add + dec per nonzero, amortized row overhead
		"dmm":       2.5,  // add + dec per product
		"graph500":  6.5,  // walker fires per edge incl. per-vertex overhead
		"sha256":    20.5, // round1 chain steps per round
		"fft":       25.0, // ctrl fires per butterfly incl. boundaries and barriers
		"aes":       14.5, // ctrl fires per byte-round work unit
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			p := spec.Normalize(Params{Seed: 1})
			inst, err := spec.BuildTIA(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inst.Fabric.Run(spec.MaxCycles(p)); err != nil {
				t.Fatal(err)
			}
			fires := float64(inst.CriticalTIA.DynamicInstructions())
			perUnit := fires / float64(spec.WorkUnits(p))
			limit, ok := bounds[spec.Name]
			if !ok {
				t.Fatalf("no bound for %s (%.2f fires/unit)", spec.Name, perUnit)
			}
			if perUnit > limit {
				t.Errorf("critical PE fires %.2f per work unit, budget %.2f", perUnit, limit)
			}
			t.Logf("%.2f fires/work-unit (budget %.2f)", perUnit, limit)
		})
	}
}

// TestCriticalPEOccupancy: the designated critical PE must actually be
// busy — if its occupancy drops well below the other PEs', the
// designation (and E2's attribution) is wrong.
func TestCriticalPEOccupancy(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			p := spec.Normalize(Params{Seed: 1})
			inst, err := spec.BuildTIA(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inst.Fabric.Run(spec.MaxCycles(p)); err != nil {
				t.Fatal(err)
			}
			crit := inst.CriticalTIA.Stats()
			critOcc := float64(crit.Fired) / float64(crit.Cycles)
			best := 0.0
			for _, pr := range inst.PEs {
				s := pr.Stats()
				if s.Cycles == 0 {
					continue
				}
				if occ := float64(s.Fired) / float64(s.Cycles); occ > best {
					best = occ
				}
			}
			if critOcc < 0.6*best {
				t.Errorf("critical PE occupancy %.2f far below busiest PE %.2f", critOcc, best)
			}
		})
	}
}

// TestLargeInputs scales the stream kernels well past the evaluation
// sizes to catch anything that only breaks at depth (queue growth,
// counter wrap, quadratic behaviour).
func TestLargeInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("large inputs")
	}
	cases := map[string]int{
		"mergesort": 4096,
		"kmp":       8192,
		"smvm":      1024,
		"graph500":  512,
	}
	for name, size := range cases {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spec.VerifyFullContext(context.Background(), Params{Seed: 13, Size: size}); err != nil {
			t.Errorf("%s @ %d: %v", name, size, err)
		}
	}
}
