package faults

// Allocation gate for the timing-fault path: a batch lane re-arms its
// injector with Reset + Rearm and steps the next run, once per faulty
// run of a campaign. Once the lane has grown its buffers, that loop —
// the stall and freeze window draws, the edge-driven BeginCycle and the
// stalled wires — allocates nothing. Run with -count=1 outside the race
// detector, whose instrumentation allocates.

import (
	"testing"
)

func TestTimingFaultRunAllocationFree(t *testing.T) {
	golden, _ := buildStrandMerge(t)
	res, err := golden.Run(strandBudget)
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{Stalls: 2, StallMax: 8, Freezes: 2, FreezeMax: 8, JitterRate: 0.3, JitterMax: 3, To: res.Cycles}
	for _, dense := range []bool{false, true} {
		f, _ := buildStrandMerge(t)
		f.SetDenseStepping(dense)
		inj, err := Attach(f, plan)
		if err != nil {
			t.Fatal(err)
		}
		seed := int64(0)
		rerun := func() {
			seed++
			plan.Seed = seed
			f.Reset()
			if err := inj.Rearm(plan); err != nil {
				t.Fatal(err)
			}
			if res, err := f.Run(strandBudget); err != nil || !res.Completed {
				t.Fatalf("seed %d: %+v, %v", seed, res, err)
			}
		}
		rerun() // warm: grow every buffer to steady state
		if avg := testing.AllocsPerRun(20, rerun); avg != 0 {
			t.Errorf("dense=%v: steady-state Reset+Rearm+Run under stalls and freezes: %.1f allocs/run, want 0", dense, avg)
		}
		if c := inj.Counts(); c.StallCycles == 0 || c.FreezeCycles == 0 {
			t.Fatalf("dense=%v: the last run stalled %d and froze %d cycles; the gate needs both", dense, c.StallCycles, c.FreezeCycles)
		}
	}
}
