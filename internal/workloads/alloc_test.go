package workloads

import "testing"

// TestReusedKernelAllocationFree gates the reuse path every campaign
// run takes, on real kernels: once an instance has run to steady state,
// Fabric.Reset plus a full run allocates nothing, for all eight kernels
// in both their triggered and PC-baseline forms. Reset restores each
// element's build-time state through its RestoreState, so this covers
// the scratchpad, PC PE, source and sink restores the fabric package's
// toy topologies never build, and it holds a triggered PE's compiled
// closure across the restore (a recompile would allocate). Run with
// -count=1 outside the race detector (`make alloc-gate`).
func TestReusedKernelAllocationFree(t *testing.T) {
	for _, spec := range All() {
		for _, form := range []struct {
			name  string
			build func(Params) (*Instance, error)
		}{{"tia", spec.BuildTIA}, {"pc", spec.BuildPC}} {
			t.Run(spec.Name+"/"+form.name, func(t *testing.T) {
				p := spec.Normalize(Params{Seed: 1})
				inst, err := form.build(p)
				if err != nil {
					t.Fatal(err)
				}
				f, budget := inst.Fabric, spec.MaxCycles(p)
				want, err := f.Run(budget) // warm: grow every buffer
				if err != nil || !want.Completed {
					t.Fatalf("warm run: %+v, %v", want, err)
				}
				avg := testing.AllocsPerRun(3, func() {
					f.Reset()
					if res, err := f.Run(budget); err != nil || res != want {
						t.Fatalf("rerun: %+v, %v; warm run %+v", res, err, want)
					}
				})
				if avg != 0 {
					t.Errorf("steady-state Reset+Run: %.1f allocs/run, want 0", avg)
				}
			})
		}
	}
}
