package workloads

import (
	"testing"
	"time"
)

// BenchmarkCycleLoop measures the cycle loop alone on every kernel's
// triggered and PC-baseline fabric at the default size: one instance is
// built and warmed outside the timer, then each iteration re-runs it
// through Fabric.Reset. It reports ns/cycle, the benchmark-side twin of
// perfbench's traced fabric.tia_ns_per_cycle and fabric.pc_ns_per_cycle
// rows without their build cost.
func BenchmarkCycleLoop(b *testing.B) {
	for _, spec := range All() {
		for _, form := range []struct {
			name  string
			build func(Params) (*Instance, error)
		}{{"tia", spec.BuildTIA}, {"pc", spec.BuildPC}} {
			b.Run(spec.Name+"/"+form.name, func(b *testing.B) {
				p := spec.Normalize(Params{Seed: 1})
				inst, err := form.build(p)
				if err != nil {
					b.Fatal(err)
				}
				f := inst.Fabric
				warm, err := f.Run(spec.MaxCycles(p))
				if err != nil || !warm.Completed {
					b.Fatalf("warm run: %+v, %v", warm, err)
				}
				var cycles int64
				start := time.Now()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.Reset()
					res, err := f.Run(spec.MaxCycles(p))
					if err != nil || res != warm {
						b.Fatalf("rerun %d: %+v, %v; warm run %+v", i, res, err, warm)
					}
					cycles += res.Cycles
				}
				b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(cycles), "ns/cycle")
			})
		}
	}
}
