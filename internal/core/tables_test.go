package core

import (
	"context"
	"strings"
	"testing"

	"tia/internal/workloads"
)

// TestTablesRender drives every table writer over a real (small) suite
// run and checks for the expected structure.
func TestTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run")
	}
	rows, err := RunSuiteContext(context.Background(), workloads.Params{Seed: 1, Size: 16})
	if err != nil {
		t.Fatal(err)
	}
	bracket, err := RunMergeBracket(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := SuiteRequirements(workloads.Params{Seed: 1, Size: 8})
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	WriteE1(&sb, rows)
	WriteE2(&sb, rows, bracket)
	WriteE3(&sb, rows)
	WriteE4(&sb)
	WriteE5(&sb, rows)
	WriteE6(&sb, reqs)
	WriteSweep(&sb, "sweep", []SweepPoint{{Label: "depth=1", Cycles: 10}})
	out := sb.String()

	for _, frag := range []string{
		"geomean", "speedup", "static red.", "paper 62%", "perf/mm² vs GPP",
		"triggered instructions / PE", "PE occupancy", "fits 16/8",
		"130 bits", "sweep:  depth=1:10",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("rendered tables missing %q", frag)
		}
	}
	// All eight kernels present in E1.
	for _, spec := range workloads.All() {
		if !strings.Contains(out, spec.Name) {
			t.Errorf("tables missing workload %s", spec.Name)
		}
	}
}
