package core

import (
	"context"
	"testing"

	"tia/internal/workloads"
)

func TestCalibrationDump(t *testing.T) {
	rows, err := RunSuiteContext(context.Background(), workloads.Params{Seed: 1, Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		t.Logf("%-10s work=%6d tia=%7d pc=%7d gpp=%7d pes=%d words=%5d gpp/tia=%.2f",
			r.Name, r.WorkUnits, r.TIACycles, r.PCCycles, r.GPPCycles, r.TIAPEs, r.ScratchpadWords,
			float64(r.GPPCycles)/float64(r.TIACycles))
	}
}
