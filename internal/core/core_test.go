package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"tia/internal/workloads"
)

func TestRunWorkloadMergesort(t *testing.T) {
	spec, err := workloads.ByName("mergesort")
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunWorkloadContext(context.Background(), spec, workloads.Params{Seed: 3, Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	if row.TIACycles <= 0 || row.PCCycles <= 0 || row.GPPCycles <= 0 {
		t.Fatalf("missing cycle counts: %+v", row)
	}
	if row.Speedup < 1 {
		t.Errorf("mergesort speedup %.2f < 1", row.Speedup)
	}
	if row.SpeedupIdeal > row.Speedup {
		t.Errorf("ideal-branch baseline should be faster: %.2f vs %.2f", row.SpeedupIdeal, row.Speedup)
	}
	if row.StaticReduction <= 0 || row.DynamicReduction <= 0 {
		t.Errorf("critical-path reductions not positive: %+v", row)
	}
	if row.AreaNormRatio <= 1 {
		t.Errorf("area-normalized ratio %.2f should exceed 1", row.AreaNormRatio)
	}
	if len(row.TIAUtil) != 3 {
		t.Errorf("expected 3 PE utilizations, got %d", len(row.TIAUtil))
	}
}

func TestRunSuiteAndSummarize(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run is slow")
	}
	rows, err := RunSuiteContext(context.Background(), workloads.Params{Seed: 1, Size: 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("suite has %d rows, want 8", len(rows))
	}
	s := Summarize(rows)
	if s.GeomeanSpeedup <= 1 {
		t.Errorf("geomean speedup %.2f must exceed 1 (paper: 2.0)", s.GeomeanSpeedup)
	}
	if s.MeanStaticReduction <= 0 || s.MeanDynamicReduction <= 0 {
		t.Errorf("reductions must be positive: %+v", s)
	}
	if s.GeomeanAreaNorm <= 1 {
		t.Errorf("area-normalized geomean %.2f must exceed 1 (paper: 8)", s.GeomeanAreaNorm)
	}
	t.Logf("summary: %+v", s)
}

func TestDepthSweepMonotoneAtOne(t *testing.T) {
	spec, err := workloads.ByName("mergesort")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := DepthSweepContext(context.Background(), spec, workloads.Params{Seed: 1, Size: 64}, []int{1, 2, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	// Depth-1 channels serialize credit return; deeper channels must not
	// be slower.
	if pts[0].Cycles < pts[2].Cycles {
		t.Errorf("depth 1 (%d cycles) unexpectedly faster than depth 4 (%d)", pts[0].Cycles, pts[2].Cycles)
	}
}

func TestLatencySweepSlowsDown(t *testing.T) {
	spec, err := workloads.ByName("kmp")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := LatencySweepContext(context.Background(), spec, workloads.Params{Seed: 1, Size: 64}, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if pts[1].Cycles <= pts[0].Cycles {
		t.Errorf("extra wire latency did not slow kmp: %v", pts)
	}
}

func TestPolicyComparisonRuns(t *testing.T) {
	spec, err := workloads.ByName("smvm")
	if err != nil {
		t.Fatal(err)
	}
	prio, rr, err := PolicyComparison(spec, workloads.Params{Seed: 1, Size: 32})
	if err != nil {
		t.Fatal(err)
	}
	if prio <= 0 || rr <= 0 {
		t.Fatalf("policy cycles: %d %d", prio, rr)
	}
}

func TestSuiteRequirements(t *testing.T) {
	reqs, err := SuiteRequirements(workloads.Params{Seed: 1, Size: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 8 {
		t.Fatalf("got %d requirement rows", len(reqs))
	}
	byName := map[string]Requirements{}
	for _, r := range reqs {
		byName[r.Name] = r
	}
	// The merge kernel fits the paper's default 16-entry pool; the
	// chain-heavy kernels need more (the E6 sensitivity result).
	if byName["mergesort"].MaxInsts > 16 {
		t.Errorf("mergesort needs %d slots, should fit 16", byName["mergesort"].MaxInsts)
	}
	if byName["aes"].MaxInsts <= 16 {
		t.Errorf("aes unexpectedly fits the default pool (%d slots)", byName["aes"].MaxInsts)
	}
	if byName["fft"].MaxPreds <= 8 {
		t.Errorf("fft unexpectedly fits 8 predicates (%d)", byName["fft"].MaxPreds)
	}
}

func TestConfigTable(t *testing.T) {
	tbl := DefaultFabricConfigTable()
	if len(tbl) < 8 {
		t.Fatalf("config table too short: %d rows", len(tbl))
	}
}

// TestMergeBracket checks the paper's running-example comparison: the
// plain PC baseline brackets the ~62%/64% critical-path reductions from
// above, the enhanced baseline from below.
func TestMergeBracket(t *testing.T) {
	br, err := RunMergeBracket(256, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bracket: %+v", br)
	statPlain := 1 - float64(br.TIAStatic)/float64(br.PlainStatic)
	statEnh := 1 - float64(br.TIAStatic)/float64(br.PCStatic)
	dynPlain := 1 - float64(br.TIADynamic)/float64(br.PlainDynamic)
	dynEnh := 1 - float64(br.TIADynamic)/float64(br.PCDynamic)
	t.Logf("static reduction: enhanced %.0f%%, plain %.0f%%; dynamic: enhanced %.0f%%, plain %.0f%%",
		100*statEnh, 100*statPlain, 100*dynEnh, 100*dynPlain)
	// The merge kernel is the control-dominated extreme, so even the
	// enhanced baseline should show reductions in the paper's regime,
	// and the plain baseline must exceed it.
	if statPlain < 0.62 || dynPlain < 0.64 {
		t.Errorf("plain-baseline reductions %.2f/%.2f below the paper's 0.62/0.64", statPlain, dynPlain)
	}
	if statEnh >= statPlain || dynEnh >= dynPlain {
		t.Errorf("enhanced baseline should reduce less than plain: %.2f/%.2f vs %.2f/%.2f",
			statEnh, dynEnh, statPlain, dynPlain)
	}
	if br.TIACycles >= br.PCCycles || br.PCCycles >= br.PlainCycles {
		t.Errorf("cycle ordering wrong: %d %d %d", br.TIACycles, br.PCCycles, br.PlainCycles)
	}
}

// TestCyclesScaleWithSize: doubling the input roughly doubles (at least
// clearly increases) the cycle count for throughput-bound kernels.
func TestCyclesScaleWithSize(t *testing.T) {
	for _, name := range []string{"mergesort", "kmp", "smvm"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cycles := func(size int) int64 {
			p := spec.Normalize(workloads.Params{Seed: 1, Size: size})
			inst, err := spec.BuildTIA(p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := inst.Fabric.Run(spec.MaxCycles(p))
			if err != nil {
				t.Fatal(err)
			}
			return res.Cycles
		}
		c1, c2 := cycles(64), cycles(128)
		if float64(c2) < 1.5*float64(c1) {
			t.Errorf("%s: cycles did not scale: %d -> %d", name, c1, c2)
		}
		if float64(c2) > 3.0*float64(c1) {
			t.Errorf("%s: superlinear blowup: %d -> %d", name, c1, c2)
		}
	}
}

// TestMemLatencySweepShapes pins the E7 memory-latency findings: smvm's
// pipelined fetch hides an 8-stage scratchpad almost entirely, and the
// triggered fabric stays faster than the PC baseline at every latency.
func TestMemLatencySweepShapes(t *testing.T) {
	spec, err := workloads.ByName("smvm")
	if err != nil {
		t.Fatal(err)
	}
	pts, err := MemLatencySweepContext(context.Background(), spec, workloads.Params{Seed: 1, Size: 64}, []int{0, 8})
	if err != nil {
		t.Fatal(err)
	}
	slowdown := float64(pts[1].TIACycles) / float64(pts[0].TIACycles)
	if slowdown > 1.3 {
		t.Errorf("smvm should hide memory latency, slowdown %.2f", slowdown)
	}
	for _, pt := range pts {
		if pt.TIACycles >= pt.PCCycles {
			t.Errorf("lat=%d: TIA (%d) not faster than PC (%d)", pt.Latency, pt.TIACycles, pt.PCCycles)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	spec, err := workloads.ByName("mergesort")
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunWorkloadContext(context.Background(), spec, workloads.Params{Seed: 1, Size: 32})
	if err != nil {
		t.Fatal(err)
	}
	res := &Results{Rows: []*Row{row}, Summary: Summarize([]*Row{row})}
	var sb strings.Builder
	if err := WriteJSON(&sb, res); err != nil {
		t.Fatal(err)
	}
	back := new(Results)
	if err := json.Unmarshal([]byte(sb.String()), back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 1 || back.Rows[0].Name != "mergesort" ||
		back.Rows[0].TIACycles != row.TIACycles {
		t.Fatalf("round trip mangled results: %+v", back.Rows[0])
	}
	if back.Summary.GeomeanSpeedup != res.Summary.GeomeanSpeedup {
		t.Fatal("summary changed")
	}
}

func TestAreaSensitivity(t *testing.T) {
	spec, err := workloads.ByName("mergesort")
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunWorkloadContext(context.Background(), spec, workloads.Params{Seed: 1, Size: 32})
	if err != nil {
		t.Fatal(err)
	}
	pts := AreaSensitivity([]*Row{row})
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	byLabel := map[string]float64{}
	for _, p := range pts {
		byLabel[p.Label] = p.Geomean
	}
	if byLabel["calibrated"] != row.AreaNormRatio {
		t.Errorf("calibrated point %.3f != measured ratio %.3f", byLabel["calibrated"], row.AreaNormRatio)
	}
	if !(byLabel["PE area x0.5"] > byLabel["calibrated"] && byLabel["calibrated"] > byLabel["PE area x2"]) {
		t.Errorf("PE-area scaling not monotone: %+v", byLabel)
	}
	if !(byLabel["core IPC 1"] > byLabel["calibrated"] && byLabel["calibrated"] > byLabel["core IPC 3"]) {
		t.Errorf("IPC scaling not monotone: %+v", byLabel)
	}
}

// TestReplicationLinearity underpins E3's methodology: independent kernel
// instances sharing a fabric do not interfere, so throughput scales with
// replica count (equal-area comparison is therefore fair).
func TestReplicationLinearity(t *testing.T) {
	single, replicated, err := ReplicationCheck(256, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Independent instances: same completion time within a few cycles.
	if diff := replicated - single; diff < 0 || diff > 8 {
		t.Errorf("8 replicas took %d cycles vs %d for one (interference?)", replicated, single)
	}
}
