package workloads

import (
	"context"
	"testing"
)

// TestVerifyAll checks, for every registered kernel, that the triggered
// fabric, the PC-style fabric and the GPP program all reproduce the golden
// reference output, across a few sizes and seeds.
func TestVerifyAll(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, size := range []int{0 /* default */, 17, 40} {
				for seed := int64(1); seed <= 3; seed++ {
					p := Params{Size: size, Seed: seed}
					if _, err := spec.VerifyFullContext(context.Background(), p); err != nil {
						t.Fatalf("size=%d seed=%d: %v", size, seed, err)
					}
				}
			}
		})
	}
}

// TestSuiteComplete pins the paper's kernel list.
func TestSuiteComplete(t *testing.T) {
	want := map[string]bool{
		"mergesort": true, "kmp": true, "smvm": true, "dmm": true,
		"sha256": true, "fft": true, "graph500": true, "aes": true,
	}
	got := map[string]bool{}
	for _, s := range All() {
		got[s.Name] = true
		if s.Description == "" || s.DefaultSize <= 0 {
			t.Errorf("%s: incomplete spec metadata", s.Name)
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("kernel %s missing from suite", name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("mergesort"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

// TestTIAFasterThanPC asserts the paper's headline direction on every
// kernel: the triggered fabric completes in no more cycles than the PC
// baseline.
func TestTIAFasterThanPC(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			p := spec.Normalize(Params{Seed: 7})
			tia, err := spec.BuildTIA(p)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := tia.Fabric.Run(spec.MaxCycles(p))
			if err != nil {
				t.Fatal(err)
			}
			pc, err := spec.BuildPC(p)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := pc.Fabric.Run(spec.MaxCycles(p))
			if err != nil {
				t.Fatal(err)
			}
			if rt.Cycles > rp.Cycles {
				t.Errorf("TIA %d cycles slower than PC %d cycles", rt.Cycles, rp.Cycles)
			}
			t.Logf("speedup %.2fx (tia=%d pc=%d)", float64(rp.Cycles)/float64(rt.Cycles), rt.Cycles, rp.Cycles)
		})
	}
}

// TestCriticalPEDesignated ensures every instance designates its critical
// PE so the instruction-count experiments can run.
func TestCriticalPEDesignated(t *testing.T) {
	for _, spec := range All() {
		p := spec.Normalize(Params{Seed: 1, Size: 8})
		tia, err := spec.BuildTIA(p)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if tia.CriticalTIA == nil || len(tia.PEs) == 0 {
			t.Errorf("%s: TIA instance lacks critical PE designation", spec.Name)
		}
		pc, err := spec.BuildPC(p)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if pc.CriticalPC == nil || len(pc.PCPEs) == 0 {
			t.Errorf("%s: PC instance lacks critical PE designation", spec.Name)
		}
	}
}

// TestVerifyAllWideIssue re-verifies every kernel under the superscalar
// (width-2) trigger scheduler: results must be unchanged.
func TestVerifyAllWideIssue(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			p := Params{Seed: 2, Size: 20, IssueWidth: 2}
			if _, err := spec.VerifyFullContext(context.Background(), p); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVerifyAllMemLatency re-verifies every kernel with pipelined (4-stage)
// scratchpad reads: latency-insensitive programs must be unaffected.
func TestVerifyAllMemLatency(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			if _, err := spec.VerifyFullContext(context.Background(), Params{Seed: 3, Size: 24, MemLatency: 4}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
