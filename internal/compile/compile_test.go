package compile

import (
	"reflect"
	"testing"

	"tia/internal/isa"
)

// prog builds a small program exercising every partial-evaluation rule:
//
//	[0] when p0 & !p7   : add out0 <- in0, r1   (p7 never written: elided)
//	[1] when p7         : add r2 <- in0, in1    (p7 never written, false: dead)
//	[2] when p0         : add r2 <- r3, #5      (r3 never written: folded)
//	[3] always          : mov out0 <- in1, deq in1
func testProg() []isa.Instruction {
	return []isa.Instruction{
		{
			Trigger: isa.When([]isa.PredLit{isa.P(0), isa.NotP(7)}, []isa.InputCond{isa.InReady(0)}),
			Op:      isa.OpAdd,
			Srcs:    [2]isa.Src{isa.In(0), isa.Reg(1)},
			Dsts:    []isa.Dst{isa.DOut(0, isa.TagData)},
			Deq:     []int{0},
		},
		{
			Trigger: isa.When([]isa.PredLit{isa.P(7)}, nil),
			Op:      isa.OpAdd,
			Srcs:    [2]isa.Src{isa.In(0), isa.In(1)},
			Dsts:    []isa.Dst{isa.DReg(2)},
			Deq:     []int{0},
		},
		{
			Trigger:     isa.When([]isa.PredLit{isa.P(0)}, nil),
			Op:          isa.OpAdd,
			Srcs:        [2]isa.Src{isa.Reg(3), isa.Imm(5)},
			Dsts:        []isa.Dst{isa.DReg(2)},
			PredUpdates: []isa.PredUpdate{isa.ClrP(0)},
		},
		{
			Op:   isa.OpMov,
			Srcs: [2]isa.Src{isa.In(1), {}},
			Dsts: []isa.Dst{isa.DOut(0, isa.TagData)},
			Deq:  []int{1},
		},
	}
}

func analyzeTestProg(t *testing.T) *Plan {
	t.Helper()
	cfg := isa.DefaultConfig()
	prog := testProg()
	if err := cfg.ValidateProgram(prog); err != nil {
		t.Fatalf("test program invalid: %v", err)
	}
	regs := make([]isa.Word, cfg.NumRegs)
	regs[1] = 11 // written? no instruction writes r1 -> constant
	regs[3] = 37
	return Analyze(cfg, prog, regs, 1<<0) // p0 initially true, p7 false
}

func TestAnalyzeRules(t *testing.T) {
	p := analyzeTestProg(t)

	if got, want := len(p.Dead), 1; got != want {
		t.Fatalf("dead = %v, want 1 entry", p.Dead)
	}
	if p.Dead[0] != 1 {
		t.Errorf("dead instruction index = %d, want 1", p.Dead[0])
	}
	if got := len(p.Live); got != 3 {
		t.Fatalf("live = %d instructions, want 3", got)
	}

	// r1 and r3 are never written -> constant; r2 is written.
	for _, r := range []int{1, 3} {
		if p.ConstRegs&(1<<uint(r)) == 0 {
			t.Errorf("r%d not constant; ConstRegs=%b", r, p.ConstRegs)
		}
	}
	if p.ConstRegs&(1<<2) != 0 {
		t.Errorf("r2 wrongly constant; ConstRegs=%b", p.ConstRegs)
	}
	// p0 is written (ClrP), p7 is not.
	if p.ConstPreds&(1<<7) == 0 || p.ConstPreds&(1<<0) != 0 {
		t.Errorf("ConstPreds=%b, want p7 constant and p0 dynamic", p.ConstPreds)
	}

	// Instruction 0: !p7 elided, p0 stays dynamic, r1 operand constant.
	i0 := p.Live[0]
	if i0.Index != 0 || i0.ElidedPreds != 1 {
		t.Errorf("inst0: index=%d elided=%d, want 0/1", i0.Index, i0.ElidedPreds)
	}
	if i0.PredMask != 1 || i0.PredVal != 1 {
		t.Errorf("inst0 residual guard mask=%b val=%b, want p0 only", i0.PredMask, i0.PredVal)
	}
	if !i0.SrcConst[1] || i0.SrcVal[1] != 11 {
		t.Errorf("inst0 src1 const=%v val=%d, want r1's initial 11", i0.SrcConst[1], i0.SrcVal[1])
	}
	if i0.SrcConst[0] || i0.Folded {
		t.Errorf("inst0 src0 (channel) wrongly constant, or folded")
	}

	// Instruction 2: r3+5 folds to 42.
	i2 := p.Live[1]
	if i2.Index != 2 || !i2.Folded || i2.FoldedVal != 42 {
		t.Errorf("inst2: index=%d folded=%v val=%d, want 2/true/42", i2.Index, i2.Folded, i2.FoldedVal)
	}

	st := p.Stats()
	if st.Static != 4 || st.Live != 3 || st.Dead != 1 || st.Folded != 1 || st.ElidedPreds != 1 {
		t.Errorf("stats = %+v", st)
	}
	if p.Describe() == "" {
		t.Error("Describe returned empty string")
	}
}

// TestAnalyzeTracksConstantState pins what a plan depends on: only the
// constant state, so mutating a *written* register or predicate yields an
// equal plan (any reachable mid-run state analyzes the same), while
// mutating a constant one changes folding or liveness.
func TestAnalyzeTracksConstantState(t *testing.T) {
	cfg := isa.DefaultConfig()
	prog := testProg()
	regs := make([]isa.Word, cfg.NumRegs)
	regs[1], regs[3] = 11, 37
	base := Analyze(cfg, prog, regs, 1<<0)

	regs2 := append([]isa.Word(nil), regs...)
	regs2[2] = 999 // r2 is written: irrelevant to the plan
	if same := Analyze(cfg, prog, regs2, 0); !reflect.DeepEqual(same, base) {
		t.Errorf("plan changed when only written state differed:\n%+v\n%+v", same, base)
	}

	regs3 := append([]isa.Word(nil), regs...)
	regs3[3] = 100 // r3 is constant: folding changes
	diff := Analyze(cfg, prog, regs3, 1<<0)
	if !diff.Live[1].Folded || diff.Live[1].FoldedVal != 105 {
		t.Errorf("refold with r3=100: %+v", diff.Live[1])
	}

	// Flipping the never-written p7 kills instruction 0 and revives 1.
	flipped := Analyze(cfg, prog, regs, 1<<0|1<<7)
	if len(flipped.Dead) != 1 || flipped.Dead[0] != 0 {
		t.Errorf("with p7 set, dead = %v, want [0]", flipped.Dead)
	}
}

// TestCountersCountAnalyses pins the counter the benchmark reads: every
// Analyze is one miss, and nothing is ever a hit.
func TestCountersCountAnalyses(t *testing.T) {
	cfg := isa.DefaultConfig()
	regs := make([]isa.Word, cfg.NumRegs)
	before := Counters()
	Analyze(cfg, testProg(), regs, 0)
	Analyze(cfg, testProg(), regs, 0)
	after := Counters()
	if after.Misses-before.Misses != 2 || after.Hits != 0 {
		t.Errorf("two analyses: counters %+v -> %+v, want 2 more misses and no hits", before, after)
	}
}
