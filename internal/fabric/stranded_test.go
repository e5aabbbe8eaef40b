package fabric

// Tests for the stranded-token rule of the quiescence check (see
// Stepper.epilogue): a fabric with pending sinks is declared deadlocked
// at a fixed point even while tokens sit in FIFOs, but never while an
// element still asks to be stepped, and a fabric without sinks never
// completes on a stranded token. The drop-fault regression that
// motivates the rule lives in internal/faults.

import (
	"errors"
	"reflect"
	"testing"

	"tia/internal/isa"
	"tia/internal/pcpe"
)

// TestSinklessStrandedTokenNeverCompletes: a sinkless fabric completes
// by quiescence, which must still mean every channel drained. Here the
// PE waits for an EOD that never comes, so the source's tokens sit in
// its FIFO forever; the run must end at the budget, not as Completed.
func TestSinklessStrandedTokenNeverCompletes(t *testing.T) {
	prog := []isa.Instruction{{
		Label:   "eod",
		Trigger: isa.When(nil, []isa.InputCond{isa.InTagEq(0, isa.TagEOD)}),
		Op:      isa.OpHalt,
		Deq:     []int{0},
	}}
	for _, m := range stepModes {
		f := New(DefaultConfig())
		src := NewWordSource("src", []isa.Word{1, 2}, false)
		p := mustPE(t, "p", prog)
		f.Add(src)
		f.Add(p)
		f.Wire(src, 0, p, 0)
		f.SetDenseStepping(m.dense)
		f.SetInterpreted(!m.compiled)
		res, err := f.Run(500)
		if res.Completed || res.Quiesced || !errors.Is(err, ErrTimeout) {
			t.Errorf("%s: %+v, %v; want ErrTimeout without completion", m.label, res, err)
		}
	}
}

// TestPenaltyDrainIsNotDeadlock: a PC PE whose taken branches cost a
// penalty three quiescence windows long does no work while it drains
// one, and only its NeedsStep hint tells those cycles from a fixed
// point. The forwarding loop drains with tokens waiting in its input
// FIFO; the counting loop drains with every channel empty. Under every
// stepping mode both runs complete with the expected tokens.
func TestPenaltyDrainIsNotDeadlock(t *testing.T) {
	words := []isa.Word{5, 6, 7, 8, 9, 10}
	cases := []struct {
		name  string
		words []isa.Word // source stream; nil for a PE without input
		prog  []pcpe.Inst
		want  []isa.Word
	}{
		{"forward", words, []pcpe.Inst{
			{Label: "loop", Kind: pcpe.KindBr, BrOp: pcpe.BrEQ, Srcs: [2]pcpe.Src{pcpe.ChanTag(0), pcpe.Imm(isa.Word(isa.TagEOD))}, Target: "done"},
			{Kind: pcpe.KindALU, Op: isa.OpMov, Srcs: [2]pcpe.Src{pcpe.ChanPop(0), {}}, Dsts: []pcpe.Dst{pcpe.DOut(0, isa.TagData)}},
			{Kind: pcpe.KindJmp, Target: "loop"},
			{Label: "done", Kind: pcpe.KindALU, Op: isa.OpMov, Srcs: [2]pcpe.Src{pcpe.ChanPop(0), {}}, Dsts: []pcpe.Dst{pcpe.DOut(0, isa.TagEOD)}},
			{Kind: pcpe.KindHalt},
		}, words},
		{"count", nil, []pcpe.Inst{
			{Label: "loop", Kind: pcpe.KindALU, Op: isa.OpAdd, Srcs: [2]pcpe.Src{pcpe.Reg(0), pcpe.Imm(1)}, Dsts: []pcpe.Dst{pcpe.DReg(0)}},
			{Kind: pcpe.KindBr, BrOp: pcpe.BrLTU, Srcs: [2]pcpe.Src{pcpe.Reg(0), pcpe.Imm(5)}, Target: "loop"},
			{Kind: pcpe.KindALU, Op: isa.OpMov, Srcs: [2]pcpe.Src{pcpe.Reg(0), {}}, Dsts: []pcpe.Dst{pcpe.DOut(0, isa.TagData)}},
			{Kind: pcpe.KindALU, Op: isa.OpMov, Srcs: [2]pcpe.Src{pcpe.Imm(0), {}}, Dsts: []pcpe.Dst{pcpe.DOut(0, isa.TagEOD)}},
			{Kind: pcpe.KindHalt},
		}, []isa.Word{5}},
	}
	for _, tc := range cases {
		for _, m := range stepModes {
			f := New(DefaultConfig())
			cfg := pcpe.DefaultConfig()
			cfg.TakenPenalty = 3 * f.Config().QuiescenceWindow
			p, err := pcpe.New("p", cfg, tc.prog)
			if err != nil {
				t.Fatal(err)
			}
			f.Add(p)
			if tc.words != nil {
				src := NewWordSource("src", tc.words, true)
				f.Add(src)
				f.Wire(src, 0, p, 0)
			}
			snk := NewSink("snk")
			f.Add(snk)
			f.Wire(p, 0, snk, 0)
			f.SetDenseStepping(m.dense)
			f.SetInterpreted(!m.compiled)
			res, err := f.Run(10_000)
			if err != nil || !res.Completed {
				t.Fatalf("%s/%s: %+v, %v; want completion", tc.name, m.label, res, err)
			}
			if got := snk.Words(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("%s/%s: sink got %v, want %v", tc.name, m.label, got, tc.want)
			}
			if st := p.Stats(); st.PenaltyStall < int64(len(tc.want)*cfg.TakenPenalty) {
				t.Fatalf("%s/%s: %d penalty cycles; the loop should pay at least one penalty per token", tc.name, m.label, st.PenaltyStall)
			}
		}
	}
}
