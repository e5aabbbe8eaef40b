package pe

import (
	"reflect"
	"strings"
	"testing"

	"tia/internal/channel"
	"tia/internal/isa"
)

// harness builds a PE with nIn/nOut connected channels and steps it with
// channel ticks, mimicking a one-PE fabric.
type harness struct {
	pe    *PE
	in    []*channel.Channel
	out   []*channel.Channel
	cycle int64
}

func newHarness(t *testing.T, prog []isa.Instruction, nIn, nOut int) *harness {
	t.Helper()
	cfg := isa.DefaultConfig()
	p, err := New("test", cfg, prog)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h := &harness{pe: p}
	for i := 0; i < nIn; i++ {
		ch := channel.New("in", 4, 0)
		p.ConnectIn(i, ch)
		h.in = append(h.in, ch)
	}
	for i := 0; i < nOut; i++ {
		ch := channel.New("out", 4, 0)
		p.ConnectOut(i, ch)
		h.out = append(h.out, ch)
	}
	return h
}

func (h *harness) step() bool {
	fired := h.pe.Step(h.cycle)
	for _, c := range h.in {
		c.Tick()
	}
	for _, c := range h.out {
		c.Tick()
	}
	h.cycle++
	return fired
}

func (h *harness) feed(ch int, toks ...channel.Token) {
	for _, tok := range toks {
		h.in[ch].Send(tok)
	}
}

func (h *harness) drain(ch int) []channel.Token {
	var out []channel.Token
	for {
		tok, ok := h.out[ch].Peek()
		if !ok {
			break
		}
		out = append(out, tok)
		h.out[ch].Deq()
		h.out[ch].Tick()
	}
	return out
}

func TestFireSimpleAdd(t *testing.T) {
	prog := []isa.Instruction{{
		Label:   "addup",
		Trigger: isa.When(nil, []isa.InputCond{isa.InReady(0), isa.InReady(1)}),
		Op:      isa.OpAdd,
		Srcs:    [2]isa.Src{isa.In(0), isa.In(1)},
		Dsts:    []isa.Dst{isa.DOut(0, isa.TagData)},
		Deq:     []int{0, 1},
	}}
	h := newHarness(t, prog, 2, 1)
	h.feed(0, channel.Data(3))
	h.feed(1, channel.Data(4))
	h.step() // tokens become visible
	if h.pe.Stats().Fired != 0 {
		t.Fatal("fired before inputs were visible")
	}
	if !h.step() {
		t.Fatal("did not fire with both inputs ready")
	}
	h.step()
	got := h.drain(0)
	if len(got) != 1 || got[0].Data != 7 {
		t.Fatalf("output = %v, want [7]", got)
	}
}

func TestPredicateGating(t *testing.T) {
	prog := []isa.Instruction{
		{
			Label:   "whenP0",
			Trigger: isa.When([]isa.PredLit{isa.P(0)}, nil),
			Op:      isa.OpMov,
			Srcs:    [2]isa.Src{isa.Imm(1), {}},
			Dsts:    []isa.Dst{isa.DReg(0)},
			PredUpdates: []isa.PredUpdate{
				isa.ClrP(0),
			},
		},
	}
	h := newHarness(t, prog, 0, 0)
	if h.step() {
		t.Fatal("fired with predicate false")
	}
	h.pe.SetPred(0, true)
	if !h.step() {
		t.Fatal("did not fire with predicate true")
	}
	if h.pe.Pred(0) {
		t.Fatal("explicit clr did not clear predicate")
	}
	if h.step() {
		t.Fatal("fired again after predicate cleared")
	}
	if h.pe.Reg(0) != 1 {
		t.Fatalf("r0 = %d, want 1", h.pe.Reg(0))
	}
}

func TestTagMatching(t *testing.T) {
	prog := []isa.Instruction{
		{
			Label:   "onData",
			Trigger: isa.When(nil, []isa.InputCond{isa.InTagEq(0, isa.TagData)}),
			Op:      isa.OpMov,
			Srcs:    [2]isa.Src{isa.In(0), {}},
			Dsts:    []isa.Dst{isa.DOut(0, isa.TagData)},
			Deq:     []int{0},
		},
		{
			Label:   "onEOD",
			Trigger: isa.When(nil, []isa.InputCond{isa.InTagEq(0, isa.TagEOD)}),
			Op:      isa.OpHalt,
			Deq:     []int{0},
		},
	}
	h := newHarness(t, prog, 1, 1)
	h.feed(0, channel.Data(5), channel.EOD())
	for i := 0; i < 10 && !h.pe.Done(); i++ {
		h.step()
	}
	if !h.pe.Done() {
		t.Fatal("PE did not halt on EOD")
	}
	got := h.drain(0)
	if len(got) != 1 || got[0].Data != 5 {
		t.Fatalf("output = %v, want [5]", got)
	}
	s := h.pe.Stats()
	if s.PerInst[0] != 1 || s.PerInst[1] != 1 {
		t.Fatalf("per-inst fires = %v, want [1 1]", s.PerInst)
	}
}

func TestTagNeCondition(t *testing.T) {
	prog := []isa.Instruction{{
		Label:   "notEOD",
		Trigger: isa.When(nil, []isa.InputCond{isa.InTagNe(0, isa.TagEOD)}),
		Op:      isa.OpMov,
		Srcs:    [2]isa.Src{isa.In(0), {}},
		Dsts:    []isa.Dst{isa.DReg(0)},
		Deq:     []int{0},
	}}
	h := newHarness(t, prog, 1, 0)
	h.feed(0, channel.EOD())
	h.step()
	if h.step() {
		t.Fatal("fired on EOD token despite tag!=EOD condition")
	}
}

func TestOutputBackpressure(t *testing.T) {
	prog := []isa.Instruction{{
		Label: "spam",
		Op:    isa.OpMov,
		Srcs:  [2]isa.Src{isa.Imm(9), {}},
		Dsts:  []isa.Dst{isa.DOut(0, isa.TagData)},
	}}
	cfg := isa.DefaultConfig()
	p, err := New("bp", cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	out := channel.New("out", 2, 0)
	p.ConnectOut(0, out)
	for i := int64(0); i < 10; i++ {
		p.Step(i)
		out.Tick()
	}
	s := p.Stats()
	if s.Fired != 2 {
		t.Fatalf("fired %d times into capacity-2 channel with no consumer, want 2", s.Fired)
	}
	if s.OutputStall != 8 {
		t.Fatalf("OutputStall = %d, want 8", s.OutputStall)
	}
}

func TestFlagDerivedPredicate(t *testing.T) {
	// leu p0, in0, in1  — the merge kernel's comparison idiom.
	prog := []isa.Instruction{{
		Label:   "cmp",
		Trigger: isa.When([]isa.PredLit{isa.NotP(1)}, []isa.InputCond{isa.InReady(0), isa.InReady(1)}),
		Op:      isa.OpLEU,
		Srcs:    [2]isa.Src{isa.In(0), isa.In(1)},
		Dsts:    []isa.Dst{isa.DPred(0)},
		PredUpdates: []isa.PredUpdate{
			isa.SetP(1),
		},
	}}
	h := newHarness(t, prog, 2, 0)
	h.feed(0, channel.Data(3))
	h.feed(1, channel.Data(5))
	h.step()
	h.step()
	if !h.pe.Pred(0) {
		t.Fatal("3 <= 5 should set p0")
	}
	if !h.pe.Pred(1) {
		t.Fatal("explicit set p1 missing")
	}
}

func TestSrcInTag(t *testing.T) {
	prog := []isa.Instruction{{
		Label:   "tagval",
		Trigger: isa.When(nil, []isa.InputCond{isa.InReady(0)}),
		Op:      isa.OpMov,
		Srcs:    [2]isa.Src{isa.InTag(0), {}},
		Dsts:    []isa.Dst{isa.DReg(2)},
		Deq:     []int{0},
	}}
	h := newHarness(t, prog, 1, 0)
	h.feed(0, channel.Token{Data: 99, Tag: 3})
	h.step()
	h.step()
	if h.pe.Reg(2) != 3 {
		t.Fatalf("r2 = %d, want tag 3", h.pe.Reg(2))
	}
}

func TestPriorityOrder(t *testing.T) {
	// Two always-ready instructions; priority must fire the first only.
	prog := []isa.Instruction{
		{Label: "hi", Op: isa.OpMov, Srcs: [2]isa.Src{isa.Imm(1), {}}, Dsts: []isa.Dst{isa.DReg(0)}},
		{Label: "lo", Op: isa.OpMov, Srcs: [2]isa.Src{isa.Imm(2), {}}, Dsts: []isa.Dst{isa.DReg(1)}},
	}
	h := newHarness(t, prog, 0, 0)
	for i := 0; i < 4; i++ {
		h.step()
	}
	s := h.pe.Stats()
	if s.PerInst[0] != 4 || s.PerInst[1] != 0 {
		t.Fatalf("priority fires = %v, want [4 0]", s.PerInst)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	prog := []isa.Instruction{
		{Label: "a", Op: isa.OpMov, Srcs: [2]isa.Src{isa.Imm(1), {}}, Dsts: []isa.Dst{isa.DReg(0)}},
		{Label: "b", Op: isa.OpMov, Srcs: [2]isa.Src{isa.Imm(2), {}}, Dsts: []isa.Dst{isa.DReg(1)}},
	}
	h := newHarness(t, prog, 0, 0)
	h.pe.SetPolicy(SchedRoundRobin)
	for i := 0; i < 8; i++ {
		h.step()
	}
	s := h.pe.Stats()
	if s.PerInst[0] != 4 || s.PerInst[1] != 4 {
		t.Fatalf("round-robin fires = %v, want [4 4]", s.PerInst)
	}
}

func TestStallClassification(t *testing.T) {
	prog := []isa.Instruction{{
		Label:   "needsInput",
		Trigger: isa.When([]isa.PredLit{isa.P(0)}, []isa.InputCond{isa.InReady(0)}),
		Op:      isa.OpMov,
		Srcs:    [2]isa.Src{isa.In(0), {}},
		Dsts:    []isa.Dst{isa.DReg(0)},
		Deq:     []int{0},
	}}
	h := newHarness(t, prog, 1, 0)
	// Predicate false: idle, not input stall.
	h.step()
	if s := h.pe.Stats(); s.IdleCycles != 1 || s.InputStall != 0 {
		t.Fatalf("want idle cycle, got %+v", s)
	}
	h.pe.SetPred(0, true)
	h.step()
	if s := h.pe.Stats(); s.InputStall != 1 {
		t.Fatalf("want input stall, got %+v", s)
	}
}

func TestHaltStopsStepping(t *testing.T) {
	prog := []isa.Instruction{{Label: "die", Op: isa.OpHalt}}
	h := newHarness(t, prog, 0, 0)
	h.step()
	if !h.pe.Done() {
		t.Fatal("halt did not mark done")
	}
	cycles := h.pe.Stats().Cycles
	h.step()
	if h.pe.Stats().Cycles != cycles {
		t.Fatal("stepped after halt")
	}
}

func TestReset(t *testing.T) {
	prog := []isa.Instruction{{
		Label: "inc",
		Op:    isa.OpAdd,
		Srcs:  [2]isa.Src{isa.Reg(0), isa.Imm(1)},
		Dsts:  []isa.Dst{isa.DReg(0)},
	}}
	h := newHarness(t, prog, 0, 0)
	h.pe.SetReg(0, 10)
	h.pe.SetPred(3, true)
	h.step()
	h.step()
	if h.pe.Reg(0) != 12 {
		t.Fatalf("r0 = %d, want 12", h.pe.Reg(0))
	}
	h.pe.Reset()
	if h.pe.Reg(0) != 10 || !h.pe.Pred(3) {
		t.Fatal("Reset did not restore initial state")
	}
	if h.pe.Stats().Fired != 0 {
		t.Fatal("Reset did not zero stats")
	}
}

func TestCheckConnections(t *testing.T) {
	prog := []isa.Instruction{{
		Label:   "x",
		Trigger: isa.When(nil, []isa.InputCond{isa.InReady(0)}),
		Op:      isa.OpMov,
		Srcs:    [2]isa.Src{isa.In(0), {}},
		Dsts:    []isa.Dst{isa.DOut(1, 0)},
		Deq:     []int{0},
	}}
	p, err := New("conn", isa.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckConnections(); err == nil {
		t.Fatal("unconnected input accepted")
	}
	p.ConnectIn(0, channel.New("i", 2, 0))
	if err := p.CheckConnections(); err == nil {
		t.Fatal("unconnected output accepted")
	}
	p.ConnectOut(1, channel.New("o", 2, 0))
	if err := p.CheckConnections(); err != nil {
		t.Fatalf("fully connected PE rejected: %v", err)
	}
}

func TestNewRejectsInvalidProgram(t *testing.T) {
	bad := []isa.Instruction{{Op: isa.OpAdd}} // missing sources
	if _, err := New("bad", isa.DefaultConfig(), bad); err == nil {
		t.Fatal("invalid program accepted")
	}
}

// TestMergeKernel runs the paper's running example — merging two sorted
// streams — on a single PE, checking the merged output and that the
// per-element dynamic instruction count is 2 (compare + send).
func TestMergeKernel(t *testing.T) {
	prog := MergeProgram()
	cfg := isa.DefaultConfig()
	p, err := New("merge", cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	a := channel.New("a", 4, 0)
	b := channel.New("b", 4, 0)
	o := channel.New("o", 4, 0)
	p.ConnectIn(0, a)
	p.ConnectIn(1, b)
	p.ConnectOut(0, o)
	if err := p.CheckConnections(); err != nil {
		t.Fatal(err)
	}

	left := []isa.Word{1, 3, 5, 7}
	right := []isa.Word{2, 4, 6, 8}
	li, ri := 0, 0
	var got []isa.Word
	eodSeen := false
	for cyc := int64(0); cyc < 500 && !eodSeen; cyc++ {
		if li < len(left) && a.CanAccept() {
			a.Send(channel.Data(left[li]))
			li++
		} else if li == len(left) && a.CanAccept() {
			a.Send(channel.EOD())
			li++
		}
		if ri < len(right) && b.CanAccept() {
			b.Send(channel.Data(right[ri]))
			ri++
		} else if ri == len(right) && b.CanAccept() {
			b.Send(channel.EOD())
			ri++
		}
		p.Step(cyc)
		if tok, ok := o.Peek(); ok {
			if tok.Tag == isa.TagEOD {
				eodSeen = true
			} else {
				got = append(got, tok.Data)
			}
			o.Deq()
		}
		a.Tick()
		b.Tick()
		o.Tick()
	}
	if !eodSeen {
		t.Fatal("merge never emitted EOD")
	}
	want := []isa.Word{1, 2, 3, 4, 5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged %v, want %v", got, want)
		}
	}
}

// TestIssueWidthParallelSemantics: two independent always-ready
// instructions fire in one cycle at width 2; a register swap expressed as
// two parallel movs must read start-of-cycle values.
func TestIssueWidthParallelSemantics(t *testing.T) {
	prog := []isa.Instruction{
		{Label: "x2y", Op: isa.OpMov, Srcs: [2]isa.Src{isa.Reg(0), {}}, Dsts: []isa.Dst{isa.DReg(1)}},
		{Label: "y2x", Op: isa.OpMov, Srcs: [2]isa.Src{isa.Reg(1), {}}, Dsts: []isa.Dst{isa.DReg(0)}},
	}
	p, err := New("swap", isa.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	p.SetIssueWidth(2)
	p.SetReg(0, 7)
	p.SetReg(1, 9)
	p.Step(0)
	if p.Reg(0) != 9 || p.Reg(1) != 7 {
		t.Fatalf("parallel swap gave r0=%d r1=%d, want 9 7", p.Reg(0), p.Reg(1))
	}
	if p.Stats().Fired != 2 {
		t.Fatalf("fired %d in one cycle, want 2", p.Stats().Fired)
	}
}

// TestIssueWidthRoundRobin: round-robin wide issue scans each row once
// per cycle from the offset the cycle starts with, then moves the offset
// past the last row fired. Three always-ready movs at width 2 fire rows
// 0 and 1, then 2 and 0; a mov with no destination (so no structural
// conflict with itself) still fires at most once per cycle. The
// interpreter and the compiled step function both must.
func TestIssueWidthRoundRobin(t *testing.T) {
	mov := func(r int) isa.Instruction {
		return isa.Instruction{Op: isa.OpMov, Srcs: [2]isa.Src{isa.Imm(1), {}}, Dsts: []isa.Dst{isa.DReg(r)}}
	}
	for _, stepper := range []struct {
		label string
		step  func(*PE) func(int64) bool
	}{
		{"interpreted", func(p *PE) func(int64) bool { return p.Step }},
		{"compiled", (*PE).CompileStep},
	} {
		p, err := New("rr", isa.DefaultConfig(), []isa.Instruction{mov(0), mov(1), mov(2)})
		if err != nil {
			t.Fatal(err)
		}
		p.SetPolicy(SchedRoundRobin)
		p.SetIssueWidth(2)
		step := stepper.step(p)
		for cyc, want := range [][]int64{{1, 1, 0}, {2, 1, 1}, {2, 2, 2}} {
			step(int64(cyc))
			if got := p.Stats().PerInst; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: after cycle %d: per-instruction fires %v, want %v", stepper.label, cyc, got, want)
			}
		}

		lone, err := New("lone", isa.DefaultConfig(), []isa.Instruction{
			{Op: isa.OpMov, Srcs: [2]isa.Src{isa.Imm(1), {}}},
			{Trigger: isa.When([]isa.PredLit{isa.P(0)}, nil), Op: isa.OpMov, Srcs: [2]isa.Src{isa.Imm(1), {}}, Dsts: []isa.Dst{isa.DReg(0)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		lone.SetPolicy(SchedRoundRobin)
		lone.SetIssueWidth(2)
		step = stepper.step(lone)
		for cyc := int64(0); cyc < 3; cyc++ {
			step(cyc)
			if got := lone.Stats().PerInst[0]; got != cyc+1 {
				t.Fatalf("%s: after cycle %d: the destination-less mov fired %d times, want %d", stepper.label, cyc, got, cyc+1)
			}
		}
	}
}

// TestIssueWidthConflicts: instructions writing the same register or
// output cannot dual-issue.
func TestIssueWidthConflicts(t *testing.T) {
	prog := []isa.Instruction{
		{Label: "a", Op: isa.OpMov, Srcs: [2]isa.Src{isa.Imm(1), {}}, Dsts: []isa.Dst{isa.DReg(0)}},
		{Label: "b", Op: isa.OpMov, Srcs: [2]isa.Src{isa.Imm(2), {}}, Dsts: []isa.Dst{isa.DReg(0)}},
	}
	p, err := New("waw", isa.DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	p.SetIssueWidth(4)
	p.Step(0)
	if p.Stats().Fired != 1 {
		t.Fatalf("WAW pair dual-issued: fired=%d", p.Stats().Fired)
	}
	if p.Reg(0) != 1 {
		t.Fatalf("priority winner should write: r0=%d", p.Reg(0))
	}

	outConflict := []isa.Instruction{
		{Label: "a", Op: isa.OpMov, Srcs: [2]isa.Src{isa.Imm(1), {}}, Dsts: []isa.Dst{isa.DOut(0, 0)}},
		{Label: "b", Op: isa.OpMov, Srcs: [2]isa.Src{isa.Imm(2), {}}, Dsts: []isa.Dst{isa.DOut(0, 0)}},
	}
	p2, err := New("oconf", isa.DefaultConfig(), outConflict)
	if err != nil {
		t.Fatal(err)
	}
	p2.SetIssueWidth(2)
	out := channel.New("o", 4, 0)
	p2.ConnectOut(0, out)
	p2.Step(0)
	out.Tick()
	if p2.Stats().Fired != 1 || out.Len() != 1 {
		t.Fatalf("output conflict dual-issued: fired=%d len=%d", p2.Stats().Fired, out.Len())
	}
}

// TestIssueWidthSpeedsUpMerge: the merge kernel's compare and send can
// overlap at width 2 only when independent; at minimum the wide scheduler
// must not change results.
func TestIssueWidthMergeEquivalence(t *testing.T) {
	run := func(width int) ([]isa.Word, int64) {
		p, err := New("m", isa.DefaultConfig(), MergeProgram())
		if err != nil {
			t.Fatal(err)
		}
		p.SetIssueWidth(width)
		a := channel.New("a", 4, 0)
		b := channel.New("b", 4, 0)
		o := channel.New("o", 4, 0)
		p.ConnectIn(0, a)
		p.ConnectIn(1, b)
		p.ConnectOut(0, o)
		left := []isa.Word{1, 4, 9, 16, 25}
		right := []isa.Word{2, 3, 10, 20}
		li, ri := 0, 0
		var got []isa.Word
		var cycles int64
		for cyc := int64(0); cyc < 1000; cyc++ {
			if li <= len(left) && a.CanAccept() {
				if li < len(left) {
					a.Send(channel.Data(left[li]))
				} else {
					a.Send(channel.EOD())
				}
				li++
			}
			if ri <= len(right) && b.CanAccept() {
				if ri < len(right) {
					b.Send(channel.Data(right[ri]))
				} else {
					b.Send(channel.EOD())
				}
				ri++
			}
			p.Step(cyc)
			if tok, ok := o.Peek(); ok {
				if tok.Tag == isa.TagEOD {
					cycles = cyc
					break
				}
				got = append(got, tok.Data)
				o.Deq()
			}
			a.Tick()
			b.Tick()
			o.Tick()
		}
		return got, cycles
	}
	got1, cyc1 := run(1)
	got2, cyc2 := run(2)
	if len(got1) != len(got2) {
		t.Fatalf("width changed results: %v vs %v", got1, got2)
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("width changed results: %v vs %v", got1, got2)
		}
	}
	if cyc2 > cyc1 {
		t.Errorf("width 2 slower (%d) than width 1 (%d)", cyc2, cyc1)
	}
}

func TestAccessorsAndDumpState(t *testing.T) {
	p, err := New("acc", isa.DefaultConfig(), MergeProgram())
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "acc" || p.Config().NumRegs != 8 {
		t.Fatal("accessors wrong")
	}
	if len(p.Program()) != p.StaticInstructions() {
		t.Fatal("program/static mismatch")
	}
	if p.DynamicInstructions() != 0 {
		t.Fatal("fresh PE fired")
	}
	if SchedPriority.String() != "priority" || SchedRoundRobin.String() != "round-robin" {
		t.Fatal("policy names")
	}
	s := p.DumpState()
	for _, frag := range []string{"acc:", "regs[", "preds[", "unconnected"} {
		if !strings.Contains(s, frag) {
			t.Errorf("DumpState %q missing %q", s, frag)
		}
	}
	// Halted state renders too.
	hp, err := New("h", isa.DefaultConfig(), []isa.Instruction{{Label: "die", Op: isa.OpHalt}})
	if err != nil {
		t.Fatal(err)
	}
	hp.Step(0)
	if !strings.Contains(hp.DumpState(), "halted") {
		t.Errorf("halted DumpState: %q", hp.DumpState())
	}
	// Unlabeled instruction renders by index.
	up, err := New("u", isa.DefaultConfig(), []isa.Instruction{{
		Trigger: isa.When(nil, []isa.InputCond{isa.InReady(0)}),
		Op:      isa.OpNop, Deq: []int{0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	up.ConnectIn(0, channel.New("in", 2, 0))
	if !strings.Contains(up.DumpState(), "#0:awaiting-input") {
		t.Errorf("unlabeled DumpState: %q", up.DumpState())
	}
	// A PE whose only rule is predicate-gated reports no armed trigger.
	gp, err := New("g", isa.DefaultConfig(), []isa.Instruction{{
		Label:   "gated",
		Trigger: isa.When([]isa.PredLit{isa.P(0)}, nil),
		Op:      isa.OpNop,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gp.DumpState(), "no-trigger-armed") {
		t.Errorf("gated DumpState: %q", gp.DumpState())
	}
}

func TestConnectPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	p, err := New("p", isa.DefaultConfig(), MergeProgram())
	if err != nil {
		t.Fatal(err)
	}
	expectPanic("in range", func() { p.ConnectIn(99, channel.New("x", 1, 0)) })
	expectPanic("out range", func() { p.ConnectOut(99, channel.New("x", 1, 0)) })
	p.ConnectIn(0, channel.New("a", 1, 0))
	expectPanic("in twice", func() { p.ConnectIn(0, channel.New("b", 1, 0)) })
	p.ConnectOut(0, channel.New("o", 1, 0))
	expectPanic("out twice", func() { p.ConnectOut(0, channel.New("o2", 1, 0)) })
	p.SetIssueWidth(0) // clamps to 1; stepping requires full connection
	if err := p.CheckConnections(); err == nil {
		t.Fatal("partially connected PE accepted")
	}
}
