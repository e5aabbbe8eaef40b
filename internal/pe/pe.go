// Package pe implements the triggered-instruction processing element: a
// small datapath (registers, predicates, one ALU) whose control is a
// hardware scheduler firing guarded instructions, with no program counter.
//
// Each cycle the scheduler evaluates every instruction's trigger against
// the predicate file and the status/tags of the input channels, checks
// that every channel the instruction reads is non-empty and every output
// channel it writes has space, and fires the highest-priority ready
// instruction (program order by default). Firing performs one ALU
// operation, routes the result to registers, output channels and/or a
// predicate, dequeues input channels, and applies explicit predicate
// set/clear side effects — all in one cycle.
//
// Step is a plain interpreter of that rule: classifyRef walks each
// trigger's literal predicate and input-condition slices and queries the
// channels directly, and fire walks the instruction's destinations,
// dequeues and predicate updates in order; the superscalar stepWide reads
// the same ISA form. The interpreter is the oracle. Fabrics step a PE
// through CompileStep (compiled.go), which derives its own packed form
// from the ISA form and resolves every trigger with word compares, the
// way the paper's hardware resolves it in a handful of gates; the
// differential tests in packages workloads, fabric and gen hold the two
// to bit-identical results under every scheduling policy and issue
// width. Beyond each instruction's input and output channel lists,
// the two share no encoding, so those tests check the packed form
// instead of sharing it.
package pe

import (
	"fmt"
	"strings"

	"tia/internal/channel"
	"tia/internal/isa"
)

// SchedPolicy selects how the scheduler breaks ties among ready
// instructions. The paper's hardware uses a fixed priority encoder;
// round-robin is provided as an ablation.
type SchedPolicy uint8

const (
	// SchedPriority fires the first ready instruction in program order.
	SchedPriority SchedPolicy = iota
	// SchedRoundRobin rotates priority one slot after every fire.
	SchedRoundRobin
)

func (p SchedPolicy) String() string {
	if p == SchedRoundRobin {
		return "round-robin"
	}
	return "priority"
}

// Stats aggregates a PE's per-cycle outcomes.
type Stats struct {
	Fired       int64 // cycles an instruction fired
	IdleCycles  int64 // cycles with no trigger satisfied
	InputStall  int64 // cycles a trigger matched predicates but waited on input data
	OutputStall int64 // cycles a trigger was ready except for output backpressure
	Cycles      int64 // cycles stepped before halting
	PerInst     []int64
}

// compiled is one program instruction with the channel lists the
// interpreter checks. The packed form the compiled step closures use is
// derived from the ISA form in compiled.go, not here, so the interpreter
// and the closures share no encoding beyond these two lists.
type compiled struct {
	inst    isa.Instruction
	inputs  []int // channels that must be non-empty
	outputs []int // channels that must have space
}

// stallKind records why the last unfired cycle did not fire, so skipped
// cycles can be accounted identically (see SkipCycles).
type stallKind uint8

const (
	stallIdle stallKind = iota
	stallInput
	stallOutput
)

// PE is one triggered-instruction processing element.
type PE struct {
	name string
	cfg  isa.Config
	prog []compiled

	regs     []isa.Word
	predBits uint64 // packed predicate file; bit i is predicate i
	halted   bool

	in  []*channel.Channel
	out []*channel.Channel

	policy     SchedPolicy
	rrOffset   int
	issueWidth int // max instructions fired per cycle (default 1)
	lastStall  stallKind

	stats Stats

	// Compiled-stepping cache (see compiled.go): compileGen advances on
	// any mutation that could invalidate a specialized step closure;
	// compiledStep is reused while compiledFor matches it; it was
	// compiled against compiledRegs and compiledPreds.
	compileGen    uint64
	compiledFor   uint64
	compiledStep  func(cycle int64) bool
	compiledRegs  []isa.Word
	compiledPreds uint64

	// Trace, when non-nil, is called once per fire with the cycle, the
	// instruction index, and the ALU result.
	Trace func(cycle int64, instIdx int, result isa.Word)
}

// New compiles a program into a PE. The program is validated against cfg,
// and every instruction's input and output channel lists are derived.
func New(name string, cfg isa.Config, prog []isa.Instruction) (*PE, error) {
	if err := cfg.ValidateProgram(prog); err != nil {
		return nil, fmt.Errorf("pe %s: %w", name, err)
	}
	p := &PE{
		name:       name,
		cfg:        cfg,
		regs:       make([]isa.Word, cfg.NumRegs),
		in:         make([]*channel.Channel, cfg.NumIn),
		out:        make([]*channel.Channel, cfg.NumOut),
		issueWidth: 1,
	}
	p.stats.PerInst = make([]int64, len(prog))
	for _, inst := range prog {
		p.prog = append(p.prog, compiled{
			inst:    inst,
			inputs:  inst.ImplicitInputs(),
			outputs: inst.OutputChannels(),
		})
	}
	return p, nil
}

// Name returns the PE's fabric name.
func (p *PE) Name() string { return p.name }

// Config returns the PE's architectural configuration.
func (p *PE) Config() isa.Config { return p.cfg }

// Program returns the compiled program's instructions (static view).
func (p *PE) Program() []isa.Instruction {
	out := make([]isa.Instruction, len(p.prog))
	for i := range p.prog {
		out[i] = p.prog[i].inst
	}
	return out
}

// StaticInstructions returns the static program size.
func (p *PE) StaticInstructions() int { return len(p.prog) }

// SetPolicy selects the scheduler tie-break policy.
func (p *PE) SetPolicy(pol SchedPolicy) {
	p.policy = pol
	if pol != SchedRoundRobin {
		p.rrOffset = 0
	}
	p.invalidateCompiled()
}

// SetIssueWidth lets the scheduler fire up to w ready instructions per
// cycle — a superscalar trigger scheduler, one of the paper's natural
// extensions. Instructions fire with parallel semantics: triggers and
// operands are evaluated against start-of-cycle register/predicate state,
// register, predicate and halt effects commit at end of cycle, and two
// instructions conflict (lower priority skipped) if they write the same
// register or predicate, enqueue to the same output channel, or dequeue
// the same input channel.
func (p *PE) SetIssueWidth(w int) {
	if w < 1 {
		w = 1
	}
	p.issueWidth = w
	p.invalidateCompiled()
}

// SetReg establishes an initial register value.
func (p *PE) SetReg(i int, v isa.Word) {
	p.regs[i] = v
	p.invalidateCompiled()
}

// SetPred establishes an initial predicate value.
func (p *PE) SetPred(i int, v bool) {
	p.checkPred(i)
	bit := uint64(1) << uint(i)
	if v {
		p.predBits |= bit
	} else {
		p.predBits &^= bit
	}
	p.invalidateCompiled()
}

func (p *PE) checkPred(i int) {
	if i < 0 || i >= p.cfg.NumPreds {
		panic(fmt.Sprintf("pe %s: predicate index %d out of range [0,%d)", p.name, i, p.cfg.NumPreds))
	}
}

// Reg returns the current value of register i (for tests and debuggers).
func (p *PE) Reg(i int) isa.Word { return p.regs[i] }

// Pred returns the current value of predicate i.
func (p *PE) Pred(i int) bool {
	p.checkPred(i)
	return p.predBits&(1<<uint(i)) != 0
}

// ConnectIn implements fabric.InPort: it reports a bad index or a
// double connection as an error.
func (p *PE) ConnectIn(idx int, ch *channel.Channel) error {
	if idx < 0 || idx >= len(p.in) {
		return fmt.Errorf("pe %s: input index %d out of range", p.name, idx)
	}
	if p.in[idx] != nil {
		return fmt.Errorf("pe %s: input %d connected twice", p.name, idx)
	}
	p.in[idx] = ch
	p.invalidateCompiled()
	return nil
}

// ConnectOut implements fabric.OutPort: it reports a bad index or a
// double connection as an error.
func (p *PE) ConnectOut(idx int, ch *channel.Channel) error {
	if idx < 0 || idx >= len(p.out) {
		return fmt.Errorf("pe %s: output index %d out of range", p.name, idx)
	}
	if p.out[idx] != nil {
		return fmt.Errorf("pe %s: output %d connected twice", p.name, idx)
	}
	p.out[idx] = ch
	p.invalidateCompiled()
	return nil
}

// CheckConnections verifies that every channel the program references is
// attached. The fabric calls this before simulation.
func (p *PE) CheckConnections() error {
	for _, ci := range p.prog {
		for _, ch := range ci.inputs {
			if p.in[ch] == nil {
				return fmt.Errorf("pe %s: %s uses unconnected input in%d", p.name, ci.inst.Label, ch)
			}
		}
		for _, ch := range ci.outputs {
			if p.out[ch] == nil {
				return fmt.Errorf("pe %s: %s uses unconnected output out%d", p.name, ci.inst.Label, ch)
			}
		}
	}
	return nil
}

// Done reports whether the PE has executed a halt instruction.
func (p *PE) Done() bool { return p.halted }

// Stats returns a snapshot of the PE's counters.
func (p *PE) Stats() Stats {
	s := p.stats
	s.PerInst = append([]int64(nil), p.stats.PerInst...)
	return s
}

// DynamicInstructions returns the total number of instructions fired.
func (p *PE) DynamicInstructions() int64 { return p.stats.Fired }

// SkipCycles accounts for n cycles during which the fabric's event-driven
// stepper did not call Step because neither the PE's architectural state
// nor any attached channel's committed state could have changed. Each
// skipped cycle would have classified exactly like the last stepped one,
// so the counters advance as if Step had been called, keeping statistics
// bit-identical with dense stepping. A halted PE accrues nothing, exactly
// as its Step would.
func (p *PE) SkipCycles(n int64) {
	if n <= 0 || p.halted {
		return
	}
	p.stats.Cycles += n
	switch p.lastStall {
	case stallOutput:
		p.stats.OutputStall += n
	case stallInput:
		p.stats.InputStall += n
	default:
		p.stats.IdleCycles += n
	}
}

// DumpState renders the PE's architectural state on one line — the first
// thing to look at when a fabric deadlocks.
func (p *PE) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", p.name)
	if p.halted {
		b.WriteString(" halted")
	}
	b.WriteString(" regs[")
	for i, r := range p.regs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", r)
	}
	b.WriteString("] preds[")
	for i := 0; i < p.cfg.NumPreds; i++ {
		if p.predBits&(1<<uint(i)) != 0 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	b.WriteString("]")
	// Which instruction is closest to firing? DumpState may run on a
	// partially connected PE, so wiring is checked before classifyRef
	// queries an instruction's channels.
	for i := range p.prog {
		if !p.connected(&p.prog[i]) {
			fmt.Fprintf(&b, " %s:unconnected", labelOrIdx(&p.prog[i].inst, i))
			return b.String()
		}
		switch p.classifyRef(&p.prog[i]) {
		case waitingInput:
			fmt.Fprintf(&b, " %s:awaiting-input", labelOrIdx(&p.prog[i].inst, i))
			return b.String()
		case waitingOut:
			fmt.Fprintf(&b, " %s:awaiting-output", labelOrIdx(&p.prog[i].inst, i))
			return b.String()
		}
	}
	b.WriteString(" no-trigger-armed")
	return b.String()
}

// connected reports whether every channel the instruction references is
// attached (DumpState may run on partially built PEs).
func (p *PE) connected(ci *compiled) bool {
	for _, ch := range ci.inputs {
		if p.in[ch] == nil {
			return false
		}
	}
	for _, ch := range ci.outputs {
		if p.out[ch] == nil {
			return false
		}
	}
	return true
}

func labelOrIdx(in *isa.Instruction, i int) string {
	if in.Label != "" {
		return in.Label
	}
	return fmt.Sprintf("#%d", i)
}

// readiness classifies an instruction's readiness this cycle.
type readiness uint8

const (
	notTriggered readiness = iota // predicate guard false or head-tag mismatch
	waitingInput                  // predicates hold, some input empty
	waitingOut                    // inputs ready, some output lacks space
	fireable
)

// classifyRef is the interpreter's trigger classifier: it walks the
// trigger's literal slices and queries the channels directly. Check order
// is predicates, then inputs, then head tags, then output credit.
func (p *PE) classifyRef(ci *compiled) readiness {
	for _, lit := range ci.inst.Trigger.Preds {
		if p.predBits&(1<<uint(lit.Index)) != 0 != lit.Value {
			return notTriggered
		}
	}
	for _, ch := range ci.inputs {
		if _, ok := p.in[ch].Peek(); !ok {
			return waitingInput
		}
	}
	for _, cond := range ci.inst.Trigger.Inputs {
		tok, _ := p.in[cond.Chan].Peek()
		switch cond.Cond {
		case isa.TagEq:
			if tok.Tag != cond.Tag {
				return notTriggered
			}
		case isa.TagNe:
			if tok.Tag == cond.Tag {
				return notTriggered
			}
		}
	}
	for _, ch := range ci.outputs {
		if !p.out[ch].CanAccept() {
			return waitingOut
		}
	}
	return fireable
}

// classifyAll classifies every program instruction once, returning how
// many are fireable. The trigger-resolution alloc gate drives it.
func (p *PE) classifyAll() int {
	n := 0
	for i := range p.prog {
		if p.classifyRef(&p.prog[i]) == fireable {
			n++
		}
	}
	return n
}

// Step executes one cycle: the scheduler picks a ready instruction and
// fires it (or up to the configured issue width). It returns true if an
// instruction fired.
func (p *PE) Step(cycle int64) bool {
	if p.halted {
		return false
	}
	if p.issueWidth > 1 {
		return p.stepWide(cycle)
	}
	p.stats.Cycles++
	n := len(p.prog)
	sawInputWait, sawOutputWait := false, false
	// rrOffset is zero except under round-robin, so the scan starts at
	// program order for priority scheduling; the wrap is an add-and-reset
	// instead of a modulo per iteration.
	idx := p.rrOffset
	for k := 0; k < n; k++ {
		switch p.classifyRef(&p.prog[idx]) {
		case fireable:
			p.fire(cycle, idx)
			if p.policy == SchedRoundRobin {
				p.rrOffset = idx + 1
				if p.rrOffset == n {
					p.rrOffset = 0
				}
			}
			return true
		case waitingInput:
			sawInputWait = true
		case waitingOut:
			sawOutputWait = true
		}
		idx++
		if idx == n {
			idx = 0
		}
	}
	p.stall(sawInputWait, sawOutputWait)
	return false
}

// stall performs the no-fire epilogue: the cycle is accounted to the
// most severe wait seen (output, then input, then idle), which is also
// what SkipCycles repeats for cycles the event-driven stepper skips.
func (p *PE) stall(sawInputWait, sawOutputWait bool) {
	switch {
	case sawOutputWait:
		p.stats.OutputStall++
		p.lastStall = stallOutput
	case sawInputWait:
		p.stats.InputStall++
		p.lastStall = stallInput
	default:
		p.stats.IdleCycles++
		p.lastStall = stallIdle
	}
}

// fire executes one instruction from its ISA form: destinations in
// order, then dequeues, then predicate updates.
func (p *PE) fire(cycle int64, idx int) {
	inst := &p.prog[idx].inst
	result := p.eval(inst)
	for _, d := range inst.Dsts {
		switch d.Kind {
		case isa.DstReg:
			p.regs[d.Index] = result
		case isa.DstOut:
			p.out[d.Index].Send(channel.Token{Data: result, Tag: d.Tag})
		case isa.DstPred:
			p.writePred(d.Index, result != 0)
		}
	}
	for _, ch := range inst.Deq {
		p.in[ch].Deq()
	}
	for _, u := range inst.PredUpdates {
		p.writePred(u.Index, u.Op == isa.PredSet)
	}
	if inst.Op == isa.OpHalt {
		p.halted = true
	}
	p.stats.Fired++
	p.stats.PerInst[idx]++
	if p.Trace != nil {
		p.Trace(cycle, idx, result)
	}
}

// eval reads an instruction's operands and applies its ALU operation.
func (p *PE) eval(inst *isa.Instruction) isa.Word {
	var a, b isa.Word
	if inst.Op.Arity() >= 1 {
		a = p.readSrc(inst.Srcs[0])
	}
	if inst.Op.Arity() >= 2 {
		b = p.readSrc(inst.Srcs[1])
	}
	return inst.Op.Eval(a, b)
}

// writePred sets predicate i to v during execution.
func (p *PE) writePred(i int, v bool) {
	if v {
		p.predBits |= 1 << uint(i)
	} else {
		p.predBits &^= 1 << uint(i)
	}
}

func (p *PE) readSrc(s isa.Src) isa.Word {
	switch s.Kind {
	case isa.SrcReg:
		return p.regs[s.Index]
	case isa.SrcImm:
		return s.Imm
	case isa.SrcIn:
		tok, ok := p.in[s.Index].Peek()
		if !ok {
			panic(fmt.Sprintf("pe %s: read of empty channel in%d (scheduler bug)", p.name, s.Index))
		}
		return tok.Data
	case isa.SrcInTag:
		tok, ok := p.in[s.Index].Peek()
		if !ok {
			panic(fmt.Sprintf("pe %s: tag read of empty channel in%d (scheduler bug)", p.name, s.Index))
		}
		return isa.Word(tok.Tag)
	default:
		panic(fmt.Sprintf("pe %s: read of invalid source kind %d", p.name, s.Kind))
	}
}
