// Package pcpe implements the program-counter-style spatial baseline the
// paper compares triggered instructions against: a processing element
// with the same datapath, registers and latency-insensitive channels as a
// triggered PE, but controlled by a conventional sequential program.
//
// The baseline is deliberately generous: channel heads can be read
// directly as ALU operands (optionally popping the token), channel writes
// are ALU destinations, and branches resolve in a single cycle with no
// taken penalty (a configurable penalty exists for ablations). What
// remains — and what the paper measures — is the cost of expressing
// control as explicit compare/branch/jump instructions and of
// serializing reactions to multiple channels through one program counter.
package pcpe

import (
	"fmt"

	"tia/internal/channel"
	"tia/internal/isa"
)

// Kind discriminates the sequential instruction forms.
type Kind uint8

const (
	// KindALU performs one ALU operation, reading registers, immediates
	// or channel heads and writing registers and/or output channels.
	KindALU Kind = iota
	// KindDeq consumes the head of an input channel (blocking).
	KindDeq
	// KindBr conditionally branches on two operands.
	KindBr
	// KindJmp unconditionally branches.
	KindJmp
	// KindHalt retires the PE.
	KindHalt
)

// BrOp enumerates branch conditions.
type BrOp uint8

const (
	BrEQ BrOp = iota
	BrNE
	BrLTS
	BrGES
	BrLTU
	BrGEU
)

var brNames = []string{"beq", "bne", "blts", "bges", "bltu", "bgeu"}

// String returns the branch mnemonic.
func (b BrOp) String() string {
	if int(b) < len(brNames) {
		return brNames[b]
	}
	return fmt.Sprintf("br(%d)", uint8(b))
}

// BrOpByName maps a mnemonic to its BrOp.
func BrOpByName(name string) (BrOp, bool) {
	for i, n := range brNames {
		if n == name {
			return BrOp(i), true
		}
	}
	return 0, false
}

func (b BrOp) eval(x, y isa.Word) bool {
	switch b {
	case BrEQ:
		return x == y
	case BrNE:
		return x != y
	case BrLTS:
		return int32(x) < int32(y)
	case BrGES:
		return int32(x) >= int32(y)
	case BrLTU:
		return x < y
	case BrGEU:
		return x >= y
	default:
		panic(fmt.Sprintf("pcpe: invalid branch op %d", b))
	}
}

// SrcKind discriminates operand sources.
type SrcKind uint8

const (
	SrcNone SrcKind = iota
	SrcReg
	SrcImm
	// SrcChan reads the head data of an input channel; the instruction
	// blocks until the channel is non-empty. Pop additionally consumes
	// the token when the instruction completes.
	SrcChan
	// SrcChanTag reads the head tag of an input channel (blocking).
	SrcChanTag
)

// Src is one operand.
type Src struct {
	Kind  SrcKind
	Index int
	Imm   isa.Word
	Pop   bool // SrcChan only: dequeue after reading
}

// Reg, Imm, Chan, ChanPop and ChanTag build operands.
func Reg(i int) Src      { return Src{Kind: SrcReg, Index: i} }
func Imm(v isa.Word) Src { return Src{Kind: SrcImm, Imm: v} }
func Chan(ch int) Src    { return Src{Kind: SrcChan, Index: ch} }
func ChanPop(ch int) Src { return Src{Kind: SrcChan, Index: ch, Pop: true} }
func ChanTag(ch int) Src { return Src{Kind: SrcChanTag, Index: ch} }

func (s Src) String() string {
	switch s.Kind {
	case SrcNone:
		return "_"
	case SrcReg:
		return fmt.Sprintf("r%d", s.Index)
	case SrcImm:
		return fmt.Sprintf("#%d", s.Imm)
	case SrcChan:
		if s.Pop {
			return fmt.Sprintf("in%d.pop", s.Index)
		}
		return fmt.Sprintf("in%d", s.Index)
	case SrcChanTag:
		return fmt.Sprintf("in%d.tag", s.Index)
	default:
		return fmt.Sprintf("src(%d)", s.Kind)
	}
}

// DstKind discriminates destinations.
type DstKind uint8

const (
	DstReg DstKind = iota
	DstOut
)

// Dst is one destination of an ALU instruction.
type Dst struct {
	Kind  DstKind
	Index int
	Tag   isa.Tag
}

// DReg and DOut build destinations.
func DReg(i int) Dst               { return Dst{Kind: DstReg, Index: i} }
func DOut(ch int, tag isa.Tag) Dst { return Dst{Kind: DstOut, Index: ch, Tag: tag} }

func (d Dst) String() string {
	if d.Kind == DstReg {
		return fmt.Sprintf("r%d", d.Index)
	}
	if d.Tag == isa.TagData {
		return fmt.Sprintf("out%d", d.Index)
	}
	return fmt.Sprintf("out%d#%d", d.Index, d.Tag)
}

// Inst is one sequential instruction. Branch targets are labels resolved
// when the program is compiled by New.
type Inst struct {
	Label  string
	Kind   Kind
	Op     isa.Opcode // KindALU
	BrOp   BrOp       // KindBr
	Dsts   []Dst      // KindALU
	Srcs   [2]Src     // KindALU, KindBr
	Chan   int        // KindDeq
	Target string     // KindBr, KindJmp: destination label
}

// String renders the instruction in assembly-like syntax.
func (in Inst) String() string {
	prefix := ""
	if in.Label != "" {
		prefix = in.Label + ": "
	}
	switch in.Kind {
	case KindALU:
		s := prefix + in.Op.String()
		sep := " "
		for _, d := range in.Dsts {
			s += sep + d.String()
			sep = ", "
		}
		for i := 0; i < in.Op.Arity(); i++ {
			s += sep + in.Srcs[i].String()
			sep = ", "
		}
		return s
	case KindDeq:
		return fmt.Sprintf("%sdeq in%d", prefix, in.Chan)
	case KindBr:
		return fmt.Sprintf("%s%s %s, %s, %s", prefix, in.BrOp, in.Srcs[0], in.Srcs[1], in.Target)
	case KindJmp:
		return fmt.Sprintf("%sjmp %s", prefix, in.Target)
	case KindHalt:
		return prefix + "halt"
	default:
		return prefix + "???"
	}
}

// Config captures the architectural limits of the baseline PE.
type Config struct {
	NumRegs int
	NumIn   int
	NumOut  int
	MaxTag  isa.Tag
	// TakenPenalty is extra cycles charged for a taken branch or jump.
	// The default models the 4-stage PE pipeline of the paper's fabric
	// with no branch prediction: two refill bubbles per taken branch.
	// Set 0 for the idealized free-branch design point.
	TakenPenalty int
}

// DefaultConfig matches the triggered PE's datapath resources, with the
// pipelined 2-cycle taken-branch penalty.
func DefaultConfig() Config {
	d := isa.DefaultConfig()
	return Config{NumRegs: d.NumRegs, NumIn: d.NumIn, NumOut: d.NumOut, MaxTag: d.MaxTag, TakenPenalty: 2}
}

// Stats aggregates the baseline PE's per-cycle outcomes.
type Stats struct {
	Fired        int64 // instructions retired
	InputStall   int64 // cycles blocked on an empty input channel
	OutputStall  int64 // cycles blocked on a full output channel
	PenaltyStall int64 // cycles lost to taken-branch penalties
	Cycles       int64
	PerInst      []int64
}

type compiled struct {
	inst   Inst
	target int // resolved branch target

	// Readiness sets derived once at New, so Step checks channel status
	// directly instead of re-deriving which operands touch channels on
	// every cycle (the same compile-the-control-conditions move the
	// triggered PE makes with its bitmasks).
	needIn  []int // input channels that must be non-empty
	needOut []int // output channels that must have space
	pops    []int // input channels dequeued after an ALU read
}

// stallKind records why the last unretired cycle blocked, so skipped
// cycles can be accounted identically (see SkipCycles).
type stallKind uint8

const (
	stallInput stallKind = iota
	stallOutput
)

// compileReadiness fills the compiled readiness sets for one instruction.
func (ci *compiled) compileReadiness() {
	in := &ci.inst
	addIn := func(ch int) {
		for _, c := range ci.needIn {
			if c == ch {
				return
			}
		}
		ci.needIn = append(ci.needIn, ch)
	}
	for k := 0; k < 2; k++ {
		if s := in.Srcs[k]; s.Kind == SrcChan || s.Kind == SrcChanTag {
			if used := in.Kind == KindALU && k < in.Op.Arity() || in.Kind == KindBr; !used {
				continue
			}
			addIn(s.Index)
			if s.Kind == SrcChan && s.Pop {
				ci.pops = append(ci.pops, s.Index)
			}
		}
	}
	if in.Kind == KindDeq {
		addIn(in.Chan)
	}
	if in.Kind == KindALU {
		for _, d := range in.Dsts {
			if d.Kind == DstOut {
				ci.needOut = append(ci.needOut, d.Index)
			}
		}
	}
}

// PE is one PC-style processing element.
type PE struct {
	name string
	cfg  Config
	prog []compiled

	regs       []isa.Word
	pc         int
	halted     bool
	penalty    int  // remaining penalty stall cycles
	penaltyHot bool // last Step consumed a penalty cycle

	in  []*channel.Channel
	out []*channel.Channel

	stats     Stats
	lastStall stallKind
}

// New compiles and validates a sequential program.
func New(name string, cfg Config, prog []Inst) (*PE, error) {
	if len(prog) == 0 {
		return nil, fmt.Errorf("pcpe %s: empty program", name)
	}
	labels := map[string]int{}
	for i, in := range prog {
		if in.Label == "" {
			continue
		}
		if _, dup := labels[in.Label]; dup {
			return nil, fmt.Errorf("pcpe %s: duplicate label %q", name, in.Label)
		}
		labels[in.Label] = i
	}
	p := &PE{
		name: name,
		cfg:  cfg,
		regs: make([]isa.Word, cfg.NumRegs),
		in:   make([]*channel.Channel, cfg.NumIn),
		out:  make([]*channel.Channel, cfg.NumOut),
	}
	p.stats.PerInst = make([]int64, len(prog))
	for i, in := range prog {
		ci := compiled{inst: in, target: -1}
		if in.Kind == KindBr || in.Kind == KindJmp {
			t, ok := labels[in.Target]
			if !ok {
				return nil, fmt.Errorf("pcpe %s: instruction %d: unknown target %q", name, i, in.Target)
			}
			ci.target = t
		}
		if err := p.validate(i, &in); err != nil {
			return nil, err
		}
		ci.compileReadiness()
		p.prog = append(p.prog, ci)
	}
	return p, nil
}

func (p *PE) validate(i int, in *Inst) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("pcpe %s: instruction %d (%s): %s", p.name, i, in.Label, fmt.Sprintf(format, args...))
	}
	checkSrc := func(s Src) error {
		switch s.Kind {
		case SrcReg:
			if s.Index < 0 || s.Index >= p.cfg.NumRegs {
				return bad("register r%d out of range", s.Index)
			}
		case SrcChan, SrcChanTag:
			if s.Index < 0 || s.Index >= p.cfg.NumIn {
				return bad("input channel in%d out of range", s.Index)
			}
		}
		return nil
	}
	switch in.Kind {
	case KindALU:
		for k := 0; k < in.Op.Arity(); k++ {
			if in.Srcs[k].Kind == SrcNone {
				return bad("%s needs %d sources", in.Op, in.Op.Arity())
			}
			if err := checkSrc(in.Srcs[k]); err != nil {
				return err
			}
		}
		popSeen := map[int]bool{}
		for k := 0; k < 2; k++ {
			if s := in.Srcs[k]; s.Kind == SrcChan && s.Pop {
				if popSeen[s.Index] {
					return bad("channel in%d popped twice", s.Index)
				}
				popSeen[s.Index] = true
			}
		}
		outSeen := map[int]bool{}
		for _, d := range in.Dsts {
			switch d.Kind {
			case DstReg:
				if d.Index < 0 || d.Index >= p.cfg.NumRegs {
					return bad("destination register r%d out of range", d.Index)
				}
			case DstOut:
				if d.Index < 0 || d.Index >= p.cfg.NumOut {
					return bad("output channel out%d out of range", d.Index)
				}
				if d.Tag > p.cfg.MaxTag {
					return bad("tag %d exceeds max %d", d.Tag, p.cfg.MaxTag)
				}
				if outSeen[d.Index] {
					return bad("output out%d written twice", d.Index)
				}
				outSeen[d.Index] = true
			}
		}
	case KindDeq:
		if in.Chan < 0 || in.Chan >= p.cfg.NumIn {
			return bad("input channel in%d out of range", in.Chan)
		}
	case KindBr:
		for k := 0; k < 2; k++ {
			if in.Srcs[k].Kind == SrcChanTag || in.Srcs[k].Kind == SrcChan {
				// Allowed: branches may inspect channel heads directly.
				if err := checkSrc(in.Srcs[k]); err != nil {
					return err
				}
				if in.Srcs[k].Pop {
					return bad("branch operands cannot pop")
				}
				continue
			}
			if in.Srcs[k].Kind == SrcNone {
				return bad("branch needs two operands")
			}
			if err := checkSrc(in.Srcs[k]); err != nil {
				return err
			}
		}
	case KindJmp, KindHalt:
		// nothing
	default:
		return bad("invalid kind %d", in.Kind)
	}
	return nil
}

// Name implements fabric.Element.
func (p *PE) Name() string { return p.name }

// ConnectIn implements fabric.InPort: it reports a bad index or a
// double connection as an error.
func (p *PE) ConnectIn(idx int, ch *channel.Channel) error {
	if idx < 0 || idx >= len(p.in) {
		return fmt.Errorf("pcpe %s: input index %d out of range", p.name, idx)
	}
	if p.in[idx] != nil {
		return fmt.Errorf("pcpe %s: input %d connected twice", p.name, idx)
	}
	p.in[idx] = ch
	return nil
}

// ConnectOut implements fabric.OutPort: it reports a bad index or a
// double connection as an error.
func (p *PE) ConnectOut(idx int, ch *channel.Channel) error {
	if idx < 0 || idx >= len(p.out) {
		return fmt.Errorf("pcpe %s: output index %d out of range", p.name, idx)
	}
	if p.out[idx] != nil {
		return fmt.Errorf("pcpe %s: output %d connected twice", p.name, idx)
	}
	p.out[idx] = ch
	return nil
}

// CheckConnections verifies every referenced channel is attached.
func (p *PE) CheckConnections() error {
	for i := range p.prog {
		in := &p.prog[i].inst
		for k := 0; k < 2; k++ {
			if s := in.Srcs[k]; (s.Kind == SrcChan || s.Kind == SrcChanTag) && p.in[s.Index] == nil {
				return fmt.Errorf("pcpe %s: instruction %d uses unconnected input in%d", p.name, i, s.Index)
			}
		}
		if in.Kind == KindDeq && p.in[in.Chan] == nil {
			return fmt.Errorf("pcpe %s: instruction %d dequeues unconnected input in%d", p.name, i, in.Chan)
		}
		for _, d := range in.Dsts {
			if d.Kind == DstOut && p.out[d.Index] == nil {
				return fmt.Errorf("pcpe %s: instruction %d writes unconnected output out%d", p.name, i, d.Index)
			}
		}
	}
	return nil
}

// SetReg establishes an initial register value.
func (p *PE) SetReg(i int, v isa.Word) { p.regs[i] = v }

// Reg returns the current value of register i.
func (p *PE) Reg(i int) isa.Word { return p.regs[i] }

// PC returns the current program counter (for tests and debuggers).
func (p *PE) PC() int { return p.pc }

// Done implements fabric.Element.
func (p *PE) Done() bool { return p.halted }

// Stats returns a snapshot of the PE's counters.
func (p *PE) Stats() Stats {
	s := p.stats
	s.PerInst = append([]int64(nil), p.stats.PerInst...)
	return s
}

// DynamicInstructions returns the number of instructions retired.
func (p *PE) DynamicInstructions() int64 { return p.stats.Fired }

// SkipCycles accounts for n cycles during which the fabric's event-driven
// stepper did not call Step because neither the PE's state nor any
// attached channel's committed state could have changed. Each skipped
// cycle would have blocked exactly like the last stepped one, so the
// counters advance as if Step had run, keeping statistics bit-identical
// with dense stepping.
func (p *PE) SkipCycles(n int64) {
	if n <= 0 || p.halted {
		return
	}
	p.stats.Cycles += n
	if p.lastStall == stallOutput {
		p.stats.OutputStall += n
	} else {
		p.stats.InputStall += n
	}
}

// NeedsStep reports that the PE must keep being stepped even though it
// did no observable work: a taken-branch penalty is draining, so its
// state advances every cycle without any channel activity. The flag
// covers the final drain cycle too (penalty just hit zero), because the
// next cycle executes an instruction regardless of channel activity.
func (p *PE) NeedsStep() bool { return !p.halted && p.penaltyHot }

// StaticInstructions returns the program size.
func (p *PE) StaticInstructions() int { return len(p.prog) }

// Program returns the compiled instructions (static view).
func (p *PE) Program() []Inst {
	out := make([]Inst, len(p.prog))
	for i := range p.prog {
		out[i] = p.prog[i].inst
	}
	return out
}

// Step implements fabric.Element: attempt to execute the instruction at
// the program counter; block (without advancing) if a channel operand is
// not ready.
func (p *PE) Step(cycle int64) bool {
	if p.halted {
		return false
	}
	p.stats.Cycles++
	if p.penalty > 0 {
		p.penalty--
		p.stats.PenaltyStall++
		p.penaltyHot = true
		return false
	}
	p.penaltyHot = false
	ci := &p.prog[p.pc]
	in := &ci.inst

	// Readiness over the precompiled sets: every channel operand must be
	// non-empty, every output destination must have space.
	for _, ch := range ci.needIn {
		if p.in[ch].Len() == 0 {
			p.stats.InputStall++
			p.lastStall = stallInput
			return false
		}
	}
	for _, ch := range ci.needOut {
		if !p.out[ch].CanAccept() {
			p.stats.OutputStall++
			p.lastStall = stallOutput
			return false
		}
	}

	next := p.pc + 1
	switch in.Kind {
	case KindALU:
		var a, b isa.Word
		if in.Op.Arity() >= 1 {
			a = p.readSrc(in.Srcs[0])
		}
		if in.Op.Arity() >= 2 {
			b = p.readSrc(in.Srcs[1])
		}
		result := in.Op.Eval(a, b)
		for _, d := range in.Dsts {
			if d.Kind == DstReg {
				p.regs[d.Index] = result
			} else {
				p.out[d.Index].Send(channel.Token{Data: result, Tag: d.Tag})
			}
		}
		for _, ch := range ci.pops {
			p.in[ch].Deq()
		}
		if in.Op == isa.OpHalt {
			p.halted = true
		}
	case KindDeq:
		p.in[in.Chan].Deq()
	case KindBr:
		x := p.readSrc(in.Srcs[0])
		y := p.readSrc(in.Srcs[1])
		if in.BrOp.eval(x, y) {
			next = ci.target
			p.penalty = p.cfg.TakenPenalty
		}
	case KindJmp:
		next = ci.target
		p.penalty = p.cfg.TakenPenalty
	case KindHalt:
		p.halted = true
	}
	p.stats.Fired++
	p.stats.PerInst[p.pc]++
	if next >= len(p.prog) {
		p.halted = true
	} else {
		p.pc = next
	}
	return true
}

func (p *PE) readSrc(s Src) isa.Word {
	switch s.Kind {
	case SrcReg:
		return p.regs[s.Index]
	case SrcImm:
		return s.Imm
	case SrcChan:
		tok, ok := p.in[s.Index].Peek()
		if !ok {
			panic(fmt.Sprintf("pcpe %s: read of empty channel in%d (readiness bug)", p.name, s.Index))
		}
		return tok.Data
	case SrcChanTag:
		tok, ok := p.in[s.Index].Peek()
		if !ok {
			panic(fmt.Sprintf("pcpe %s: tag read of empty channel in%d (readiness bug)", p.name, s.Index))
		}
		return isa.Word(tok.Tag)
	default:
		panic(fmt.Sprintf("pcpe %s: read of invalid source kind %d", p.name, s.Kind))
	}
}
