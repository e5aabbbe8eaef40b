package workloads

import (
	"fmt"

	"tia/internal/isa"
	"tia/internal/pe"
)

// TB builds triggered-instruction programs with named registers,
// predicates and channels, and lowers straight-line instruction chains
// onto automatically allocated sequencing predicates.
//
// Triggered architectures express control as guarded rules, which is ideal
// for reactive code but verbose for straight-line sections (a SHA round, a
// butterfly). A Chain gives those sections sequential semantics: the
// builder allocates a binary phase counter over fresh predicates, guards
// step i on phase == i, and makes each step advance the counter. Loops
// re-enter phase 0 while a continuation predicate holds.
type TB struct {
	name string
	cfg  isa.Config

	ins, outs, regs, preds map[string]int
	regInit                map[int]isa.Word
	predInit               map[int]bool

	rules       []*Rule
	chains      []*Chain
	sharePhases bool
	sharedBits  []string
	err         error
}

// NewTB returns an empty builder for a PE with the given configuration.
func NewTB(name string, cfg isa.Config) *TB {
	return &TB{
		name: name, cfg: cfg,
		ins: map[string]int{}, outs: map[string]int{},
		regs: map[string]int{}, preds: map[string]int{},
		regInit: map[int]isa.Word{}, predInit: map[int]bool{},
	}
}

func (b *TB) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("tbuild %s: %s", b.name, fmt.Sprintf(format, args...))
	}
}

func (b *TB) fresh(n string) bool {
	for _, m := range []map[string]int{b.ins, b.outs, b.regs, b.preds} {
		if _, dup := m[n]; dup {
			b.fail("name %q already declared", n)
			return false
		}
	}
	return true
}

// In declares input channels in port order.
func (b *TB) In(names ...string) *TB {
	for _, n := range names {
		if b.fresh(n) {
			b.ins[n] = len(b.ins)
		}
	}
	return b
}

// Out declares output channels in port order.
func (b *TB) Out(names ...string) *TB {
	for _, n := range names {
		if b.fresh(n) {
			b.outs[n] = len(b.outs)
		}
	}
	return b
}

// Reg declares a register, optionally with an initial value.
func (b *TB) Reg(name string, init ...isa.Word) *TB {
	if b.fresh(name) {
		idx := len(b.regs)
		b.regs[name] = idx
		if len(init) > 0 {
			b.regInit[idx] = init[0]
		}
	}
	return b
}

// Pred declares a predicate, optionally with an initial value.
func (b *TB) Pred(name string, init ...bool) *TB {
	if b.fresh(name) {
		idx := len(b.preds)
		b.preds[name] = idx
		if len(init) > 0 {
			b.predInit[idx] = init[0]
		}
	}
	return b
}

// InIdx returns the port index of a declared input channel.
func (b *TB) InIdx(name string) int {
	i, ok := b.ins[name]
	if !ok {
		b.fail("unknown input channel %q", name)
	}
	return i
}

// OutIdx returns the port index of a declared output channel.
func (b *TB) OutIdx(name string) int {
	i, ok := b.outs[name]
	if !ok {
		b.fail("unknown output channel %q", name)
	}
	return i
}

func (b *TB) regIdx(name string) int {
	i, ok := b.regs[name]
	if !ok {
		b.fail("unknown register %q", name)
	}
	return i
}

func (b *TB) predIdx(name string) int {
	i, ok := b.preds[name]
	if !ok {
		b.fail("unknown predicate %q", name)
	}
	return i
}

// Rule is one triggered instruction under construction. All methods
// return the rule for chaining; Done appends it to the builder.
type Rule struct {
	b    *TB
	inst isa.Instruction
}

// Rule starts a free-form rule with the given label.
func (b *TB) Rule(label string) *Rule {
	return &Rule{b: b, inst: isa.Instruction{Label: label}}
}

// When adds predicate literals ("x" or "!x") to the trigger.
func (r *Rule) When(preds ...string) *Rule {
	for _, p := range preds {
		if len(p) > 0 && p[0] == '!' {
			r.inst.Trigger.Preds = append(r.inst.Trigger.Preds, isa.NotP(r.b.predIdx(p[1:])))
		} else {
			r.inst.Trigger.Preds = append(r.inst.Trigger.Preds, isa.P(r.b.predIdx(p)))
		}
	}
	return r
}

// OnIn requires the channels to be non-empty.
func (r *Rule) OnIn(chs ...string) *Rule {
	for _, ch := range chs {
		r.inst.Trigger.Inputs = append(r.inst.Trigger.Inputs, isa.InReady(r.b.InIdx(ch)))
	}
	return r
}

// OnTag requires ch non-empty with head tag == t.
func (r *Rule) OnTag(ch string, t isa.Tag) *Rule {
	r.inst.Trigger.Inputs = append(r.inst.Trigger.Inputs, isa.InTagEq(r.b.InIdx(ch), t))
	return r
}

// Op sets the ALU operation.
func (r *Rule) Op(op isa.Opcode) *Rule {
	r.inst.Op = op
	return r
}

// DstReg, DstOut, DstPred add destinations.
func (r *Rule) DstReg(name string) *Rule {
	r.inst.Dsts = append(r.inst.Dsts, isa.DReg(r.b.regIdx(name)))
	return r
}

func (r *Rule) DstOut(ch string, tag isa.Tag) *Rule {
	r.inst.Dsts = append(r.inst.Dsts, isa.DOut(r.b.OutIdx(ch), tag))
	return r
}

func (r *Rule) DstPred(name string) *Rule {
	r.inst.Dsts = append(r.inst.Dsts, isa.DPred(r.b.predIdx(name)))
	return r
}

// Srcs sets the source operands; use the SReg/SImm/SIn helpers.
func (r *Rule) Srcs(srcs ...TSrc) *Rule {
	if len(srcs) > 2 {
		r.b.fail("rule %s: more than two sources", r.inst.Label)
		return r
	}
	for i, s := range srcs {
		r.inst.Srcs[i] = s.lower(r.b)
	}
	return r
}

// Deq dequeues the channels when the rule fires.
func (r *Rule) Deq(chs ...string) *Rule {
	for _, ch := range chs {
		r.inst.Deq = append(r.inst.Deq, r.b.InIdx(ch))
	}
	return r
}

// Set and Clr add explicit predicate updates.
func (r *Rule) Set(preds ...string) *Rule {
	for _, p := range preds {
		r.inst.PredUpdates = append(r.inst.PredUpdates, isa.SetP(r.b.predIdx(p)))
	}
	return r
}

func (r *Rule) Clr(preds ...string) *Rule {
	for _, p := range preds {
		r.inst.PredUpdates = append(r.inst.PredUpdates, isa.ClrP(r.b.predIdx(p)))
	}
	return r
}

// Done appends the rule to the program.
func (r *Rule) Done() {
	r.b.rules = append(r.b.rules, r)
}

// TSrc is a named source operand, lowered when the program is built.
type TSrc struct {
	kind isa.SrcKind
	name string
	imm  isa.Word
}

// SReg, SImm and SIn build named source operands.
func SReg(name string) TSrc { return TSrc{kind: isa.SrcReg, name: name} }
func SImm(v isa.Word) TSrc  { return TSrc{kind: isa.SrcImm, imm: v} }
func SIn(ch string) TSrc    { return TSrc{kind: isa.SrcIn, name: ch} }

func (s TSrc) lower(b *TB) isa.Src {
	switch s.kind {
	case isa.SrcReg:
		return isa.Reg(b.regIdx(s.name))
	case isa.SrcImm:
		return isa.Imm(s.imm)
	case isa.SrcIn:
		return isa.In(b.InIdx(s.name))
	default:
		b.fail("invalid source kind %d", s.kind)
		return isa.Src{}
	}
}

// Chain is a straight-line section lowered onto a phase counter.
type Chain struct {
	b     *TB
	gate  string // predicate that enables the chain
	steps []*Rule
	// loopPred, when non-empty, makes the chain loop while the predicate
	// is true; exit clears the gate and applies exit updates.
	loopPred           string
	exitSets, exitClrs []string
	once               bool
}

// ShareChainPhases makes every chain on this PE use one common pool of
// phase predicates, sized for the longest chain. This is only sound when
// at most one chain's gate is set at any time (e.g. alternating
// load/compute phases); the caller guarantees that invariant.
func (b *TB) ShareChainPhases() *TB {
	b.sharePhases = true
	return b
}

// Chain starts a chain guarded by the given (declared) gate predicate.
// While the gate is set, the chain's steps execute in order.
func (b *TB) Chain(gate string) *Chain {
	c := &Chain{b: b, gate: gate}
	b.chains = append(b.chains, c)
	return c
}

// Step adds the next sequential rule; configure it like a free-form rule
// (trigger conditions are allowed and simply delay the step).
func (c *Chain) Step(label string) *Rule {
	r := &Rule{b: c.b, inst: isa.Instruction{Label: label}}
	c.steps = append(c.steps, r)
	return r
}

// LoopWhile finishes the chain: the chain's first step is guarded on pred
// (so iterations cost exactly one fire per step), the last step wraps the
// phase counter unconditionally, and a dedicated exit rule fires when the
// chain returns to phase 0 with pred false — clearing the gate, re-arming
// pred for the next activation, and applying the exit updates. The
// predicate is typically computed by the final step; the builder forces
// its initial value to true so the first iteration can start.
func (c *Chain) LoopWhile(pred string, exitSets, exitClrs []string) {
	c.loopPred = pred
	c.exitSets = exitSets
	c.exitClrs = exitClrs
}

// EndOnce finishes the chain: after the last step the gate is cleared and
// the updates apply, so the chain runs once per gate set.
func (c *Chain) EndOnce(exitSets, exitClrs []string) {
	c.once = true
	c.exitSets = exitSets
	c.exitClrs = exitClrs
}

// phaseCount returns how many phase values the chain needs.
func (c *Chain) phaseCount() int { return len(c.steps) }

func bitsFor(phases int) int {
	bits := 1
	for 1<<bits < phases {
		bits++
	}
	return bits
}

// lower produces the chain's instructions over the given phase predicates
// (allocated per chain, or shared across chains when ShareChainPhases is
// in effect).
func (c *Chain) lower(idx int, phasePreds []string) ([]isa.Instruction, error) {
	b := c.b
	if len(c.steps) == 0 {
		return nil, fmt.Errorf("tbuild %s: chain %d is empty", b.name, idx)
	}
	if !c.once && c.loopPred == "" {
		return nil, fmt.Errorf("tbuild %s: chain %d not finished (call LoopWhile or EndOnce)", b.name, idx)
	}
	k := len(c.steps)
	gateIdx := b.predIdx(c.gate)

	phaseCond := func(v int) []isa.PredLit {
		lits := []isa.PredLit{isa.P(gateIdx)}
		for i, pn := range phasePreds {
			pi := b.predIdx(pn)
			if v&(1<<i) != 0 {
				lits = append(lits, isa.P(pi))
			} else {
				lits = append(lits, isa.NotP(pi))
			}
		}
		return lits
	}
	phaseMove := func(from, to int) []isa.PredUpdate {
		var ups []isa.PredUpdate
		for i, pn := range phasePreds {
			fb, tb2 := from&(1<<i) != 0, to&(1<<i) != 0
			if fb == tb2 {
				continue
			}
			pi := b.predIdx(pn)
			if tb2 {
				ups = append(ups, isa.SetP(pi))
			} else {
				ups = append(ups, isa.ClrP(pi))
			}
		}
		return ups
	}

	var lp int
	if !c.once {
		lp = b.predIdx(c.loopPred)
	}
	var out []isa.Instruction
	for i, r := range c.steps {
		inst := r.inst
		lits := phaseCond(i)
		if i == 0 && !c.once {
			// The loop decision lives in step 0's guard: iterate only
			// while the continuation predicate holds, so iterations
			// cost exactly one fire per step.
			lits = append(lits, isa.P(lp))
		}
		inst.Trigger.Preds = append(lits, inst.Trigger.Preds...)
		next := i + 1
		if i == k-1 {
			next = 0
			if c.once {
				inst.PredUpdates = append(inst.PredUpdates, isa.ClrP(gateIdx))
				for _, s := range c.exitSets {
					inst.PredUpdates = append(inst.PredUpdates, isa.SetP(b.predIdx(s)))
				}
				for _, cl := range c.exitClrs {
					inst.PredUpdates = append(inst.PredUpdates, isa.ClrP(b.predIdx(cl)))
				}
			}
		}
		inst.PredUpdates = append(inst.PredUpdates, phaseMove(i, next)...)
		out = append(out, inst)
	}
	if !c.once {
		exit := isa.Instruction{
			Label:   fmt.Sprintf("_c%d_exit", idx),
			Trigger: isa.Trigger{Preds: append(phaseCond(0), isa.NotP(lp))},
			Op:      isa.OpNop,
		}
		// Clear the gate, re-arm the loop predicate for the next
		// activation, and apply the exit updates.
		exit.PredUpdates = append(exit.PredUpdates, isa.ClrP(gateIdx), isa.SetP(lp))
		for _, s := range c.exitSets {
			if s == c.loopPred {
				continue // already re-armed
			}
			exit.PredUpdates = append(exit.PredUpdates, isa.SetP(b.predIdx(s)))
		}
		for _, cl := range c.exitClrs {
			exit.PredUpdates = append(exit.PredUpdates, isa.ClrP(b.predIdx(cl)))
		}
		out = append(out, exit)
	}
	return out, nil
}

// Build lowers every rule and chain into a triggered PE.
func (b *TB) Build() (*pe.PE, error) {
	if b.err != nil {
		return nil, b.err
	}
	var prog []isa.Instruction
	for _, r := range b.rules {
		prog = append(prog, r.inst)
	}
	if b.sharePhases && len(b.chains) > 0 {
		maxPhases := 1
		for _, c := range b.chains {
			if p := c.phaseCount(); p > maxPhases {
				maxPhases = p
			}
		}
		for i := 0; i < bitsFor(maxPhases); i++ {
			name := fmt.Sprintf("_shph%d", i)
			b.Pred(name)
			b.sharedBits = append(b.sharedBits, name)
		}
	}
	for _, c := range b.chains {
		// A looping chain's continuation predicate must start true for
		// the first iteration to fire.
		if !c.once && c.loopPred != "" {
			if idx, ok := b.preds[c.loopPred]; ok {
				b.predInit[idx] = true
			}
		}
	}
	for i, c := range b.chains {
		preds := b.sharedBits
		if !b.sharePhases {
			phases := c.phaseCount()
			bits := bitsFor(phases)
			if len(c.steps) == 1 && c.once {
				bits = 0 // single-step chains need no counter
			}
			preds = make([]string, bits)
			for j := range preds {
				name := fmt.Sprintf("_c%dph%d", i, j)
				b.Pred(name)
				preds[j] = name
			}
		}
		insts, err := c.lower(i, preds)
		if err != nil {
			return nil, err
		}
		prog = append(prog, insts...)
	}
	if b.err != nil { // chain lowering may have declared bad names
		return nil, b.err
	}
	p, err := pe.New(b.name, b.cfg, prog)
	if err != nil {
		return nil, err
	}
	for i, v := range b.regInit {
		p.SetReg(i, v)
	}
	for i, v := range b.predInit {
		p.SetPred(i, v)
	}
	return p, nil
}
