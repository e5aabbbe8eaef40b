// Package compile partially evaluates a triggered-instruction program
// against its static context, producing a Plan a simulator backend can
// turn into specialized ("closure-compiled") step functions.
//
// The paper's thesis is that triggered control is resolved by a handful
// of gates because almost everything about a trigger is static. This
// package is the software form of that observation, staged the way
// Verilator compiles RTL: facts that are invariant for the lifetime of a
// program — which registers and predicates are ever written, which
// trigger guards can ever hold, which operands are compile-time
// constants — are computed once, so the per-cycle residue is only the
// genuinely dynamic checks (channel readiness, head tags, live
// predicates).
//
// Three partial-evaluation rules, each sound by a write-set argument:
//
//   - A predicate never written by any instruction holds its initial
//     value forever. A trigger literal over such a predicate is either
//     statically satisfied (elided from the residual guard) or
//     statically false (the whole instruction is dead: it can never
//     trigger, so dropping it from the dispatch loop is invisible —
//     including to the stall statistics, because a predicate-false
//     instruction never contributes input- or output-wait states).
//   - A register never written by any instruction holds its initial
//     value forever, so a SrcReg operand over it is a constant, exactly
//     like SrcImm.
//   - An instruction whose operands are all constant has a constant ALU
//     result, folded here with the same isa.Opcode.Eval the interpreter
//     uses at runtime.
//
// Write sets are computed over the whole program, including dead
// instructions — conservative (a dead writer could be ignored, possibly
// constifying more state) but simple, and iteration to a fixpoint has
// not been worth it on the paper's kernels.
//
// Only statically-false *predicate* guards make an instruction dead.
// Channel conditions never do: an instruction waiting on a channel
// contributes observable InputStall/OutputStall accounting, so it must
// stay in the dispatch loop even if its channels can never fill.
//
// Plans are pure data — no channel pointers, no simulator state. They
// are not cached: Analyze is one linear pass over the program, cheaper
// than digesting the program to look a plan up would be, so every PE
// analyzes its own program when it first compiles.
package compile

import (
	"fmt"
	"strings"
	"sync/atomic"

	"tia/internal/isa"
)

var analyses atomic.Int64

// CacheStats counts plan analyses, for the benchmark's compile.plan_*
// rows.
type CacheStats struct {
	// Hits is always 0: plans are not cached.
	Hits int64
	// Misses counts Analyze calls, one per analyzed program.
	Misses int64
}

// Counters returns the process-wide analysis count.
func Counters() CacheStats {
	return CacheStats{Misses: analyses.Load()}
}

// Inst is the residual form of one live instruction.
type Inst struct {
	// Index is the instruction's position in the original program;
	// per-instruction statistics stay indexed by it.
	Index int
	// PredMask/PredVal is the residual predicate guard after eliding
	// statically-satisfied literals: predBits&PredMask must equal
	// PredVal. A zero PredMask means the guard always holds.
	PredMask, PredVal uint64
	// ElidedPreds counts trigger literals proven statically true.
	ElidedPreds int
	// SrcConst marks operand slots whose value is known at compile time
	// (immediates, or reads of never-written registers); SrcVal holds
	// the folded value.
	SrcConst [2]bool
	SrcVal   [2]isa.Word
	// Folded reports that every consumed operand is constant, so the ALU
	// result itself is the compile-time constant FoldedVal.
	Folded    bool
	FoldedVal isa.Word
}

// Plan is the partial-evaluation result for one program.
type Plan struct {
	// Live lists the surviving instructions in program order.
	Live []Inst
	// Dead lists the original indices of instructions whose predicate
	// guard is statically false.
	Dead []int
	// ConstRegs/ConstPreds are bitmasks of the registers/predicates no
	// instruction ever writes (the constancy base of the rules above).
	ConstRegs  uint64
	ConstPreds uint64
}

// writeSets returns the union of register and predicate write masks over
// the whole program.
func writeSets(prog []isa.Instruction) (regs, preds uint64) {
	for i := range prog {
		in := &prog[i]
		for _, d := range in.Dsts {
			switch d.Kind {
			case isa.DstReg:
				regs |= 1 << uint(d.Index)
			case isa.DstPred:
				preds |= 1 << uint(d.Index)
			}
		}
		for _, u := range in.PredUpdates {
			preds |= 1 << uint(u.Index)
		}
	}
	return regs, preds
}

// constMasks returns the complements of the write sets, clipped to the
// architectural register/predicate counts.
func constMasks(cfg isa.Config, prog []isa.Instruction) (regs, preds uint64) {
	wRegs, wPreds := writeSets(prog)
	regs = ^wRegs & (1<<uint(cfg.NumRegs) - 1)
	preds = ^wPreds & (1<<uint(cfg.NumPreds) - 1)
	return regs, preds
}

// Analyze partially evaluates prog against the architectural config and
// the current register file / packed predicate file. Callers pass the
// state the program would start (or resume) from; only the values of
// never-written registers and predicates influence the plan, so any
// reachable mid-run state of the same program yields the same plan.
func Analyze(cfg isa.Config, prog []isa.Instruction, regs []isa.Word, preds uint64) *Plan {
	analyses.Add(1)
	constRegs, constPreds := constMasks(cfg, prog)
	p := &Plan{ConstRegs: constRegs, ConstPreds: constPreds}
	for i := range prog {
		in := &prog[i]
		ri := Inst{Index: i}
		dead := false
		for _, lit := range in.Trigger.Preds {
			bit := uint64(1) << uint(lit.Index)
			if constPreds&bit == 0 {
				// Dynamic predicate: stays in the residual guard.
				ri.PredMask |= bit
				if lit.Value {
					ri.PredVal |= bit
				}
				continue
			}
			if (preds&bit != 0) == lit.Value {
				ri.ElidedPreds++
			} else {
				dead = true
				break
			}
		}
		if dead {
			p.Dead = append(p.Dead, i)
			continue
		}
		arity := in.Op.Arity()
		for s := 0; s < arity; s++ {
			switch src := in.Srcs[s]; src.Kind {
			case isa.SrcImm:
				ri.SrcConst[s] = true
				ri.SrcVal[s] = src.Imm
			case isa.SrcReg:
				if constRegs&(1<<uint(src.Index)) != 0 {
					ri.SrcConst[s] = true
					ri.SrcVal[s] = regs[src.Index]
				}
			}
		}
		folded := true
		for s := 0; s < arity; s++ {
			if !ri.SrcConst[s] {
				folded = false
			}
		}
		if folded {
			// Covers arity 0 too: the interpreter evaluates nullary ops
			// over zero operands, so their result is the same constant.
			ri.Folded = true
			ri.FoldedVal = in.Op.Eval(ri.SrcVal[0], ri.SrcVal[1])
		}
		p.Live = append(p.Live, ri)
	}
	return p
}

// Stats summarizes how much of a program the partial evaluator resolved.
type Stats struct {
	Static      int // instructions in the source program
	Live        int // instructions left in the dispatch loop
	Dead        int // instructions dropped (statically-false guards)
	ElidedPreds int // trigger literals proven constant-true
	ConstSrcs   int // operand reads replaced by constants
	Folded      int // instructions with compile-time-constant results
}

// Stats tallies the plan's specialization counters.
func (p *Plan) Stats() Stats {
	st := Stats{Static: len(p.Live) + len(p.Dead), Live: len(p.Live), Dead: len(p.Dead)}
	for i := range p.Live {
		ri := &p.Live[i]
		st.ElidedPreds += ri.ElidedPreds
		for s := 0; s < 2; s++ {
			if ri.SrcConst[s] {
				st.ConstSrcs++
			}
		}
		if ri.Folded {
			st.Folded++
		}
	}
	return st
}

// Describe renders the plan's specialization summary on one line, for
// reports (tiaasm -compile-report) and logs.
func (p *Plan) Describe() string {
	st := p.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d live", st.Live, st.Static)
	if st.Dead > 0 {
		fmt.Fprintf(&b, ", %d dead", st.Dead)
	}
	if st.ElidedPreds > 0 {
		fmt.Fprintf(&b, ", %d pred literals elided", st.ElidedPreds)
	}
	if st.ConstSrcs > 0 {
		fmt.Fprintf(&b, ", %d const operands", st.ConstSrcs)
	}
	if st.Folded > 0 {
		fmt.Fprintf(&b, ", %d results folded", st.Folded)
	}
	if st.Live == 1 {
		b.WriteString(", single-trigger")
	}
	return b.String()
}
