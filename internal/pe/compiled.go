package pe

// Closure-compiled stepping: CompileStep specializes this PE's trigger
// pool into a step function with the interpreter's exact observable
// semantics (fires, stalls, statistics, traces — bit-identical). It is
// how every fabric steps a triggered PE; Step, the interpreter, is the
// oracle the differential tests (packages fabric, workloads, gen, core)
// hold it to under fabric.SetInterpreted.
//
// The specialization is staged (threaded code, the Verilator idea at
// closure granularity):
//
//   - internal/compile partially evaluates the program: dead triggers
//     drop out of the dispatch loop, statically-true predicate literals
//     leave the residual guard, constant operands fold, constant-operand
//     instructions fold to a constant result.
//   - Each surviving instruction's fire sequence (operand reads, ALU op,
//     destination writes, dequeues, predicate updates, halt) is fused
//     into one closure over resolved *channel.Channel pointers — no
//     per-fire source-kind switches, arity lookups or port-table
//     indexing.
//   - The per-cycle channel-status scan is specialized to the channels
//     the live instructions can observe, via channel.Ready instead of
//     token-copying Peeks.
//   - A pool with a single live trigger collapses to a direct
//     guard-and-fire closure: no masks, no dispatch loop at all.
//
// The compiled form covers the default scheduler (priority policy,
// single issue, bitmask classification). Everything else — round-robin
// rotation, the superscalar scheduler, the slice-walking reference
// scheduler — falls back to the interpreter, which stays the oracle.
// That keeps the exotic paths on the code the differential tests pin
// hardest, and costs nothing: those modes are ablation studies, not the
// measured configuration.
//
// Staleness: closures capture register/predicate constants and channel
// pointers, so anything that could invalidate them (SetReg, SetPred,
// scheduler knobs, port wiring, snapshot restore) bumps a generation
// counter; CompileStep reuses the cached closure only while the
// generation matches. The fabric re-queries CompileStep at the top of
// every run (fabric.BeginRun refreshes its dispatch table), so a stale
// closure is never entered.

import (
	"fmt"

	"tia/internal/channel"
	"tia/internal/compile"
	"tia/internal/isa"
)

// invalidateCompiled marks any cached compiled step function stale.
func (p *PE) invalidateCompiled() { p.compileGen++ }

// CompileStep returns a step function with Step's exact semantics,
// specialized to the PE's current program, constant state and wiring.
// The result is cached until the PE changes in a way that could affect
// it; callers (the fabric's dispatch table) re-query per run rather
// than holding closures across mutations.
func (p *PE) CompileStep() func(cycle int64) bool {
	if p.compiledStep == nil || p.compiledFor != p.compileGen {
		p.compiledStep = p.buildCompiledStep()
		p.compiledFor = p.compileGen
	}
	return p.compiledStep
}

// buildCompiledStep constructs the specialized step function, or falls
// back to the interpreter for configurations it does not specialize.
func (p *PE) buildCompiledStep() func(cycle int64) bool {
	if p.reference || p.issueWidth > 1 || p.policy == SchedRoundRobin {
		return p.Step
	}
	plan := compile.Analyzed(p.cfg, p.Program(), p.regs, p.predBits)
	// Resolve the channels the live instructions touch; a partially
	// wired PE (possible in unit harnesses that never run a fabric)
	// falls back to the interpreter rather than capturing nil ports.
	for _, ri := range plan.Live {
		if !p.connected(&p.prog[ri.Index]) {
			return p.Step
		}
	}

	switch len(plan.Live) {
	case 0:
		// Nothing can ever trigger: every cycle classifies idle.
		return func(int64) bool {
			if p.halted {
				return false
			}
			p.stats.Cycles++
			p.stats.IdleCycles++
			p.lastStall = stallIdle
			return false
		}
	case 1:
		return p.compileSingle(plan.Live[0])
	default:
		return p.compileMulti(plan.Live)
	}
}

// cTag is a compiled head-tag condition over a resolved channel. Tag
// conditions are only evaluated once every required input is ready
// (isa.Instruction.ImplicitInputs includes every trigger channel), so
// HeadTag needs no emptiness check.
type cTag struct {
	ch  *channel.Channel
	tag isa.Tag
	eq  bool
}

func (p *PE) compileTags(ci *compiled) []cTag {
	if len(ci.tagConds) == 0 {
		return nil
	}
	tags := make([]cTag, len(ci.tagConds))
	for i, tc := range ci.tagConds {
		tags[i] = cTag{ch: p.in[tc.ch], tag: tc.tag, eq: tc.eq}
	}
	return tags
}

// maskChannels resolves a channel bitmask against a port table.
func maskChannels(mask uint64, ports []*channel.Channel) []*channel.Channel {
	var out []*channel.Channel
	for i, ch := range ports {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, ch)
		}
	}
	return out
}

// compileSingle builds the direct guard-and-fire closure for a pool with
// one live trigger. Check order mirrors classifyFast (predicates →
// inputs → tags → outputs), and each early-out performs exactly the
// stall accounting the interpreter's no-fire epilogue would.
func (p *PE) compileSingle(ri compile.Inst) func(cycle int64) bool {
	ci := &p.prog[ri.Index]
	predMask, predVal := ri.PredMask, ri.PredVal
	ins := maskChannels(ci.inMask, p.in)
	outs := maskChannels(ci.outMask, p.out)
	tags := p.compileTags(ci)
	fire := p.compileFire(ri)
	return func(cycle int64) bool {
		if p.halted {
			return false
		}
		p.stats.Cycles++
		if p.predBits&predMask != predVal {
			p.stats.IdleCycles++
			p.lastStall = stallIdle
			return false
		}
		for _, ch := range ins {
			if !ch.Ready() {
				p.stats.InputStall++
				p.lastStall = stallInput
				return false
			}
		}
		for _, tc := range tags {
			if (tc.ch.HeadTag() == tc.tag) != tc.eq {
				// Tag mismatch is "not triggered", like a predicate miss.
				p.stats.IdleCycles++
				p.lastStall = stallIdle
				return false
			}
		}
		for _, ch := range outs {
			if !ch.CanAccept() {
				p.stats.OutputStall++
				p.lastStall = stallOutput
				return false
			}
		}
		fire(cycle)
		return true
	}
}

// cRow is one live instruction's residual classification state — the
// hot part of the dispatch loop, kept to 32 bytes (two rows per cache
// line) so the priority scan streams. The cold per-instruction data
// (tag conditions, fire closure) lives in the parallel cAct slice and
// is only touched when a row survives the mask checks.
type cRow struct {
	predMask, predVal uint64
	inMask, outMask   uint64
}

// cAct is the cold counterpart of cRow.
type cAct struct {
	tags []cTag
	fire func(cycle int64)
}

// scanBit is one channel of the specialized status scan.
type scanBit struct {
	ch  *channel.Channel
	bit uint64
}

// compileMulti builds the dispatch loop over the live instructions:
// the interpreter's priority scan with the dead rows removed, operating
// on locally computed status words from a scan restricted to channels
// the live instructions observe.
func (p *PE) compileMulti(live []compile.Inst) func(cycle int64) bool {
	rows := make([]cRow, len(live))
	acts := make([]cAct, len(live))
	var inU, outU uint64
	for k, ri := range live {
		ci := &p.prog[ri.Index]
		rows[k] = cRow{
			predMask: ri.PredMask, predVal: ri.PredVal,
			inMask: ci.inMask, outMask: ci.outMask,
		}
		acts[k] = cAct{
			tags: p.compileTags(ci),
			fire: p.compileFire(ri),
		}
		inU |= ci.inMask | ci.deqMask
		for _, tc := range ci.tagConds {
			inU |= 1 << uint(tc.ch)
		}
		outU |= ci.outMask
	}
	var scanIn, scanOut []scanBit
	for i, ch := range p.in {
		if inU&(1<<uint(i)) != 0 && ch != nil {
			scanIn = append(scanIn, scanBit{ch: ch, bit: 1 << uint(i)})
		}
	}
	for i, ch := range p.out {
		if outU&(1<<uint(i)) != 0 && ch != nil {
			scanOut = append(scanOut, scanBit{ch: ch, bit: 1 << uint(i)})
		}
	}
	return func(cycle int64) bool {
		if p.halted {
			return false
		}
		p.stats.Cycles++
		var inR, outR uint64
		for i := range scanIn {
			if scanIn[i].ch.Ready() {
				inR |= scanIn[i].bit
			}
		}
		// The output scan is lazy: on input-stalled cycles (the common
		// stall in dataflow kernels) no instruction reaches its output
		// check and the CanAccept sweep never happens.
		outScanned := false
		sawInputWait, sawOutputWait := false, false
		preds := p.predBits
	scan:
		for k := range rows {
			ci := &rows[k]
			if preds&ci.predMask != ci.predVal {
				continue
			}
			if ci.inMask&^inR != 0 {
				sawInputWait = true
				continue
			}
			for _, tc := range acts[k].tags {
				if (tc.ch.HeadTag() == tc.tag) != tc.eq {
					continue scan
				}
			}
			if ci.outMask != 0 {
				if !outScanned {
					outScanned = true
					for i := range scanOut {
						if scanOut[i].ch.CanAccept() {
							outR |= scanOut[i].bit
						}
					}
				}
				if ci.outMask&^outR != 0 {
					sawOutputWait = true
					continue
				}
			}
			acts[k].fire(cycle)
			return true
		}
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
		return false
	}
}

// cOut is one resolved output destination.
type cOut struct {
	ch  *channel.Channel
	tag isa.Tag
}

// compileFire fuses one instruction's whole fire sequence — operand
// reads, ALU evaluation, destination writes, dequeues, predicate
// updates, halt, statistics, trace — into a single closure over
// resolved channel pointers and folded constants.
func (p *PE) compileFire(ri compile.Inst) func(cycle int64) {
	ci := &p.prog[ri.Index]
	op := ci.inst.Op
	var eval func() isa.Word
	switch {
	case ri.Folded:
		v := ri.FoldedVal
		eval = func() isa.Word { return v }
	case op.Arity() == 1:
		ra := p.compileReader(ci.inst.Srcs[0], ri, 0)
		if op == isa.OpMov {
			eval = ra
		} else {
			eval = func() isa.Word { return op.Eval(ra(), 0) }
		}
	default:
		ra := p.compileReader(ci.inst.Srcs[0], ri, 0)
		rb := p.compileReader(ci.inst.Srcs[1], ri, 1)
		eval = func() isa.Word { return op.Eval(ra(), rb()) }
	}
	regDsts := append([]int(nil), ci.regDsts...)
	outs := make([]cOut, len(ci.outDsts))
	for i, d := range ci.outDsts {
		outs[i] = cOut{ch: p.out[d.ch], tag: d.tag}
	}
	deqs := make([]*channel.Channel, len(ci.inst.Deq))
	for i, ch := range ci.inst.Deq {
		deqs[i] = p.in[ch]
	}
	prDstMask, prUpdSet, prUpdClr := ci.prDstMask, ci.prUpdSet, ci.prUpdClr
	halt := op == isa.OpHalt
	idx := ri.Index
	return func(cycle int64) {
		result := eval()
		for _, r := range regDsts {
			p.regs[r] = result
		}
		for i := range outs {
			outs[i].ch.Send(channel.Token{Data: result, Tag: outs[i].tag})
		}
		if result != 0 {
			p.predBits |= prDstMask
		} else {
			p.predBits &^= prDstMask
		}
		for _, ch := range deqs {
			ch.Deq()
		}
		p.predBits = p.predBits&^prUpdClr | prUpdSet
		if halt {
			p.halted = true
		}
		p.stats.Fired++
		p.stats.PerInst[idx]++
		if p.Trace != nil {
			p.Trace(cycle, idx, result)
		}
	}
}

// compileReader builds one operand's read closure: folded constants are
// captured values, register reads index the live register file, channel
// reads peek resolved channels (keeping the interpreter's empty-channel
// panic as the scheduler-bug tripwire).
func (p *PE) compileReader(s isa.Src, ri compile.Inst, slot int) func() isa.Word {
	if ri.SrcConst[slot] {
		v := ri.SrcVal[slot]
		return func() isa.Word { return v }
	}
	switch s.Kind {
	case isa.SrcReg:
		r := s.Index
		return func() isa.Word { return p.regs[r] }
	case isa.SrcIn:
		ch := p.in[s.Index]
		idx := s.Index
		return func() isa.Word {
			tok, ok := ch.Peek()
			if !ok {
				panic(fmt.Sprintf("pe %s: read of empty channel in%d (scheduler bug)", p.name, idx))
			}
			return tok.Data
		}
	case isa.SrcInTag:
		ch := p.in[s.Index]
		idx := s.Index
		return func() isa.Word {
			tok, ok := ch.Peek()
			if !ok {
				panic(fmt.Sprintf("pe %s: tag read of empty channel in%d (scheduler bug)", p.name, idx))
			}
			return isa.Word(tok.Tag)
		}
	default:
		panic(fmt.Sprintf("pe %s: compile of invalid source kind %d", p.name, s.Kind))
	}
}
