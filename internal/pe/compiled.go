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
//     destination writes, dequeues, predicate updates, halt) becomes two
//     closures, evaluation and effects, over resolved *channel.Channel
//     pointers — no per-fire source-kind switches, arity lookups or
//     port-table indexing.
//   - The per-cycle channel-status scan is specialized to the channels
//     the live instructions can observe, via channel.Ready instead of
//     token-copying Peeks.
//   - A pool with a single live trigger collapses to a direct
//     guard-and-fire closure: no masks, no dispatch loop at all.
//
// The compiled form covers both scheduling policies at single issue and
// the superscalar scheduler under the priority policy, on a fully wired
// PE; a PE combining round-robin with wide issue, or with unwired ports,
// steps through the interpreter. The compiled rows are derived here from
// the ISA form; of what New precomputes they share only the input and
// output channel lists with the interpreter, so the differential tests
// compare two independent readings of each instruction.
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
	if p.issueWidth > 1 && p.policy == SchedRoundRobin {
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

	switch {
	case len(plan.Live) == 0:
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
	case len(plan.Live) == 1:
		// One live trigger fires at most once a cycle, so neither
		// rotation nor issue width can change which instruction fires.
		return p.compileSingle(plan.Live[0])
	case p.issueWidth > 1:
		return p.compileWide(p.compilePool(plan.Live))
	default:
		return p.compileMulti(plan.Live, p.compilePool(plan.Live))
	}
}

// chanMask packs a channel list into a bitmask.
func chanMask(chs []int) uint64 {
	var m uint64
	for _, ch := range chs {
		m |= 1 << uint(ch)
	}
	return m
}

// resolve maps a channel list onto a port table.
func resolve(chs []int, ports []*channel.Channel) []*channel.Channel {
	out := make([]*channel.Channel, len(chs))
	for i, ch := range chs {
		out[i] = ports[ch]
	}
	return out
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

// cAct is one live instruction's cold state, touched only when its row
// survives the readiness checks: its head-tag conditions, its fire
// sequence split into operand evaluation and effects (so wide issue can
// evaluate every issued instruction before any of them writes), and the
// footprint wide issue checks for structural conflicts.
type cAct struct {
	tags  []cTag
	eval  func() isa.Word
	apply func(cycle int64, result isa.Word)

	deq, regs, preds uint64 // inputs dequeued, registers and predicates written
}

// compileSingle builds the direct guard-and-fire closure for a pool with
// one live trigger. Check order mirrors classifyRef (predicates →
// inputs → tags → outputs), and each early-out performs exactly the
// stall accounting the interpreter's no-fire epilogue would.
func (p *PE) compileSingle(ri compile.Inst) func(cycle int64) bool {
	ci := &p.prog[ri.Index]
	predMask, predVal := ri.PredMask, ri.PredVal
	ins := resolve(ci.inputs, p.in)
	outs := resolve(ci.outputs, p.out)
	act := p.compileAct(ri)
	tags, eval, apply := act.tags, act.eval, act.apply
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
		apply(cycle, eval())
		return true
	}
}

// cRow is one live instruction's residual classification state — the
// hot part of the dispatch loop, kept to 32 bytes (two rows per cache
// line) so the priority scan streams. The cold per-instruction data
// lives in the parallel cAct slice.
type cRow struct {
	predMask, predVal uint64
	inMask, outMask   uint64
}

// scanBit is one channel of the specialized status scan.
type scanBit struct {
	ch  *channel.Channel
	bit uint64
}

// cPool is a compiled trigger pool: the live rows in program order, their
// cold counterparts, and the status scan restricted to the channels the
// live instructions observe.
type cPool struct {
	rows            []cRow
	acts            []cAct
	scanIn, scanOut []scanBit
}

func (p *PE) compilePool(live []compile.Inst) cPool {
	pool := cPool{rows: make([]cRow, len(live)), acts: make([]cAct, len(live))}
	var inU, outU uint64
	for k, ri := range live {
		ci := &p.prog[ri.Index]
		pool.rows[k] = cRow{
			predMask: ri.PredMask, predVal: ri.PredVal,
			inMask: chanMask(ci.inputs), outMask: chanMask(ci.outputs),
		}
		pool.acts[k] = p.compileAct(ri)
		// Every channel a trigger, operand or dequeue names is in
		// ImplicitInputs, so the input rows cover the whole scan.
		inU |= pool.rows[k].inMask
		outU |= pool.rows[k].outMask
	}
	for i, ch := range p.in {
		if inU&(1<<uint(i)) != 0 {
			pool.scanIn = append(pool.scanIn, scanBit{ch: ch, bit: 1 << uint(i)})
		}
	}
	for i, ch := range p.out {
		if outU&(1<<uint(i)) != 0 {
			pool.scanOut = append(pool.scanOut, scanBit{ch: ch, bit: 1 << uint(i)})
		}
	}
	return pool
}

// readyBits returns the ready bits of the scanned input channels.
func readyBits(scan []scanBit) uint64 {
	var r uint64
	for i := range scan {
		if scan[i].ch.Ready() {
			r |= scan[i].bit
		}
	}
	return r
}

// creditBits returns the credit bits of the scanned output channels.
func creditBits(scan []scanBit) uint64 {
	var r uint64
	for i := range scan {
		if scan[i].ch.CanAccept() {
			r |= scan[i].bit
		}
	}
	return r
}

// tagsHold reports whether every head-tag condition of a row holds.
func tagsHold(tags []cTag) bool {
	for _, tc := range tags {
		if (tc.ch.HeadTag() == tc.tag) != tc.eq {
			return false
		}
	}
	return true
}

// compileMulti builds the single-issue dispatch loop over the live
// instructions: the interpreter's scan with the dead rows removed,
// operating on locally computed status words. Under round-robin the rows
// are laid out twice and the scan covers one window of them, starting at
// the first live row at or after the rotation offset; dead rows never
// fire or stall, so skipping them cannot change the outcome.
func (p *PE) compileMulti(live []compile.Inst, pool cPool) func(cycle int64) bool {
	rows, acts, scanIn, scanOut := pool.rows, pool.acts, pool.scanIn, pool.scanOut
	n := len(rows)
	var startRow []int // rrOffset -> first row scanned; nil under priority
	if p.policy == SchedRoundRobin {
		rows = append(rows, rows...)
		acts = append(acts, acts...)
		startRow = make([]int, len(p.prog))
		for off := range startRow {
			for k := n - 1; k >= 0 && live[k].Index >= off; k-- {
				startRow[off] = k
			}
		}
	}
	return func(cycle int64) bool {
		if p.halted {
			return false
		}
		p.stats.Cycles++
		inR := readyBits(scanIn)
		// The output scan is lazy: on input-stalled cycles (the common
		// stall in dataflow kernels) no instruction reaches its output
		// check and the CanAccept sweep never happens.
		var outR uint64
		outScanned := false
		sawInputWait, sawOutputWait := false, false
		preds := p.predBits
		start := 0
		if startRow != nil {
			start = startRow[p.rrOffset]
		}
		for k, end := start, start+n; k < end; k++ {
			r := &rows[k]
			if preds&r.predMask != r.predVal {
				continue
			}
			if r.inMask&^inR != 0 {
				sawInputWait = true
				continue
			}
			if !tagsHold(acts[k].tags) {
				continue
			}
			if r.outMask != 0 {
				if !outScanned {
					outScanned = true
					outR = creditBits(scanOut)
				}
				if r.outMask&^outR != 0 {
					sawOutputWait = true
					continue
				}
			}
			acts[k].apply(cycle, acts[k].eval())
			return true
		}
		p.stall(sawInputWait, sawOutputWait)
		return false
	}
}

// compileWide builds the superscalar dispatch loop (priority policy):
// stepWide's scan over the live rows, issuing up to the issue width of
// fireable rows whose footprints do not conflict. Every issued row is
// evaluated before any applies its effects, which is stepWide's parallel
// semantics: operands read start-of-cycle registers, triggers see
// start-of-cycle predicates (the local copy), and the channel effects
// are staged either way.
func (p *PE) compileWide(pool cPool) func(cycle int64) bool {
	rows, acts, scanIn, scanOut := pool.rows, pool.acts, pool.scanIn, pool.scanOut
	width := p.issueWidth
	issued := make([]int, width)
	results := make([]isa.Word, width)
	return func(cycle int64) bool {
		if p.halted {
			return false
		}
		p.stats.Cycles++
		inR := readyBits(scanIn)
		var outR uint64
		outScanned := false
		sawInputWait, sawOutputWait := false, false
		preds := p.predBits
		var usedOut, usedDeq, wRegs, wPreds uint64
		n := 0
		for k := 0; k < len(rows) && n < width; k++ {
			r, a := &rows[k], &acts[k]
			if preds&r.predMask != r.predVal {
				continue
			}
			if r.inMask&^inR != 0 {
				sawInputWait = true
				continue
			}
			if !tagsHold(a.tags) {
				continue
			}
			if r.outMask != 0 {
				if !outScanned {
					outScanned = true
					outR = creditBits(scanOut)
				}
				if r.outMask&^outR != 0 {
					sawOutputWait = true
					continue
				}
			}
			if r.outMask&usedOut != 0 || a.deq&usedDeq != 0 ||
				a.regs&wRegs != 0 || a.preds&wPreds != 0 {
				continue
			}
			usedOut |= r.outMask
			usedDeq |= a.deq
			wRegs |= a.regs
			wPreds |= a.preds
			issued[n], results[n] = k, a.eval()
			n++
		}
		for i := 0; i < n; i++ {
			acts[issued[i]].apply(cycle, results[i])
		}
		if n > 0 {
			return true
		}
		p.stall(sawInputWait, sawOutputWait)
		return false
	}
}

// cOut is one resolved output destination.
type cOut struct {
	ch  *channel.Channel
	tag isa.Tag
}

// compileAct compiles one live instruction's cold state from its ISA
// form. The fire sequence — operand reads, ALU evaluation, destination
// writes, dequeues, predicate updates, halt, rotation, statistics,
// trace — becomes two closures over resolved channel pointers and folded
// constants. Destinations are flattened by kind, so no fire re-dispatches
// on Dst.Kind; that is order-safe because the three destination spaces
// are disjoint and validation forbids writing one destination twice.
func (p *PE) compileAct(ri compile.Inst) cAct {
	ci := &p.prog[ri.Index]
	inst := &ci.inst
	op := inst.Op
	var act cAct
	for _, c := range inst.Trigger.Inputs {
		if c.Cond != isa.TagAny {
			act.tags = append(act.tags, cTag{ch: p.in[c.Chan], tag: c.Tag, eq: c.Cond == isa.TagEq})
		}
	}
	switch {
	case ri.Folded:
		v := ri.FoldedVal
		act.eval = func() isa.Word { return v }
	case op.Arity() == 1:
		ra := p.compileReader(inst.Srcs[0], ri, 0)
		if op == isa.OpMov {
			act.eval = ra
		} else {
			act.eval = func() isa.Word { return op.Eval(ra(), 0) }
		}
	default:
		ra := p.compileReader(inst.Srcs[0], ri, 0)
		rb := p.compileReader(inst.Srcs[1], ri, 1)
		act.eval = func() isa.Word { return op.Eval(ra(), rb()) }
	}
	var regDsts []int
	var outs []cOut
	var prDst, prSet, prClr uint64
	for _, d := range inst.Dsts {
		switch d.Kind {
		case isa.DstReg:
			regDsts = append(regDsts, d.Index)
			act.regs |= 1 << uint(d.Index)
		case isa.DstOut:
			outs = append(outs, cOut{ch: p.out[d.Index], tag: d.Tag})
		case isa.DstPred:
			prDst |= 1 << uint(d.Index)
		}
	}
	deqs := resolve(inst.Deq, p.in)
	act.deq = chanMask(inst.Deq)
	for _, u := range inst.PredUpdates {
		if u.Op == isa.PredSet {
			prSet |= 1 << uint(u.Index)
		} else {
			prClr |= 1 << uint(u.Index)
		}
	}
	act.preds = prDst | prSet | prClr
	halt := op == isa.OpHalt
	rr := p.policy == SchedRoundRobin
	idx := ri.Index
	next := idx + 1
	if next == len(p.prog) {
		next = 0
	}
	act.apply = func(cycle int64, result isa.Word) {
		for _, r := range regDsts {
			p.regs[r] = result
		}
		for i := range outs {
			outs[i].ch.Send(channel.Token{Data: result, Tag: outs[i].tag})
		}
		if result != 0 {
			p.predBits |= prDst
		} else {
			p.predBits &^= prDst
		}
		for _, ch := range deqs {
			ch.Deq()
		}
		p.predBits = p.predBits&^prClr | prSet
		if halt {
			p.halted = true
		}
		if rr {
			p.rrOffset = next
		}
		p.stats.Fired++
		p.stats.PerInst[idx]++
		if p.Trace != nil {
			p.Trace(cycle, idx, result)
		}
	}
	return act
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
