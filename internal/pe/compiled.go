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
//   - The live rows form one dispatch loop, compileScan, whose policy
//     and issue width are parameters — like the paper's scheduler, one
//     structure that looks at every trigger in the pool each cycle.
//
// The compiled form covers both scheduling policies at every issue
// width; it requires a fully wired PE, which fabric.BeginRun checks
// (Validate, then PE.CheckConnections) before it compiles. The compiled
// rows are derived here from the ISA form; of what New precomputes they
// share only the input and output channel lists with the interpreter, so
// the differential tests compare two independent readings of each
// instruction.
//
// Staleness: closures capture register/predicate constants and channel
// pointers, so anything that could invalidate them (SetReg, SetPred,
// scheduler knobs, port wiring, a snapshot restore to other registers or
// predicates than it was compiled against) bumps a generation counter;
// CompileStep reuses the cached closure only while the generation
// matches. The fabric re-queries CompileStep at the top of every run
// (fabric.BeginRun refreshes its dispatch table), so a stale closure is
// never entered.

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
//
// The PE must be fully wired: every channel its program names is
// attached, so CheckConnections returns nil. The closure captures the
// channel pointers, and an unwired port would be a nil channel.
func (p *PE) CompileStep() func(cycle int64) bool {
	if p.compiledStep == nil || p.compiledFor != p.compileGen {
		p.compiledStep = p.buildCompiledStep()
		p.compiledFor = p.compileGen
		p.compiledRegs = append(p.compiledRegs[:0], p.regs...)
		p.compiledPreds = p.predBits
	}
	return p.compiledStep
}

// buildCompiledStep constructs the specialized step function: the
// analyzed plan's live instructions, compiled into one dispatch loop.
func (p *PE) buildCompiledStep() func(cycle int64) bool {
	plan := compile.Analyze(p.cfg, p.Program(), p.regs, p.predBits)
	return p.compileScan(plan.Live)
}

// chanMask packs a channel list into a bitmask.
func chanMask(chs []int) uint64 {
	var m uint64
	for _, ch := range chs {
		m |= 1 << uint(ch)
	}
	return m
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

// cRow is one live instruction's residual classification state — the
// hot part of the dispatch loop, kept to 32 bytes (two rows per cache
// line) so the scan streams. The cold per-instruction data lives in the
// parallel cAct slice.
type cRow struct {
	predMask, predVal uint64
	inMask, outMask   uint64
}

// scanBit is one channel of the specialized status scan.
type scanBit struct {
	ch  *channel.Channel
	bit uint64
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

// compileScan builds the dispatch loop over the live instructions: the
// interpreter's scan with the dead rows removed, operating on status
// words computed from only the channels the live rows observe. The
// scheduler's policy and issue width are parameters of this one loop:
//
//   - Round-robin lays the rows out twice and scans one window of them,
//     starting at the first live row at or after the rotation offset;
//     dead rows never fire or stall, so skipping them cannot change the
//     outcome. With one live row there is nothing to rotate.
//   - At width 1 the first fireable row applies and the cycle ends.
//   - Wider, the scan issues up to the issue width of fireable rows
//     whose footprints do not conflict, and evaluates every issued row
//     before any applies its effects — stepWide's parallel semantics:
//     operands read start-of-cycle registers, triggers see start-of-
//     cycle predicates (the local copy), and the channel effects are
//     staged either way. Each apply moves the rotation offset past its
//     own row, so the last row applied in scan order leaves it where
//     stepWide does.
//
// A cycle that fires nothing performs the interpreter's no-fire
// epilogue, stall.
func (p *PE) compileScan(live []compile.Inst) func(cycle int64) bool {
	n := len(live)
	rows, acts := make([]cRow, n), make([]cAct, n)
	var inU, outU uint64
	for k, ri := range live {
		ci := &p.prog[ri.Index]
		rows[k] = cRow{
			predMask: ri.PredMask, predVal: ri.PredVal,
			inMask: chanMask(ci.inputs), outMask: chanMask(ci.outputs),
		}
		acts[k] = p.compileAct(ri)
		// Every channel a trigger, operand or dequeue names is in
		// ImplicitInputs, so the input rows cover the whole scan.
		inU |= rows[k].inMask
		outU |= rows[k].outMask
	}
	var scanIn, scanOut []scanBit
	for i, ch := range p.in {
		if inU&(1<<uint(i)) != 0 {
			scanIn = append(scanIn, scanBit{ch: ch, bit: 1 << uint(i)})
		}
	}
	for i, ch := range p.out {
		if outU&(1<<uint(i)) != 0 {
			scanOut = append(scanOut, scanBit{ch: ch, bit: 1 << uint(i)})
		}
	}
	var startRow []int // rrOffset -> first row scanned; nil under priority
	if p.policy == SchedRoundRobin && n > 1 {
		rows = append(rows, rows...)
		acts = append(acts, acts...)
		startRow = make([]int, len(p.prog))
		for off := range startRow {
			for k := n - 1; k >= 0 && live[k].Index >= off; k-- {
				startRow[off] = k
			}
		}
	}
	width := p.issueWidth
	g := &issueGroup{rows: make([]int, width), results: make([]isa.Word, width)}
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
			a := &acts[k] // cold: most rows fail before they reach it
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
			if width == 1 {
				a.apply(cycle, a.eval())
				return true
			}
			if g.issue(k, r, a) == width {
				break
			}
		}
		if g.n > 0 {
			for i := 0; i < g.n; i++ {
				acts[g.rows[i]].apply(cycle, g.results[i])
			}
			*g = issueGroup{rows: g.rows, results: g.results}
			return true
		}
		p.stall(sawInputWait, sawOutputWait)
		return false
	}
}

// issueGroup is one wide cycle's issue stage: the rows issued so far,
// their results, and their accumulated footprint. It lives behind a
// pointer so the scan loop keeps only its status words in registers;
// the dispatch closure clears it after applying the group.
type issueGroup struct {
	rows    []int
	results []isa.Word
	n       int

	out, deq, regs, preds uint64 // outputs enqueued, inputs dequeued, registers and predicates written
}

// issue adds a fireable row to the group unless its footprint conflicts
// with a row already issued, evaluating its operands now, against
// start-of-cycle state. It returns the group's size.
func (g *issueGroup) issue(k int, r *cRow, a *cAct) int {
	if r.outMask&g.out != 0 || a.deq&g.deq != 0 || a.regs&g.regs != 0 || a.preds&g.preds != 0 {
		return g.n
	}
	g.out |= r.outMask
	g.deq |= a.deq
	g.regs |= a.regs
	g.preds |= a.preds
	g.rows[g.n], g.results[g.n] = k, a.eval()
	g.n++
	return g.n
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
	deqs := make([]*channel.Channel, len(inst.Deq))
	for i, ch := range inst.Deq {
		deqs[i] = p.in[ch]
	}
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
