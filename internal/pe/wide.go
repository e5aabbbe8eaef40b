package pe

import (
	"tia/internal/channel"
	"tia/internal/isa"
)

// stepWide is the superscalar trigger scheduler: fire up to issueWidth
// ready, non-conflicting instructions in one cycle with parallel
// semantics (see SetIssueWidth). Like Step it reads only the ISA form:
// triggers are classified by classifyRef, and each fireable candidate's
// structural footprint (outputs enqueued, inputs dequeued, registers and
// predicates written) is collected from its destinations and checked
// against the accumulated footprint of the instructions already issued.
func (p *PE) stepWide(cycle int64) bool {
	p.stats.Cycles++
	n := len(p.prog)

	var usedOut, usedDeq, writtenRegs, writtenPreds uint64

	type regWrite struct {
		idx int
		val isa.Word
	}
	var regWrites []regWrite
	// Predicate writes commit as packed set/clear masks; conflict
	// detection guarantees the two are disjoint across issued
	// instructions, and validation forbids overlap within one.
	var predSet, predClr uint64
	halting := false

	// Round-robin scans every row once, from the offset the cycle starts
	// with (rrOffset is zero under priority), and moves the offset once,
	// past the last row fired, after the scan.
	start, last := p.rrOffset, -1
	fired := 0
	sawInputWait, sawOutputWait := false, false
	for k := 0; k < n && fired < p.issueWidth; k++ {
		idx := (k + start) % n
		ci := &p.prog[idx]
		// Triggers evaluate against start-of-cycle predicate state:
		// predicate writes are deferred, so predBits is unchanged here.
		switch p.classifyRef(ci) {
		case waitingInput:
			sawInputWait = true
			continue
		case waitingOut:
			sawOutputWait = true
			continue
		case notTriggered:
			continue
		}
		inst := &ci.inst
		var out, deq, regs, preds uint64
		for _, d := range inst.Dsts {
			switch d.Kind {
			case isa.DstReg:
				regs |= 1 << uint(d.Index)
			case isa.DstOut:
				out |= 1 << uint(d.Index)
			case isa.DstPred:
				preds |= 1 << uint(d.Index)
			}
		}
		for _, ch := range inst.Deq {
			deq |= 1 << uint(ch)
		}
		for _, u := range inst.PredUpdates {
			preds |= 1 << uint(u.Index)
		}
		if out&usedOut != 0 || deq&usedDeq != 0 ||
			regs&writtenRegs != 0 || preds&writtenPreds != 0 {
			continue
		}
		usedOut |= out
		usedDeq |= deq
		writtenRegs |= regs
		writtenPreds |= preds

		// Fire with deferred architectural writes. Channel effects
		// stage immediately (the channel layer is already two-phase).
		result := p.eval(inst)
		for _, d := range inst.Dsts {
			switch d.Kind {
			case isa.DstReg:
				regWrites = append(regWrites, regWrite{d.Index, result})
			case isa.DstOut:
				p.out[d.Index].Send(channel.Token{Data: result, Tag: d.Tag})
			case isa.DstPred:
				if result != 0 {
					predSet |= 1 << uint(d.Index)
				} else {
					predClr |= 1 << uint(d.Index)
				}
			}
		}
		for _, ch := range inst.Deq {
			p.in[ch].Deq()
		}
		for _, u := range inst.PredUpdates {
			if u.Op == isa.PredSet {
				predSet |= 1 << uint(u.Index)
			} else {
				predClr |= 1 << uint(u.Index)
			}
		}
		if inst.Op == isa.OpHalt {
			halting = true
		}
		p.stats.Fired++
		p.stats.PerInst[idx]++
		if p.Trace != nil {
			p.Trace(cycle, idx, result)
		}
		fired++
		last = idx
	}
	if p.policy == SchedRoundRobin && last >= 0 {
		p.rrOffset = (last + 1) % n
	}

	// Commit architectural state.
	for _, w := range regWrites {
		p.regs[w.idx] = w.val
	}
	p.predBits = p.predBits&^predClr | predSet
	if halting {
		p.halted = true
	}

	if fired > 0 {
		return true
	}
	p.stall(sawInputWait, sawOutputWait)
	return false
}
