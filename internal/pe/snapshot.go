package pe

import (
	"fmt"
	"slices"

	"tia/internal/isa"
	"tia/internal/snapshot"
)

// SnapshotState serializes the PE's architectural and accounting state:
// register file, predicate bitmap, halt flag, round-robin offset, the
// last stall classification (needed so SkipCycles backfills identically
// after restore), and cumulative statistics. Compiled step closures are
// derived from this state, and rebuilt after a restore that changes
// what they were compiled against, so they are not state.
func (p *PE) SnapshotState(e *snapshot.Encoder) {
	e.Int(len(p.regs))
	for _, r := range p.regs {
		e.U64(uint64(r))
	}
	e.U64(p.predBits)
	e.Bool(p.halted)
	e.Int(p.rrOffset)
	e.U64(uint64(p.lastStall))
	e.I64(p.stats.Fired)
	e.I64(p.stats.IdleCycles)
	e.I64(p.stats.InputStall)
	e.I64(p.stats.OutputStall)
	e.I64(p.stats.Cycles)
	e.Int(len(p.stats.PerInst))
	for _, n := range p.stats.PerInst {
		e.I64(n)
	}
}

// RestoreState rebuilds the PE from a snapshot of an identically
// configured PE running the identical program (the fingerprint check in
// fabric.Restore guarantees both).
func (p *PE) RestoreState(d *snapshot.Decoder) error {
	nRegs := d.Count()
	if d.Err() == nil && nRegs != len(p.regs) {
		return fmt.Errorf("pe %s: snapshot has %d registers, PE has %d", p.name, nRegs, len(p.regs))
	}
	for i := 0; i < nRegs && d.Err() == nil; i++ {
		p.regs[i] = isa.Word(d.U64())
	}
	p.predBits = d.U64()
	p.halted = d.Bool()
	p.rrOffset = d.Int()
	if d.Err() == nil && (p.rrOffset < 0 || (len(p.prog) > 0 && p.rrOffset >= len(p.prog))) {
		return fmt.Errorf("pe %s: snapshot round-robin offset %d out of range", p.name, p.rrOffset)
	}
	stall := d.U64()
	if d.Err() == nil && stall > uint64(stallOutput) {
		return fmt.Errorf("pe %s: snapshot stall kind %d unknown", p.name, stall)
	}
	p.lastStall = stallKind(stall)
	p.stats.Fired = d.I64()
	p.stats.IdleCycles = d.I64()
	p.stats.InputStall = d.I64()
	p.stats.OutputStall = d.I64()
	p.stats.Cycles = d.I64()
	nInst := d.Count()
	if d.Err() == nil && nInst != len(p.stats.PerInst) {
		return fmt.Errorf("pe %s: snapshot has %d per-instruction counters, program has %d", p.name, nInst, len(p.stats.PerInst))
	}
	for i := 0; i < nInst && d.Err() == nil; i++ {
		p.stats.PerInst[i] = d.I64()
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("pe %s: %w", p.name, err)
	}
	// The compiled closure folds only never-written registers and
	// predicates, so it stays valid if they are restored unchanged, as
	// every Fabric.Reset restores them.
	if p.predBits != p.compiledPreds || !slices.Equal(p.regs, p.compiledRegs) {
		p.invalidateCompiled()
	}
	return nil
}
