package pe

// Allocation gates for the trigger-resolution and step hot paths: once
// constructed, a PE must never allocate while classifying or stepping,
// and Reset must reuse the per-instruction statistics buffer instead of
// regrowing it (see internal/fabric/alloc_test.go for the fabric-level
// gates these feed).

import (
	"testing"

	"tia/internal/channel"
)

// TestClassifyAllocationFree gates the interpreter's trigger classifier,
// classifyRef.
func TestClassifyAllocationFree(t *testing.T) {
	p, a, bb, _ := benchMergeSetup(t)
	a.Send(channel.Data(1))
	bb.Send(channel.Data(2))
	a.Tick()
	bb.Tick()
	avg := testing.AllocsPerRun(100, func() {
		p.classifyAll()
	})
	if avg != 0 {
		t.Errorf("classifyAll allocates %.1f times per run, want 0", avg)
	}
}

// TestStepResetAllocationFree gates the steady-state step loop and the
// Reset path (PerInst must be zeroed in place, not re-made).
func TestStepResetAllocationFree(t *testing.T) {
	p, a, bb, o := benchMergeSetup(t)
	step := func() {
		var cyc int64
		for cyc = 0; cyc < 64; cyc++ {
			if a.CanAccept() {
				a.Send(channel.Data(1))
			}
			if bb.CanAccept() {
				bb.Send(channel.Data(2))
			}
			p.Step(cyc)
			if _, ok := o.Peek(); ok {
				o.Deq()
			}
			a.Tick()
			bb.Tick()
			o.Tick()
		}
	}
	step() // warm
	avg := testing.AllocsPerRun(20, func() {
		p.Reset()
		a.Reset()
		bb.Reset()
		o.Reset()
		step()
	})
	if avg != 0 {
		t.Errorf("steady-state Reset+step loop allocates %.1f times per run, want 0", avg)
	}
}
