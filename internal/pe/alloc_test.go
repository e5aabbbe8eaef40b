package pe

// Allocation gates for the trigger-resolution and step hot paths: once
// constructed, a PE must never allocate while classifying or stepping,
// and RestoreState, which Fabric.Reset calls, must refill the
// per-instruction statistics buffer instead of regrowing it (see
// internal/fabric/alloc_test.go for the fabric-level gates these feed).

import (
	"testing"

	"tia/internal/channel"
	"tia/internal/snapshot"
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
// reset path, a restore of the PE's and its channels' fresh state
// through one reused decoder (PerInst must be refilled in place, not
// re-made).
func TestStepResetAllocationFree(t *testing.T) {
	p, a, bb, o := benchMergeSetup(t)
	parts := []interface {
		SnapshotState(*snapshot.Encoder)
		RestoreState(*snapshot.Decoder) error
	}{p, a, bb, o}
	fresh := make([][]byte, len(parts))
	for i, s := range parts {
		var e snapshot.Encoder
		s.SnapshotState(&e)
		fresh[i] = e.Data()
	}
	var d snapshot.Decoder
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
		for i, s := range parts {
			d.Reset(fresh[i])
			if err := s.RestoreState(&d); err != nil {
				t.Fatal(err)
			}
		}
		step()
	})
	if avg != 0 {
		t.Errorf("steady-state Reset+step loop allocates %.1f times per run, want 0", avg)
	}
}
