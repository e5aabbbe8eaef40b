package pe

import (
	"testing"

	"tia/internal/channel"
	"tia/internal/isa"
)

// benchMergeSetup wires the merge kernel with pre-fed channels (shared
// with the allocation gates in alloc_test.go).
func benchMergeSetup(b testing.TB) (*PE, *channel.Channel, *channel.Channel, *channel.Channel) {
	b.Helper()
	p, err := New("m", isa.DefaultConfig(), MergeProgram())
	if err != nil {
		b.Fatal(err)
	}
	a := channel.New("a", 4, 0)
	bb := channel.New("b", 4, 0)
	o := channel.New("o", 4, 0)
	p.ConnectIn(0, a)
	p.ConnectIn(1, bb)
	p.ConnectOut(0, o)
	return p, a, bb, o
}

// BenchmarkSchedulerStep measures the single-issue scheduler on the merge
// kernel in steady state.
func BenchmarkSchedulerStep(b *testing.B) {
	p, a, bb, o := benchMergeSetup(b)
	v := isa.Word(0)
	for i := 0; i < b.N; i++ {
		if a.CanAccept() {
			a.Send(channel.Data(v))
			v++
		}
		if bb.CanAccept() {
			bb.Send(channel.Data(v))
			v++
		}
		p.Step(int64(i))
		if _, ok := o.Peek(); ok {
			o.Deq()
		}
		a.Tick()
		bb.Tick()
		o.Tick()
	}
}

// BenchmarkSchedulerStepWide measures the width-2 scheduler on the same
// kernel.
func BenchmarkSchedulerStepWide(b *testing.B) {
	p, a, bb, o := benchMergeSetup(b)
	p.SetIssueWidth(2)
	v := isa.Word(0)
	for i := 0; i < b.N; i++ {
		if a.CanAccept() {
			a.Send(channel.Data(v))
			v++
		}
		if bb.CanAccept() {
			bb.Send(channel.Data(v))
			v++
		}
		p.Step(int64(i))
		if _, ok := o.Peek(); ok {
			o.Deq()
		}
		a.Tick()
		bb.Tick()
		o.Tick()
	}
}
