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

// BenchmarkSchedulerStep measures the compiled step function — what a
// fabric runs — on the merge kernel in steady state, under each
// scheduling policy at single and double issue.
func BenchmarkSchedulerStep(b *testing.B) {
	for _, sc := range []struct {
		label  string
		policy SchedPolicy
		width  int
	}{
		{"priority", SchedPriority, 1},
		{"roundrobin", SchedRoundRobin, 1},
		{"width2", SchedPriority, 2},
		{"roundrobin-width2", SchedRoundRobin, 2},
	} {
		b.Run(sc.label, func(b *testing.B) {
			p, a, bb, o := benchMergeSetup(b)
			p.SetPolicy(sc.policy)
			p.SetIssueWidth(sc.width)
			step := p.CompileStep()
			v := isa.Word(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if a.CanAccept() {
					a.Send(channel.Data(v))
					v++
				}
				if bb.CanAccept() {
					bb.Send(channel.Data(v))
					v++
				}
				step(int64(i))
				if _, ok := o.Peek(); ok {
					o.Deq()
				}
				a.Tick()
				bb.Tick()
				o.Tick()
			}
		})
	}
}
