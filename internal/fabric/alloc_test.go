package fabric

// Allocation gates for the simulator hot path. The contract: once a
// fabric has run to steady state (sink records, channel staging and the
// stepper's pooled scratch grown to capacity), a Reset-and-rerun loop —
// core's verification reuse, campaign sweeps, the service's job loop —
// performs zero heap allocations under either wake policy and either
// dispatch (compiled, the default, and interpreted). These gates
// are what keeps BenchmarkFabricCycle at 0 B/op; if one fails, find the
// regrowth (a slice reset to nil instead of [:0], a per-cycle append)
// rather than loosening the gate.

import (
	"testing"

	"tia/internal/isa"
	"tia/internal/pe"
)

// buildCycleFabric is the BenchmarkFabricCycle topology at a smaller
// size: four sorted sources feeding a three-PE merge tree into one sink.
func buildCycleFabric(t testing.TB) *Fabric {
	f, _ := buildCycleFabricPEs(t)
	return f
}

// buildCycleFabricPEs additionally returns the merge PEs, for gates
// that poke PE state directly (the compiled-stepping gates).
func buildCycleFabricPEs(t testing.TB) (*Fabric, []*pe.PE) {
	t.Helper()
	quarter := make([]isa.Word, 1<<8)
	for i := range quarter {
		quarter[i] = isa.Word(i)
	}
	f := New(DefaultConfig())
	var srcs [4]*Source
	for i := range srcs {
		srcs[i] = NewWordSource("q"+string(rune('0'+i)), quarter, true)
		f.Add(srcs[i])
	}
	var merges [3]*pe.PE
	for i := range merges {
		m, err := pe.New("m"+string(rune('0'+i)), isa.DefaultConfig(), pe.MergeProgram())
		if err != nil {
			t.Fatal(err)
		}
		merges[i] = m
		f.Add(m)
	}
	snk := NewSink("snk")
	f.Add(snk)
	f.Wire(srcs[0], 0, merges[0], 0)
	f.Wire(srcs[1], 0, merges[0], 1)
	f.Wire(srcs[2], 0, merges[1], 0)
	f.Wire(srcs[3], 0, merges[1], 1)
	f.Wire(merges[0], 0, merges[2], 0)
	f.Wire(merges[1], 0, merges[2], 1)
	f.Wire(merges[2], 0, snk, 0)
	return f, merges[:]
}

// runToCompletion is the warm/measured loop body shared by the gates.
func runToCompletion(t testing.TB, f *Fabric) {
	t.Helper()
	res, err := f.Run(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("fabric did not complete")
	}
}

// TestEventRunAllocationFree gates the interpreter under the
// event-driven wake policy: steady-state Reset+Run allocates nothing.
func TestEventRunAllocationFree(t *testing.T) {
	f := buildCycleFabric(t)
	f.SetInterpreted(true)
	runToCompletion(t, f) // warm: grow every buffer to steady state
	avg := testing.AllocsPerRun(5, func() {
		f.Reset()
		runToCompletion(t, f)
	})
	if avg != 0 {
		t.Errorf("steady-state event Reset+Run: %.1f allocs/run, want 0", avg)
	}
}

// TestDenseRunAllocationFree gates the interpreter under the dense wake
// policy the same way — differential runs against the oracle should not
// be allocation-noisy.
func TestDenseRunAllocationFree(t *testing.T) {
	f := buildCycleFabric(t)
	f.SetDenseStepping(true)
	f.SetInterpreted(true)
	runToCompletion(t, f)
	avg := testing.AllocsPerRun(5, func() {
		f.Reset()
		runToCompletion(t, f)
	})
	if avg != 0 {
		t.Errorf("steady-state dense Reset+Run: %.1f allocs/run, want 0", avg)
	}
}

// TestCompiledEventRunAllocationFree gates compiled dispatch's steady
// state: once every PE's step closure is built (the first Run compiles;
// Reset keeps the closures — it does not touch program or
// configuration), a Reset+Run loop under the event policy dispatches
// via the compiled table with zero heap allocations, same contract as
// the interpreter — under each scheduling policy, at single and wide
// issue.
func TestCompiledEventRunAllocationFree(t *testing.T) {
	for _, sc := range []struct {
		label string
		set   func(*pe.PE)
	}{
		{"priority", func(*pe.PE) {}},
		{"roundrobin", func(m *pe.PE) { m.SetPolicy(pe.SchedRoundRobin) }},
		{"width2", func(m *pe.PE) { m.SetIssueWidth(2) }},
		{"roundrobin-width2", func(m *pe.PE) { m.SetPolicy(pe.SchedRoundRobin); m.SetIssueWidth(2) }},
	} {
		t.Run(sc.label, func(t *testing.T) {
			f, merges := buildCycleFabricPEs(t)
			for _, m := range merges {
				sc.set(m)
			}
			runToCompletion(t, f) // warm: compile the pools, grow every buffer
			avg := testing.AllocsPerRun(5, func() {
				f.Reset()
				runToCompletion(t, f)
			})
			if avg != 0 {
				t.Errorf("steady-state compiled event Reset+Run: %.1f allocs/run, want 0", avg)
			}
		})
	}
}

// TestCompiledDenseRunAllocationFree is the dense-policy twin.
func TestCompiledDenseRunAllocationFree(t *testing.T) {
	f := buildCycleFabric(t)
	f.SetDenseStepping(true)
	runToCompletion(t, f)
	avg := testing.AllocsPerRun(5, func() {
		f.Reset()
		runToCompletion(t, f)
	})
	if avg != 0 {
		t.Errorf("steady-state compiled dense Reset+Run: %.1f allocs/run, want 0", avg)
	}
}

// TestCompileStepAllocationBounded gates the one-time cost of
// compilation itself: rebuilding a PE's step closure (forced here by a
// state poke that bumps its compile generation) is a bounded constant —
// the plan analysis, closure captures and the per-instruction dispatch
// rows — not proportional to anything a run does.
func TestCompileStepAllocationBounded(t *testing.T) {
	f, merges := buildCycleFabricPEs(t)
	runToCompletion(t, f)
	avg := testing.AllocsPerRun(5, func() {
		for _, m := range merges {
			m.SetReg(0, m.Reg(0)) // invalidates the cached closure only
			if m.CompileStep() == nil {
				t.Fatal("CompileStep returned nil")
			}
		}
	})
	// ~50 allocs today: the plan analysis, closure captures and dispatch
	// rows. The slack absorbs changes to the analysis or the closures;
	// anything proportional to run or input size blows through it.
	const perCompile = 256
	if bound := float64(len(merges) * perCompile); avg > bound {
		t.Errorf("recompiling %d merge pools: %.1f allocs/run, want <= %.0f (bounded one-time compile cost)",
			len(merges), avg, bound)
	}
}
