package fabric

import (
	"errors"
	"testing"

	"tia/internal/isa"
	"tia/internal/pe"
)

// BenchmarkFabricStep_Idle measures per-cycle overhead on a mostly-idle
// fabric: one heartbeat PE fires every cycle (so the fabric never
// quiesces) while eight merge PEs sit stalled behind exhausted sources
// and never-completing sinks. Event-driven stepping should pay only for
// the heartbeat; dense stepping re-polls every idle element and channel.
func BenchmarkFabricStep_Idle(b *testing.B) {
	heartbeat := []isa.Instruction{{
		Op:   isa.OpAdd,
		Srcs: [2]isa.Src{isa.Reg(0), isa.Imm(1)},
		Dsts: []isa.Dst{isa.DReg(0)},
	}}
	for _, mode := range []struct {
		name  string
		dense bool
	}{{"event", false}, {"dense", true}} {
		b.Run(mode.name, func(b *testing.B) {
			f := New(DefaultConfig())
			hb, err := pe.New("hb", isa.DefaultConfig(), heartbeat)
			if err != nil {
				b.Fatal(err)
			}
			f.Add(hb)
			for i := 0; i < 8; i++ {
				m, err := pe.New("idle"+string(rune('0'+i)), isa.DefaultConfig(), pe.MergeProgram())
				if err != nil {
					b.Fatal(err)
				}
				f.Add(m)
				sa := NewWordSource("sa"+string(rune('0'+i)), nil, false)
				sb := NewWordSource("sb"+string(rune('0'+i)), nil, false)
				snk := NewSink("snk" + string(rune('0'+i)))
				f.Add(sa)
				f.Add(sb)
				f.Add(snk)
				f.Wire(sa, 0, m, 0)
				f.Wire(sb, 0, m, 1)
				f.Wire(m, 0, snk, 0)
			}
			f.SetDenseStepping(mode.dense)
			b.ResetTimer()
			done := 0
			for done < b.N {
				res, err := f.Run(int64(b.N - done))
				if err != nil && !errors.Is(err, ErrTimeout) {
					b.Fatal(err)
				}
				if res.Cycles == 0 {
					b.Fatal("fabric made no progress")
				}
				done += int(res.Cycles)
			}
		})
	}
}

// BenchmarkFabricCycle measures whole-fabric cycles on the 3-PE merge
// tree, the end-to-end simulator hot loop.
func BenchmarkFabricCycle(b *testing.B) {
	n := 1 << 16
	quarter := make([]isa.Word, n/4)
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
			b.Fatal(err)
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

	// Warm run: grow the sink record, channel staging and stepper scratch
	// to steady-state capacity so the timed loop measures the hot path,
	// not one-time warm-up growth (the alloc gates in alloc_test.go hold
	// the steady state to zero allocations).
	if _, err := f.Run(1 << 30); err != nil {
		b.Fatal(err)
	}
	f.Reset()

	b.ResetTimer()
	done := 0
	for done < b.N {
		res, err := f.Run(int64(b.N - done))
		if err != nil && !errors.Is(err, ErrTimeout) {
			b.Fatal(err)
		}
		done += int(res.Cycles)
		if res.Completed {
			f.Reset()
		}
		if res.Cycles == 0 {
			break
		}
	}
}
