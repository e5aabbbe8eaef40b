package noc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tia/internal/channel"
	"tia/internal/fabric"
	"tia/internal/isa"
	"tia/internal/pe"
)

// tickAll steps the mesh and commits all flow channels.
func tickAll(m *Mesh) {
	m.Step(0)
	for _, fl := range m.flows {
		fl.from.Tick()
		fl.to.Tick()
	}
}

func TestSingleFlowDelivery(t *testing.T) {
	m := New("mesh", Config{Width: 3, Height: 3, BufferDepth: 2})
	from, to := m.Bridge("f", 0, 0, 2, 2, 4)
	from.Send(channel.Data(42))
	from.Tick()
	cycles := 0
	for {
		tickAll(m)
		cycles++
		if _, ok := to.Peek(); ok {
			break
		}
		if cycles > 50 {
			t.Fatal("token never delivered")
		}
	}
	tok, _ := to.Peek()
	if tok.Data != 42 {
		t.Fatalf("delivered %v", tok)
	}
	// Manhattan distance 4: inject + 4 hops + deliver, plus channel
	// commit latencies. Just sanity-check it's in a plausible band.
	if cycles < 5 || cycles > 12 {
		t.Errorf("delivery took %d cycles for 4 hops", cycles)
	}
	s := m.Stats()
	if s.Injected != 1 || s.Delivered != 1 || s.Hops != 4 {
		t.Errorf("stats %+v, want 1 injected, 1 delivered, 4 hops", s)
	}
}

func TestPerFlowOrderPreserved(t *testing.T) {
	m := New("mesh", Config{Width: 4, Height: 4, BufferDepth: 2})
	from, to := m.Bridge("f", 0, 0, 3, 3, 4)
	const n = 20
	sent := 0
	var got []isa.Word
	for cycle := 0; cycle < 500 && len(got) < n; cycle++ {
		if sent < n && from.CanAccept() {
			from.Send(channel.Data(isa.Word(sent)))
			sent++
		}
		if tok, ok := to.Peek(); ok {
			got = append(got, tok.Data)
			to.Deq()
		}
		tickAll(m)
	}
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != isa.Word(i) {
			t.Fatalf("flow reordered: %v", got)
		}
	}
}

// Property: under random crossing traffic, every flow delivers every
// token in order.
func TestCrossTrafficProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New("mesh", Config{Width: 3, Height: 3, BufferDepth: 1 + rng.Intn(3)})
		type endpoints struct {
			from, to *channel.Channel
			sent     int
			got      []isa.Word
		}
		var eps []*endpoints
		for i := 0; i < 4; i++ {
			sx, sy := rng.Intn(3), rng.Intn(3)
			dx, dy := rng.Intn(3), rng.Intn(3)
			from, to := m.Bridge(string(rune('a'+i)), sx, sy, dx, dy, 2)
			eps = append(eps, &endpoints{from: from, to: to})
		}
		const n = 15
		for cycle := 0; cycle < 3000; cycle++ {
			done := true
			for _, ep := range eps {
				if ep.sent < n && ep.from.CanAccept() && rng.Intn(2) == 0 {
					ep.from.Send(channel.Data(isa.Word(ep.sent)))
					ep.sent++
				}
				if tok, ok := ep.to.Peek(); ok {
					ep.got = append(ep.got, tok.Data)
					ep.to.Deq()
				}
				if len(ep.got) < n {
					done = false
				}
			}
			tickAll(m)
			if done {
				break
			}
		}
		for _, ep := range eps {
			if len(ep.got) != n {
				return false
			}
			for i, v := range ep.got {
				if v != isa.Word(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSameNodeFlow(t *testing.T) {
	m := New("mesh", DefaultConfig())
	from, to := m.Bridge("loop", 1, 1, 1, 1, 2)
	from.Send(channel.Data(7))
	from.Tick()
	for i := 0; i < 10; i++ {
		tickAll(m)
	}
	tok, ok := to.Peek()
	if !ok || tok.Data != 7 {
		t.Fatalf("same-node delivery failed: %v %v", tok, ok)
	}
}

func TestBadNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := New("mesh", Config{Width: 2, Height: 2, BufferDepth: 1})
	m.Bridge("bad", 0, 0, 5, 5, 2)
}

// TestMergeOverMesh runs the paper's merge kernel with every connection
// routed over the NoC and checks the output is unchanged (the
// latency-insensitivity property) while cycles increase.
func TestMergeOverMesh(t *testing.T) {
	left := []isa.Word{1, 3, 5, 7}
	right := []isa.Word{2, 4, 6, 8}

	runDirect := func() ([]isa.Word, int64) {
		f := fabric.New(fabric.DefaultConfig())
		a := fabric.NewWordSource("a", left, true)
		b := fabric.NewWordSource("b", right, true)
		mg, err := pe.New("m", isa.DefaultConfig(), pe.MergeProgram())
		if err != nil {
			t.Fatal(err)
		}
		snk := fabric.NewSink("snk")
		f.Add(a)
		f.Add(b)
		f.Add(mg)
		f.Add(snk)
		f.Wire(a, 0, mg, 0)
		f.Wire(b, 0, mg, 1)
		f.Wire(mg, 0, snk, 0)
		res, err := f.Run(100000)
		if err != nil {
			t.Fatal(err)
		}
		return snk.Words(), res.Cycles
	}

	runMesh := func() ([]isa.Word, int64) {
		f := fabric.New(fabric.DefaultConfig())
		mesh := New("mesh", Config{Width: 3, Height: 3, BufferDepth: 2})
		a := fabric.NewWordSource("a", left, true)
		b := fabric.NewWordSource("b", right, true)
		mg, err := pe.New("m", isa.DefaultConfig(), pe.MergeProgram())
		if err != nil {
			t.Fatal(err)
		}
		snk := fabric.NewSink("snk")
		f.Add(mesh)
		f.Add(a)
		f.Add(b)
		f.Add(mg)
		f.Add(snk)
		// Sources at two corners, merge in the middle, sink at the
		// third corner — everything over the mesh.
		mesh.WireOver(f, "a->m", a, 0, 0, 0, mg, 0, 1, 1, 4)
		mesh.WireOver(f, "b->m", b, 0, 2, 0, mg, 1, 1, 1, 4)
		mesh.WireOver(f, "m->snk", mg, 0, 1, 1, snk, 0, 2, 2, 4)
		res, err := f.Run(100000)
		if err != nil {
			t.Fatal(err)
		}
		return snk.Words(), res.Cycles
	}

	wantOut, directCycles := runDirect()
	gotOut, meshCycles := runMesh()
	if len(gotOut) != len(wantOut) {
		t.Fatalf("mesh output %v, direct %v", gotOut, wantOut)
	}
	for i := range wantOut {
		if gotOut[i] != wantOut[i] {
			t.Fatalf("mesh output %v, direct %v", gotOut, wantOut)
		}
	}
	if meshCycles <= directCycles {
		t.Errorf("mesh (%d cycles) not slower than direct links (%d)", meshCycles, directCycles)
	}
	t.Logf("direct=%d cycles, mesh=%d cycles", directCycles, meshCycles)
}
