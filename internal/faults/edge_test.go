package faults

// Property test for BeginCycle's edge-driven cursor: walking the sites
// only where some stall or freeze window starts or ends must give, on
// every cycle, the decisions a from-scratch covers() evaluation gives —
// across a Rearm in the middle of a run, a jump back in time, and a
// snapshot restore into a freshly attached injector.

import (
	"fmt"
	"math/rand"
	"testing"

	"tia/internal/fabric"
	"tia/internal/isa"
	"tia/internal/snapshot"
)

// multiSiteFabric has three independent src -> snk lines, so a plan
// draws windows for several channel and element sites.
func multiSiteFabric() *fabric.Fabric {
	f := fabric.New(fabric.DefaultConfig())
	for i := 0; i < 3; i++ {
		src := fabric.NewWordSource(fmt.Sprintf("src%d", i), []isa.Word{1, 2}, true)
		snk := fabric.NewSink(fmt.Sprintf("snk%d", i))
		f.Add(src)
		f.Add(snk)
		f.Wire(src, 0, snk, 0)
	}
	return f
}

// randomWindowPlan draws a stall-and-freeze plan. Freezes stay planned
// in every draw, so any two plans may Rearm one another.
func randomWindowPlan(r *rand.Rand) Plan {
	from := int64(r.Intn(30))
	return Plan{
		Seed:      r.Int63(),
		Stalls:    r.Intn(5),
		StallMax:  1 + r.Intn(20),
		Freezes:   1 + r.Intn(4),
		FreezeMax: 1 + r.Intn(20),
		From:      from,
		To:        from + 1 + int64(r.Intn(100)),
	}
}

// horizon is a cycle past the end of every window the plan can draw.
func horizon(p Plan) int64 {
	return p.To + int64(max(p.StallMax, p.FreezeMax)) + 2
}

// cursorCheck drives one injector and keeps the FreezeCycles total a
// from-scratch evaluation predicts.
type cursorCheck struct {
	t      *testing.T
	inj    *Injector
	frozen int64
}

// step calls BeginCycle(cycle) and compares every cached decision with
// covers() evaluated from a fresh cursor.
func (c *cursorCheck) step(cycle int64) {
	c.t.Helper()
	c.inj.BeginCycle(cycle)
	for _, s := range c.inj.chans {
		idx := 0
		if want := covers(s.stalls, &idx, cycle); s.stalledNow != want {
			c.t.Fatalf("cycle %d: %s stalled %v, want %v (windows %v)", cycle, s.ch.Name(), s.stalledNow, want, s.stalls)
		}
	}
	active := false
	for i, es := range c.inj.elemList {
		idx := 0
		want := covers(es.freezes, &idx, cycle)
		if es.frozenNow != want {
			c.t.Fatalf("cycle %d: element site %d frozen %v, want %v (windows %v)", cycle, i, es.frozenNow, want, es.freezes)
		}
		if want {
			active = true
			c.frozen++
		}
	}
	if c.inj.Active() != active {
		c.t.Fatalf("cycle %d: Active %v, want %v", cycle, c.inj.Active(), active)
	}
	if got := c.inj.Counts().FreezeCycles; got != c.frozen {
		c.t.Fatalf("cycle %d: FreezeCycles %d, want %d", cycle, got, c.frozen)
	}
}

func (c *cursorCheck) walk(from, to int64) {
	c.t.Helper()
	for cycle := from; cycle < to; cycle++ {
		c.step(cycle)
	}
}

func TestEdgeCursorMatchesCovers(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		plan := randomWindowPlan(r)
		inj, err := Attach(multiSiteFabric(), plan)
		if err != nil {
			t.Fatal(err)
		}
		c := &cursorCheck{t: t, inj: inj}
		end := horizon(plan)

		// A run cut short by Rearm, then the next run from cycle 0.
		c.walk(0, r.Int63n(end))
		plan = randomWindowPlan(r)
		if err := inj.Rearm(plan); err != nil {
			t.Fatal(err)
		}
		c.frozen = 0
		end = horizon(plan)
		c.walk(0, end)

		// A jump back in time without Rearm: the cursor rewinds.
		back := r.Int63n(end)
		c.walk(back, end)

		// A snapshot part-way through a run, restored into a freshly
		// attached injector that carries on from the same cycle.
		if err := inj.Rearm(plan); err != nil {
			t.Fatal(err)
		}
		c.frozen = 0
		at := r.Int63n(end)
		c.walk(0, at)
		var e snapshot.Encoder
		inj.SnapshotState(&e)
		restored, err := Attach(multiSiteFabric(), plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.RestoreState(snapshot.NewDecoder(e.Data())); err != nil {
			t.Fatal(err)
		}
		c.inj = restored
		c.walk(at, end)
	}
}
