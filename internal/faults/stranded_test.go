package faults

// A dropped token can strand its partner: the merge below loses input
// a's tail, so b's tokens sit in their FIFO behind a compare that never
// fires. Nothing works, nothing is staged or in flight, and the injector
// is idle — a fixed point. A quiescence rule that waited for every
// channel to drain kept such a run alive until its cycle budget
// (ErrTimeout); the stepper must instead report ErrDeadlock within
// QuiescenceWindow cycles of the fixed point, identically under every
// wake policy and dispatch, and on a batched lane.

import (
	"context"
	"errors"
	"testing"

	"tia/internal/batchrun"
	"tia/internal/channel"
	"tia/internal/fabric"
	"tia/internal/isa"
	"tia/internal/pe"
)

// strandBudget is far beyond the fixed point, so a run that reaches it
// did not detect the deadlock.
const strandBudget = 100_000

// strandPlan drops every token on the merge's a input from cycle 6 on,
// after a's first tokens have passed but before its EOD.
var strandPlan = Plan{Seed: 1, Sites: "a.out0", DropRate: 1, From: 6}

// buildStrandMerge merges two sorted streams into one sink over
// one-cycle wires.
func buildStrandMerge(t testing.TB) (*fabric.Fabric, *fabric.Sink) {
	t.Helper()
	f := fabric.New(fabric.DefaultConfig())
	a := fabric.NewWordSource("a", []isa.Word{1, 4, 7}, true)
	b := fabric.NewWordSource("b", []isa.Word{2, 3, 5, 6, 8, 9}, true)
	m, err := pe.New("m", isa.DefaultConfig(), pe.MergeProgram())
	if err != nil {
		t.Fatal(err)
	}
	snk := fabric.NewSink("snk")
	f.Add(a)
	f.Add(b)
	f.Add(m)
	f.Add(snk)
	f.WireOpt(a, 0, m, 0, 2, 1)
	f.WireOpt(b, 0, m, 1, 2, 1)
	f.WireOpt(m, 0, snk, 0, 2, 1)
	return f, snk
}

// tokenMotion sums every channel's send, delivery and consume counts:
// it changes in exactly the cycles in which a token moves.
func tokenMotion(f *fabric.Fabric) int64 {
	var n int64
	for _, ch := range f.Channels() {
		st := ch.Stats()
		n += st.Sent + st.Delivered + st.Consumed
	}
	return n
}

// strandRun is one observed run: its outcome, the cycle after the last
// token motion (the fixed point) and the sink's tokens.
type strandRun struct {
	res   fabric.Result
	err   string
	fixed int64
	toks  []channel.Token
}

func TestDroppedPartnerDeadlocksAtFixedPoint(t *testing.T) {
	golden, gsnk := buildStrandMerge(t)
	if _, err := golden.Run(strandBudget); err != nil {
		t.Fatal(err)
	}
	window := int64(golden.Config().QuiescenceWindow)

	run := func(dense, interpreted bool) strandRun {
		f, snk := buildStrandMerge(t)
		f.SetDenseStepping(dense)
		f.SetInterpreted(interpreted)
		inj, err := Attach(f, strandPlan)
		if err != nil {
			t.Fatal(err)
		}
		s, err := f.BeginRun(context.Background(), strandBudget)
		if err != nil {
			t.Fatal(err)
		}
		var r strandRun
		for motion := tokenMotion(f); !s.Step(); {
			if m := tokenMotion(f); m != motion {
				motion, r.fixed = m, f.Cycle()
			}
		}
		res, rerr := s.Result()
		r.res, r.toks = res, snk.Tokens()
		if rerr != nil {
			r.err = rerr.Error()
		}
		if !errors.Is(rerr, fabric.ErrDeadlock) {
			t.Fatalf("dense=%v interpreted=%v: %+v, %v; want ErrDeadlock", dense, interpreted, res, rerr)
		}
		if inj.Counts().Drops == 0 {
			t.Fatal("the plan dropped nothing")
		}
		return r
	}

	ref := run(false, true)
	if d := ref.res.Cycles - ref.fixed; d < 1 || d > window {
		t.Errorf("deadlock reported at cycle %d, %d cycles after the fixed point at %d; want within %d", ref.res.Cycles, d, ref.fixed, window)
	}
	want := gsnk.Tokens()
	if len(ref.toks) == 0 || len(ref.toks) >= len(want) || !tokensEqual(ref.toks, want[:len(ref.toks)]) {
		t.Errorf("sink holds %v; want a non-empty strict prefix of %v", ref.toks, want)
	}
	for _, dense := range []bool{false, true} {
		for _, interpreted := range []bool{false, true} {
			got := run(dense, interpreted)
			if got.res != ref.res || got.err != ref.err || got.fixed != ref.fixed || !tokensEqual(got.toks, ref.toks) {
				t.Errorf("dense=%v interpreted=%v: %+v; reference %+v", dense, interpreted, got, ref)
			}
		}
	}

	// Two lanes, three runs: the third is armed by Reset + Rearm on a
	// lane that already ran one.
	type laneState struct {
		snk *fabric.Sink
		inj *Injector
	}
	b, err := batchrun.New(batchrun.Config{Lanes: 2, MaxCycles: strandBudget}, func(int) (*fabric.Fabric, any, error) {
		f, snk := buildStrandMerge(t)
		return f, &laneState{snk: snk}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	arm := func(l *batchrun.Lane, _ int) error {
		ls := l.Payload.(*laneState)
		if ls.inj == nil {
			ls.inj, err = Attach(l.Fabric, strandPlan)
			return err
		}
		l.Fabric.Reset()
		return ls.inj.Rearm(strandPlan)
	}
	runs := 0
	done := func(l *batchrun.Lane, run int, res fabric.Result, err error) error {
		runs++
		toks := l.Payload.(*laneState).snk.Tokens()
		if err == nil || err.Error() != ref.err || res != ref.res || !tokensEqual(toks, ref.toks) {
			t.Errorf("batched run %d: %+v, %v, %v; serial %+v", run, res, err, toks, ref)
		}
		return nil
	}
	if err := b.Run(context.Background(), 3, arm, done); err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Errorf("batch retired %d runs, want 3", runs)
	}
}

// TestFreezeWindowIsNotDeadlock: a sink frozen while tokens wait in its
// FIFO leaves a cycle with no work and nothing in flight, but an open
// freeze window is a wait, not a fixed point. The run completes with
// the fault-free output under every wake policy and dispatch.
func TestFreezeWindowIsNotDeadlock(t *testing.T) {
	words := []isa.Word{3, 1, 4, 1, 5, 9, 2, 6}
	base, baseSnk := buildLine(words, true, 0, 4)
	if _, err := base.Run(strandBudget); err != nil {
		t.Fatal(err)
	}
	window := int64(base.Config().QuiescenceWindow)
	plan := Plan{Seed: 2, Sites: "snk", Freezes: 1, FreezeMax: 40, From: 2, To: 3}
	for _, dense := range []bool{false, true} {
		for _, interpreted := range []bool{false, true} {
			f, snk := buildLine(words, true, 0, 4)
			f.SetDenseStepping(dense)
			f.SetInterpreted(interpreted)
			inj, err := Attach(f, plan)
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(strandBudget)
			if err != nil || !res.Completed || !tokensEqual(snk.Tokens(), baseSnk.Tokens()) {
				t.Fatalf("dense=%v interpreted=%v: %+v, %v, %v; want completion with %v", dense, interpreted, res, err, snk.Tokens(), baseSnk.Tokens())
			}
			if fc := inj.Counts().FreezeCycles; fc < 2*window {
				t.Fatalf("freeze lasted %d cycles; the test needs one longer than %d", fc, 2*window)
			}
		}
	}
}
