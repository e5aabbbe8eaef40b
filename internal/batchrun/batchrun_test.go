package batchrun

import (
	"context"
	"testing"

	"tia/internal/channel"
	"tia/internal/fabric"
	"tia/internal/faults"
	"tia/internal/isa"
)

var lineWords = []isa.Word{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}

// buildLine returns a src -> sink fabric, the toy topology the batch
// tests drive under per-run fault plans (seeds change dynamic behavior
// per run, so each re-armed lane starts from a different run's state).
func buildLine() (*fabric.Fabric, *fabric.Sink) {
	f := fabric.New(fabric.DefaultConfig())
	src := fabric.NewWordSource("src", lineWords, true)
	snk := fabric.NewSink("snk")
	f.Add(src)
	f.Add(snk)
	f.WireOpt(src, 0, snk, 0, 4, 1)
	return f, snk
}

func planFor(run int) faults.Plan {
	return faults.Plan{
		Seed:       7000 + int64(run),
		JitterRate: 0.4, JitterMax: 5,
		DropRate: 0.08, DupRate: 0.08,
	}
}

type outcome struct {
	res  fabric.Result
	err  error
	toks []channel.Token
	cnt  faults.Counts
}

// serialOutcomes runs each plan on a fresh fabric + fresh Attach — the
// oracle the batch must reproduce bit for bit.
func serialOutcomes(t *testing.T, runs int, budget int64) []outcome {
	t.Helper()
	outs := make([]outcome, runs)
	for r := 0; r < runs; r++ {
		f, snk := buildLine()
		inj, err := faults.Attach(f, planFor(r))
		if err != nil {
			t.Fatalf("run %d: Attach: %v", r, err)
		}
		res, err := f.Run(budget)
		outs[r] = outcome{res: res, err: err, toks: snk.Tokens(), cnt: inj.Counts()}
	}
	return outs
}

// batchLane is the test payload: the lane's sink and injector.
type batchLane struct {
	snk *fabric.Sink
	inj *faults.Injector
}

func newLineBatch(t *testing.T, lanes int, budget int64) *Batch {
	t.Helper()
	b, err := New(Config{Lanes: lanes, MaxCycles: budget},
		func(lane int) (*fabric.Fabric, any, error) {
			f, snk := buildLine()
			return f, &batchLane{snk: snk}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func batchOutcomes(t *testing.T, b *Batch, runs int) []outcome {
	t.Helper()
	outs := make([]outcome, runs)
	arm := func(l *Lane, run int) error {
		bl := l.Payload.(*batchLane)
		if bl.inj == nil {
			inj, err := faults.Attach(l.Fabric, planFor(run))
			if err != nil {
				return err
			}
			bl.inj = inj
			return nil
		}
		l.Fabric.Reset()
		return bl.inj.Rearm(planFor(run))
	}
	done := func(l *Lane, run int, res fabric.Result, err error) error {
		bl := l.Payload.(*batchLane)
		outs[run] = outcome{res: res, err: err, toks: append([]channel.Token(nil), bl.snk.Tokens()...), cnt: bl.inj.Counts()}
		return nil
	}
	if err := b.Run(context.Background(), runs, arm, done); err != nil {
		t.Fatal(err)
	}
	return outs
}

func diffOutcomes(t *testing.T, got, want []outcome, label string) {
	t.Helper()
	for r := range want {
		g, w := got[r], want[r]
		if (g.err == nil) != (w.err == nil) || (g.err != nil && g.err.Error() != w.err.Error()) {
			t.Errorf("%s: run %d: err %v, want %v", label, r, g.err, w.err)
		}
		if g.res != w.res {
			t.Errorf("%s: run %d: result %+v, want %+v", label, r, g.res, w.res)
		}
		if g.cnt != w.cnt {
			t.Errorf("%s: run %d: counts %+v, want %+v", label, r, g.cnt, w.cnt)
		}
		if len(g.toks) != len(w.toks) {
			t.Errorf("%s: run %d: %d tokens, want %d", label, r, len(g.toks), len(w.toks))
			continue
		}
		for i := range w.toks {
			if g.toks[i] != w.toks[i] {
				t.Errorf("%s: run %d: token %d = %+v, want %+v", label, r, i, g.toks[i], w.toks[i])
				break
			}
		}
	}
}

// TestBatchMatchesSerial: execution over reused lanes must reproduce
// fresh-instance serial runs exactly — results, errors (including
// deadlocks from dropped EODs), tokens and injection counts — with more
// runs than lanes so every lane is re-armed after a different run.
func TestBatchMatchesSerial(t *testing.T) {
	const runs, budget = 13, 10_000
	want := serialOutcomes(t, runs, budget)
	b := newLineBatch(t, 4, budget)
	got := batchOutcomes(t, b, runs)
	diffOutcomes(t, got, want, "batch")

	// Batch reuse: a second campaign over the same batch must still
	// match (lanes re-arm from whatever state the last campaign left).
	again := batchOutcomes(t, b, runs)
	diffOutcomes(t, again, want, "batch reuse")
}

// TestBatchBookkeeping: every run is armed exactly once and retired
// exactly once, lanes stay within range, and a batch wider than the run
// count leaves the extra lanes idle.
func TestBatchBookkeeping(t *testing.T) {
	const runs, lanes = 5, 8
	b := newLineBatch(t, lanes, 10_000)
	armed := make([]int, runs)
	retired := make([]int, runs)
	arm := func(l *Lane, run int) error {
		if l.ID < 0 || l.ID >= lanes {
			t.Errorf("arm: lane ID %d out of range", l.ID)
		}
		armed[run]++
		bl := l.Payload.(*batchLane)
		if bl.inj == nil {
			inj, err := faults.Attach(l.Fabric, planFor(run))
			if err != nil {
				return err
			}
			bl.inj = inj
			return nil
		}
		l.Fabric.Reset()
		return bl.inj.Rearm(planFor(run))
	}
	done := func(l *Lane, run int, res fabric.Result, err error) error {
		if l.Run() != run {
			t.Errorf("done: lane reports run %d, callback got %d", l.Run(), run)
		}
		retired[run]++
		return nil
	}
	if err := b.Run(context.Background(), runs, arm, done); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < runs; r++ {
		if armed[r] != 1 || retired[r] != 1 {
			t.Errorf("run %d: armed %d times, retired %d times, want 1/1", r, armed[r], retired[r])
		}
	}
	if got := b.Lanes(); got != lanes {
		t.Errorf("Lanes() = %d, want %d", got, lanes)
	}
}

// TestBatchStepAllocationFree extends the simulator's allocation gates
// to the batched steady-state step path: once every lane has run a
// campaign (buffers grown, injector attached, compiled state warm), an
// entire further campaign — arm via Reset+Rearm, stepping, the done
// callback — performs zero heap allocations. This is the pooled-lane
// contract: batching adds no per-cycle or per-run garbage.
func TestBatchStepAllocationFree(t *testing.T) {
	const runs, budget = 9, 10_000
	// Jitter and flips only: every run completes. Drops would deadlock
	// some runs, whose end-of-run diagnosis legitimately builds an error
	// string (serial pays the same); the gate is on the step path.
	gatePlan := func(run int) faults.Plan {
		return faults.Plan{Seed: 7000 + int64(run), JitterRate: 0.4, JitterMax: 5, FlipRate: 0.1}
	}
	b := newLineBatch(t, 3, budget)
	arm := func(l *Lane, run int) error {
		bl := l.Payload.(*batchLane)
		if bl.inj == nil {
			inj, err := faults.Attach(l.Fabric, gatePlan(run))
			if err != nil {
				return err
			}
			bl.inj = inj
			return nil
		}
		l.Fabric.Reset()
		return bl.inj.Rearm(gatePlan(run))
	}
	done := func(l *Lane, run int, res fabric.Result, err error) error { return nil }
	campaign := func() {
		if err := b.Run(context.Background(), runs, arm, done); err != nil {
			t.Fatal(err)
		}
	}
	campaign() // warm: attach injectors, grow lane buffers to steady state
	avg := testing.AllocsPerRun(5, campaign)
	if avg != 0 {
		t.Errorf("steady-state batched campaign: %.1f allocs/run, want 0", avg)
	}
}
