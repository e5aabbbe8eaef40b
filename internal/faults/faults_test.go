package faults

import (
	"errors"
	"math/bits"
	"testing"

	"tia/internal/channel"
	"tia/internal/fabric"
	"tia/internal/isa"
)

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{FlipRate: -0.1},
		{DropRate: 1.5},
		{JitterRate: 0.5}, // JitterMax missing
		{Stalls: 1},       // StallMax missing
		{Freezes: 2},      // FreezeMax missing
		{Stalls: -1},
		{From: 10, To: 10},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, p)
		}
	}
	good := []Plan{
		{},
		{Seed: 7},
		{JitterRate: 1, JitterMax: 3, Stalls: 2, StallMax: 5, Freezes: 1, FreezeMax: 4},
		{FlipRate: 0.5, DropRate: 0.5, DupRate: 0.5, From: 5, To: 50},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("good plan %d rejected: %v", i, err)
		}
	}
}

func TestDrawWindowsSortedAndBounded(t *testing.T) {
	r, _, _ := siteRand(42, "test")
	ws := drawWindows(r, 20, 7, 10, 100)
	if len(ws) != 20 {
		t.Fatalf("drew %d windows, want 20", len(ws))
	}
	for i, w := range ws {
		if w.start < 10 || w.start >= 100 {
			t.Errorf("window %d start %d outside [10,100)", i, w.start)
		}
		if d := w.end - w.start; d < 1 || d > 7 {
			t.Errorf("window %d duration %d outside [1,7]", i, d)
		}
		if i > 0 && ws[i-1].start > w.start {
			t.Errorf("windows unsorted at %d", i)
		}
	}
	if ws := drawWindows(r, 0, 7, 0, 100); ws != nil {
		t.Errorf("n=0 drew %d windows", len(ws))
	}
	if ws := drawWindows(r, 3, 7, 50, 50); ws != nil {
		t.Errorf("empty span drew %d windows", len(ws))
	}
}

func TestCoversMonotonic(t *testing.T) {
	ws := []window{{2, 4}, {3, 9}, {20, 21}}
	idx := 0
	want := map[int64]bool{0: false, 1: false, 2: true, 3: true, 8: true, 9: false, 19: false, 20: true, 21: false, 30: false}
	for cyc := int64(0); cyc < 32; cyc++ {
		got := covers(ws, &idx, cyc)
		if w, ok := want[cyc]; ok && got != w {
			t.Errorf("covers(%d) = %v, want %v", cyc, got, w)
		}
	}
}

func TestSiteRandDeterministic(t *testing.T) {
	a, _, _ := siteRand(99, "ch:x")
	b, _, _ := siteRand(99, "ch:x")
	c, _, _ := siteRand(99, "ch:y")
	same, diff := true, false
	for i := 0; i < 16; i++ {
		va, vb, vc := a.Int63(), b.Int63(), c.Int63()
		if va != vb {
			same = false
		}
		if va != vc {
			diff = true
		}
	}
	if !same {
		t.Error("same seed+site produced different sequences")
	}
	if !diff {
		t.Error("different sites produced identical sequences")
	}
}

// buildLine returns a src -> sink fabric. With eod the sink waits for the
// EOD marker; otherwise it counts want tokens.
func buildLine(words []isa.Word, eod bool, want int, capacity int) (*fabric.Fabric, *fabric.Sink) {
	f := fabric.New(fabric.DefaultConfig())
	src := fabric.NewWordSource("src", words, eod)
	var snk *fabric.Sink
	if eod {
		snk = fabric.NewSink("snk")
	} else {
		snk = fabric.NewCountingSink("snk", want)
	}
	f.Add(src)
	f.Add(snk)
	f.WireOpt(src, 0, snk, 0, capacity, 1)
	return f, snk
}

func runLine(t *testing.T, plan *Plan, dense bool) ([]channel.Token, int64, Counts, error) {
	t.Helper()
	words := []isa.Word{3, 1, 4, 1, 5, 9, 2, 6}
	f, snk := buildLine(words, true, 0, 4)
	f.SetDenseStepping(dense)
	var inj *Injector
	if plan != nil {
		var err error
		inj, err = Attach(f, *plan)
		if err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}
	res, err := f.Run(10_000)
	var cnt Counts
	if inj != nil {
		cnt = inj.Counts()
	}
	return snk.Tokens(), res.Cycles, cnt, err
}

func tokensEqual(a, b []channel.Token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestZeroRatePlanIsNoOp(t *testing.T) {
	for _, dense := range []bool{true, false} {
		base, baseCycles, _, err := runLine(t, nil, dense)
		if err != nil {
			t.Fatalf("dense=%v: baseline: %v", dense, err)
		}
		plan := &Plan{Seed: 1}
		got, cycles, cnt, err := runLine(t, plan, dense)
		if err != nil {
			t.Fatalf("dense=%v: wrapped: %v", dense, err)
		}
		if !tokensEqual(got, base) {
			t.Errorf("dense=%v: zero-rate plan changed output: %v vs %v", dense, got, base)
		}
		if cycles != baseCycles {
			t.Errorf("dense=%v: zero-rate plan changed cycles: %d vs %d", dense, cycles, baseCycles)
		}
		if cnt.Total() != 0 {
			t.Errorf("dense=%v: zero-rate plan injected %+v", dense, cnt)
		}
	}
}

func TestJitterChangesTimingNotResults(t *testing.T) {
	base, baseCycles, _, err := runLine(t, nil, false)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	plan := &Plan{Seed: 2, JitterRate: 1, JitterMax: 4}
	got, cycles, cnt, err := runLine(t, plan, false)
	if err != nil {
		t.Fatalf("jittered: %v", err)
	}
	if !tokensEqual(got, base) {
		t.Errorf("jitter changed output: %v vs %v", got, base)
	}
	if cycles <= baseCycles {
		t.Errorf("jitter did not slow the run: %d <= %d", cycles, baseCycles)
	}
	if cnt.Jittered == 0 {
		t.Error("no jitter events counted")
	}
}

func TestStallAndFreezePreserveResults(t *testing.T) {
	base, baseCycles, _, err := runLine(t, nil, false)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	plan := &Plan{Seed: 3, Stalls: 3, StallMax: 9, Freezes: 2, FreezeMax: 9, To: baseCycles + 20}
	got, cycles, cnt, err := runLine(t, plan, false)
	if err != nil {
		t.Fatalf("stalled: %v", err)
	}
	if !tokensEqual(got, base) {
		t.Errorf("stall/freeze changed output: %v vs %v", got, base)
	}
	if cnt.FreezeCycles == 0 {
		t.Error("no freeze cycles counted")
	}
	if cycles < baseCycles {
		t.Errorf("perturbed run finished early: %d < %d", cycles, baseCycles)
	}
}

func TestDropCausesHang(t *testing.T) {
	plan := &Plan{Seed: 4, DropRate: 1}
	_, _, cnt, err := runLine(t, plan, false)
	if !errors.Is(err, fabric.ErrDeadlock) {
		t.Fatalf("dropping every token should starve the sink, got %v", err)
	}
	if cnt.Drops == 0 {
		t.Error("no drops counted")
	}
}

func TestDupDeliversExtraCopies(t *testing.T) {
	words := []isa.Word{7, 8, 9}
	f, snk := buildLine(words, false, 6, 16)
	plan := Plan{Seed: 5, DupRate: 1}
	inj, err := Attach(f, plan)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if _, err := f.Run(10_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := snk.Words()
	want := []isa.Word{7, 7, 8, 8, 9, 9}
	if len(got) != len(want) {
		t.Fatalf("sink got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sink got %v, want %v", got, want)
		}
	}
	cnt := inj.Counts()
	if cnt.Dups != 3 || cnt.DupsElided != 0 {
		t.Errorf("counts = %+v, want 3 dups, 0 elided", cnt)
	}
}

func TestFlipFlipsExactlyOneBit(t *testing.T) {
	words := []isa.Word{0, 0, 0, 0}
	f, snk := buildLine(words, false, 4, 8)
	plan := Plan{Seed: 6, FlipRate: 1}
	inj, err := Attach(f, plan)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if _, err := f.Run(10_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, w := range snk.Words() {
		if bits.OnesCount32(uint32(w)) != 1 {
			t.Errorf("word %d = %#x, want exactly one flipped bit", i, w)
		}
	}
	if got := inj.Counts().Flips; got != 4 {
		t.Errorf("Flips = %d, want 4", got)
	}
}

func TestSiteFilterRestrictsInjection(t *testing.T) {
	plan := &Plan{Seed: 7, FlipRate: 1, Sites: "no-such-site"}
	base, _, _, err := runLine(t, nil, false)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	got, _, cnt, err := runLine(t, plan, false)
	if err != nil {
		t.Fatalf("filtered: %v", err)
	}
	if !tokensEqual(got, base) {
		t.Errorf("filtered plan changed output")
	}
	if cnt.Total() != 0 {
		t.Errorf("filtered plan injected %+v", cnt)
	}
}

// The core invariant: under one plan, dense and event-driven stepping
// produce bit-identical outputs, cycle counts, and injection counts.
func TestFaultsIdenticalAcrossSteppers(t *testing.T) {
	plans := []Plan{
		{Seed: 11, JitterRate: 0.5, JitterMax: 3},
		{Seed: 12, Stalls: 4, StallMax: 7, Freezes: 2, FreezeMax: 5, To: 200},
		{Seed: 13, FlipRate: 0.4, DropRate: 0.1, DupRate: 0.3},
		{Seed: 14, JitterRate: 0.3, JitterMax: 2, Stalls: 2, StallMax: 5, FlipRate: 0.2, DupRate: 0.2, To: 300},
	}
	for pi, plan := range plans {
		dTok, dCyc, dCnt, dErr := runLine(t, &plan, true)
		eTok, eCyc, eCnt, eErr := runLine(t, &plan, false)
		if (dErr == nil) != (eErr == nil) {
			t.Fatalf("plan %d: errors diverge: dense=%v event=%v", pi, dErr, eErr)
		}
		if !tokensEqual(dTok, eTok) {
			t.Errorf("plan %d: outputs diverge:\ndense: %v\nevent: %v", pi, dTok, eTok)
		}
		if dCyc != eCyc {
			t.Errorf("plan %d: cycles diverge: dense=%d event=%d", pi, dCyc, eCyc)
		}
		if dCnt != eCnt {
			t.Errorf("plan %d: counts diverge:\ndense: %+v\nevent: %+v", pi, dCnt, eCnt)
		}
	}
}
