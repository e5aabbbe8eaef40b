package gen

// Generative differential testing: every generated netlist must produce
// bit-identical results on all three stepping backends (dense, event,
// closure-compiled), and interrupting any completing run with
// a mid-run snapshot/restore into a freshly parsed instance must be
// unobservable. FuzzSimulate drives the same harness from the fuzzer
// (make fuzz-smoke / the nightly CI job); TestGeneratedDifferential
// pins a deterministic seed sweep into the ordinary test suite.

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"tia/internal/asm"
	"tia/internal/batchrun"
	"tia/internal/channel"
	"tia/internal/fabric"
	"tia/internal/isa"
	"tia/internal/pcpe"
)

// fuzzMaxCycles bounds every differential run; generated graphs are
// small (tens of tokens), so a completing run needs far fewer.
const fuzzMaxCycles = 20000

// backend is one stepping configuration under test.
type backend struct {
	label    string
	dense    bool
	compiled bool
}

var backends = []backend{
	{label: "event"},
	{label: "dense", dense: true},
	{label: "compiled", compiled: true},
}

// observation is everything a client can see from one run.
type observation struct {
	Cycles    int64
	Completed bool
	Err       string
	Sinks     map[string][]channel.Token
}

func parse(t *testing.T, src string) *asm.Netlist {
	t.Helper()
	nl, err := asm.ParseNetlist(src, isa.DefaultConfig(), pcpe.DefaultConfig())
	if err != nil {
		t.Fatalf("netlist stopped parsing between backends: %v", err)
	}
	return nl
}

func observe(nl *asm.Netlist, cycles int64, completed bool, err error) observation {
	obs := observation{Cycles: cycles, Completed: completed, Sinks: map[string][]channel.Token{}}
	if err != nil {
		obs.Err = err.Error()
	}
	for name, sink := range nl.Sinks {
		obs.Sinks[name] = sink.Tokens()
	}
	return obs
}

func runBackend(t *testing.T, src string, b backend) observation {
	t.Helper()
	nl := parse(t, src)
	nl.Fabric.SetDenseStepping(b.dense)
	nl.Fabric.SetCompiled(b.compiled)
	res, err := nl.Fabric.Run(fuzzMaxCycles)
	return observe(nl, res.Cycles, res.Completed, err)
}

// differential runs one netlist source through every backend plus the
// snapshot/restore arm and fails the test on any observable divergence.
// Invalid sources (mutation mode) must be rejected with a typed error —
// any panic escapes to the fuzzer as a crash.
func differential(t *testing.T, src string) {
	t.Helper()
	if _, err := asm.ParseNetlist(src, isa.DefaultConfig(), pcpe.DefaultConfig()); err != nil {
		// Rejected inputs are fine; the contract is "typed error, no
		// panic". Make sure rejection is deterministic, too.
		if _, err2 := asm.ParseNetlist(src, isa.DefaultConfig(), pcpe.DefaultConfig()); err2 == nil || err.Error() != err2.Error() {
			t.Fatalf("nondeterministic rejection:\n first: %v\nsecond: %v", err, err2)
		}
		return
	}

	ref := runBackend(t, src, backends[0])
	for _, b := range backends[1:] {
		got := runBackend(t, src, b)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("backend divergence (%s vs %s):\n%s: %+v\n%s: %+v\nnetlist:\n%s",
				backends[0].label, b.label, backends[0].label, ref, b.label, got, src)
		}
	}

	// Snapshot arm: checkpoint the event backend mid-run, restore the
	// snapshot into a freshly parsed instance, finish there, compare.
	// Sinkless fabrics complete by quiescence; the snapshot carries the
	// idle streak, so their completion cycle survives a restore too.
	if !ref.Completed || ref.Cycles < 2 {
		return
	}
	mid := ref.Cycles / 2
	b := parse(t, src)
	fp := b.Fingerprint()
	var snap []byte
	b.Fabric.SetCheckpoint(mid, func(cycle int64) error {
		if snap != nil {
			return nil
		}
		s, err := b.Fabric.Snapshot(fp)
		if err != nil {
			return err
		}
		snap = s
		return nil
	})
	resB, errB := b.Fabric.Run(fuzzMaxCycles)
	if got := observe(b, resB.Cycles, resB.Completed, errB); !reflect.DeepEqual(ref, got) {
		t.Fatalf("checkpointing perturbed the run:\nplain: %+v\ncheckpointed: %+v\nnetlist:\n%s", ref, got, src)
	}
	if snap == nil {
		t.Fatalf("no checkpoint fired (run took %d cycles, checkpoint every %d)", resB.Cycles, mid)
	}
	c := parse(t, src)
	if err := c.Fabric.Restore(snap, c.Fingerprint()); err != nil {
		t.Fatalf("restore into a fresh parse: %v", err)
	}
	resC, errC := c.Fabric.Run(fuzzMaxCycles - mid)
	if got := observe(c, resC.Cycles, resC.Completed, errC); !reflect.DeepEqual(ref, got) {
		t.Fatalf("restored run diverged:\nplain: %+v\nrestored: %+v\nnetlist:\n%s", ref, got, src)
	}
}

// batchedArm cross-checks the batched stepper against serial runs over
// heterogeneous generated topologies: K consecutive seeds become K batch
// lanes, each lane a freshly parsed netlist of its own shape, and every
// lane's observation (cycles, completion, error, sink contents) must
// equal a standalone serial run of the same source. Seeds whose source
// fails to parse are skipped — parse rejection is the serial arms' job.
func batchedArm(t *testing.T, seed int64, mutate bool) {
	t.Helper()
	const lanes = 3
	var srcs []string
	var want []observation
	for i := int64(0); i < lanes; i++ {
		src := inputFor(seed+i, mutate)
		if _, err := asm.ParseNetlist(src, isa.DefaultConfig(), pcpe.DefaultConfig()); err != nil {
			continue
		}
		srcs = append(srcs, src)
		want = append(want, runBackend(t, src, backends[0]))
	}
	if len(srcs) == 0 {
		return
	}
	nls := make([]*asm.Netlist, len(srcs))
	b, err := batchrun.New(
		batchrun.Config{Lanes: len(srcs), MaxCycles: fuzzMaxCycles},
		func(lane int) (*fabric.Fabric, any, error) {
			nls[lane] = parse(t, srcs[lane])
			return nls[lane].Fabric, nil, nil
		})
	if err != nil {
		t.Fatalf("batchrun.New: %v", err)
	}
	got := make([]observation, len(srcs))
	err = b.Run(context.Background(), len(srcs),
		func(l *batchrun.Lane, run int) error { return nil },
		func(l *batchrun.Lane, run int, res fabric.Result, err error) error {
			got[l.ID] = observe(nls[l.ID], res.Cycles, res.Completed, err)
			return nil
		})
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}
	for i := range srcs {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("batched lane diverged from serial (seed %d):\nserial:  %+v\nbatched: %+v\nnetlist:\n%s",
				seed+int64(i), want[i], got[i], srcs[i])
		}
	}
}

// inputFor derives the netlist source for one fuzz input.
func inputFor(seed int64, mutate bool) string {
	src := Netlist(Params{Seed: seed})
	if mutate {
		src = Mutate(src, seed+1)
	}
	return src
}

// TestGeneratedDifferential pins a deterministic seed sweep: generated
// netlists complete identically everywhere, and the run must genuinely
// exercise both the completing and the rejected/mutated paths.
func TestGeneratedDifferential(t *testing.T) {
	completed := 0
	for seed := int64(1); seed <= 40; seed++ {
		src := inputFor(seed, false)
		nl, err := asm.ParseNetlist(src, isa.DefaultConfig(), pcpe.DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: generated netlist rejected: %v\n%s", seed, err, src)
		}
		res, err := nl.Fabric.Run(fuzzMaxCycles)
		if err != nil || !res.Completed {
			t.Fatalf("seed %d: generated netlist did not complete (err %v, %+v)\n%s", seed, err, res, src)
		}
		completed++
		differential(t, src)
		differential(t, inputFor(seed, true))
	}
	if completed == 0 {
		t.Fatal("sweep exercised no completing netlists")
	}
}

// TestMutateDeterministic pins that both generator modes are pure
// functions of the seed.
func TestMutateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		if Netlist(Params{Seed: seed}) != Netlist(Params{Seed: seed}) {
			t.Fatalf("Netlist(seed=%d) is not deterministic", seed)
		}
		src := Netlist(Params{Seed: seed})
		if Mutate(src, seed) != Mutate(src, seed) {
			t.Fatalf("Mutate(seed=%d) is not deterministic", seed)
		}
	}
}

// TestGeneratorCoversConstructs checks the seed space actually reaches
// every element family the generator claims to emit.
func TestGeneratorCoversConstructs(t *testing.T) {
	var all strings.Builder
	for seed := int64(0); seed < 200; seed++ {
		all.WriteString(Netlist(Params{Seed: seed}))
	}
	text := all.String()
	for _, construct := range []string{"pe t", "pe d", "pe z", "pe rd", "pcpe q", "scratchpad", "sink", "wire"} {
		if !strings.Contains(text, construct) {
			t.Errorf("200 seeds never generated %q", construct)
		}
	}
}

// FuzzSimulate is the generative differential fuzzer: the fuzzer owns
// the seed, the generator turns it into a netlist (optionally mutated
// into hostile territory), and the harness cross-checks all three
// backends plus snapshot/restore, then the batched stepper against
// serial runs. Run via make fuzz-smoke or the nightly CI job.
func FuzzSimulate(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed int64, mutate bool) {
		differential(t, inputFor(seed, mutate))
		batchedArm(t, seed, mutate)
	})
}
