package fabric

// Tests for the cycle loop (stepper.go). The contract under test is
// absolute: the dense and event-driven wake policies, with or without
// compiled dispatch, and whether a run is driven by RunContext or by
// BeginRun+Step, produce bit-identical observations — cycle counts,
// completion, error text, sink token streams and per-PE statistics
// (which the event-driven policy reconstructs through SkipCycles). The
// workload-level differential suite (internal/workloads) covers the
// eight paper kernels plus faults and snapshots; here random topologies
// and every exit path get the same treatment.

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"tia/internal/channel"
	"tia/internal/isa"
	"tia/internal/pe"
	"tia/internal/snapshot"
)

// stepMode is one stepping configuration under test.
type stepMode struct {
	label    string
	dense    bool
	compiled bool
}

var stepModes = []stepMode{
	{"event", false, false},
	{"dense", true, false},
	{"compiled", false, true},
	{"dense-compiled", true, true},
}

// randomMergeFabric builds a randomized fabric: one to three independent
// merge trees, each over a random number of sorted sources with random
// lengths (empty sources included), under random channel capacity and
// wire latency. Every token stream ends in its tree's own sink.
func randomMergeFabric(t testing.TB, r *rand.Rand) (*Fabric, []*Sink, []*pe.PE) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ChannelCapacity = 1 + r.Intn(4)
	cfg.ChannelLatency = r.Intn(3)
	f := New(cfg)

	var sinks []*Sink
	var pes []*pe.PE
	nTrees := 1 + r.Intn(3)
	for tree := 0; tree < nTrees; tree++ {
		type tap struct {
			e    OutPort
			port int
		}
		var outs []tap
		nSrc := 2 + r.Intn(6)
		for i := 0; i < nSrc; i++ {
			words := make([]isa.Word, r.Intn(24))
			for j := range words {
				words[j] = isa.Word(r.Intn(64))
			}
			sort.Slice(words, func(a, b int) bool { return words[a] < words[b] })
			s := NewWordSource(fmt.Sprintf("t%ds%d", tree, i), words, true)
			f.Add(s)
			outs = append(outs, tap{s, 0})
		}
		for mi := 0; len(outs) > 1; mi++ {
			m, err := pe.New(fmt.Sprintf("t%dm%d", tree, mi), isa.DefaultConfig(), pe.MergeProgram())
			if err != nil {
				t.Fatal(err)
			}
			f.Add(m)
			pes = append(pes, m)
			f.Wire(outs[0].e, outs[0].port, m, 0)
			f.Wire(outs[1].e, outs[1].port, m, 1)
			outs = append(outs[2:], tap{m, 0})
		}
		snk := NewSink(fmt.Sprintf("t%dsnk", tree))
		f.Add(snk)
		f.Wire(outs[0].e, outs[0].port, snk, 0)
		sinks = append(sinks, snk)
	}
	return f, sinks, pes
}

// runObservation is everything the stepping-mode comparisons check.
type runObservation struct {
	Result Result
	Err    string
	Tokens [][]channel.Token
	Stats  []pe.Stats
}

func observe(res Result, err error, sinks []*Sink, pes []*pe.PE) runObservation {
	obs := runObservation{Result: res}
	if err != nil {
		obs.Err = err.Error()
	}
	for _, s := range sinks {
		obs.Tokens = append(obs.Tokens, append([]channel.Token(nil), s.Tokens()...))
	}
	for _, p := range pes {
		obs.Stats = append(obs.Stats, p.Stats())
	}
	return obs
}

// observeRandom builds the seed's fabric in the given mode and runs it
// to completion.
func observeRandom(t testing.TB, seed int64, m stepMode) runObservation {
	t.Helper()
	f, sinks, pes := randomMergeFabric(t, rand.New(rand.NewSource(seed)))
	f.SetDenseStepping(m.dense)
	f.SetInterpreted(!m.compiled)
	res, err := f.Run(1_000_000)
	return observe(res, err, sinks, pes)
}

// TestSteppingModesMatchRandomTopologies sweeps random fabrics across
// every stepping mode against the dense reference.
func TestSteppingModesMatchRandomTopologies(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		ref := observeRandom(t, seed, stepModes[1])
		for _, m := range stepModes {
			if got := observeRandom(t, seed, m); !reflect.DeepEqual(ref, got) {
				t.Errorf("seed %d: %s diverged from dense:\ndense %+v\n%s %+v", seed, m.label, ref, m.label, got)
			}
		}
	}
}

// TestSteppingModesQuickProperty is the testing/quick form of the same
// contract: any seed, any mode, identical observations.
func TestSteppingModesQuickProperty(t *testing.T) {
	prop := func(seed int64, rawMode uint8) bool {
		m := stepModes[int(rawMode)%len(stepModes)]
		ref := observeRandom(t, seed, stepModes[1])
		got := observeRandom(t, seed, m)
		if !reflect.DeepEqual(ref, got) {
			t.Logf("seed %d %s:\ndense %+v\n%s %+v", seed, m.label, ref, m.label, got)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSteppingModesReset checks that every mode re-runs identically
// after Reset: the stepper's pooled scratch, idle streak and compiled
// dispatch table must leave no state behind.
func TestSteppingModesReset(t *testing.T) {
	for _, m := range stepModes {
		f, sinks, pes := randomMergeFabric(t, rand.New(rand.NewSource(3)))
		f.SetDenseStepping(m.dense)
		f.SetInterpreted(!m.compiled)
		res, err := f.Run(1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		first := observe(res, err, sinks, pes)
		for rerun := 0; rerun < 3; rerun++ {
			f.Reset()
			res, err := f.Run(1_000_000)
			if got := observe(res, err, sinks, pes); !reflect.DeepEqual(first, got) {
				t.Errorf("%s rerun %d diverged:\nfirst %+v\nrerun %+v", m.label, rerun, first, got)
			}
		}
	}
}

// brokenElem works every cycle and reports a program error from cycle
// at on, standing in for an element fault (an out-of-range scratchpad
// access, say).
type brokenElem struct {
	at  int64
	err error
}

func (b *brokenElem) Name() string { return "broken" }
func (b *brokenElem) Done() bool   { return false }
func (b *brokenElem) Err() error   { return b.err }
func (b *brokenElem) Step(cycle int64) bool {
	if cycle >= b.at {
		b.err = errors.New("address out of range")
	}
	return true
}

// heartbeatProg fires every cycle and touches only a register, so a
// fabric holding it never quiesces.
func heartbeatProg() []isa.Instruction {
	return []isa.Instruction{{
		Op:   isa.OpAdd,
		Srcs: [2]isa.Src{isa.Reg(0), isa.Imm(1)},
		Dsts: []isa.Dst{isa.DReg(0)},
	}}
}

// TestExitPaths drives every way a run can end through RunContext and
// through BeginRun+Step, under both wake policies and both dispatches,
// and requires the same Result, error text and statistics from all
// eight; the reference is the interpreter under the event policy. Each fixture
// keeps a forwarding PE asleep for most of the run, so the event-driven
// policy's SkipCycles backfill is on the line at every exit.
func TestExitPaths(t *testing.T) {
	cases := []struct {
		name string
		// eod ends the input stream; without it the sink starves.
		eod       bool
		heartbeat bool
		broken    bool
		budget    int64
		cancel    bool
		ckptErrAt int64
		// want is a substring of the reference run's error ("" for
		// completion).
		want string
	}{
		{name: "completion", eod: true, budget: 10_000},
		{name: "deadlock", budget: 10_000, want: ErrDeadlock.Error()},
		{name: "timeout", heartbeat: true, budget: 200, want: ErrTimeout.Error()},
		{name: "cancellation", heartbeat: true, budget: 10_000, cancel: true, want: ErrCancelled.Error()},
		{name: "element-fault", broken: true, budget: 10_000, want: "element broken: address out of range"},
		{name: "checkpoint-error", heartbeat: true, budget: 10_000, ckptErrAt: 90, want: "checkpoint: disk full"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(dense, interpreted, incremental bool) runObservation {
				f := New(DefaultConfig())
				src := NewWordSource("src", []isa.Word{10, 20, 30}, tc.eod)
				fwd := mustPE(t, "fwd", forwarderProg())
				snk := NewSink("snk")
				f.Add(src)
				f.Add(fwd)
				f.Add(snk)
				f.Wire(src, 0, fwd, 0)
				f.Wire(fwd, 0, snk, 0)
				pes := []*pe.PE{fwd}
				if tc.heartbeat {
					hb := mustPE(t, "hb", heartbeatProg())
					f.Add(hb)
					pes = append(pes, hb)
				}
				if tc.broken {
					f.Add(&brokenElem{at: 70})
				}
				ctx := context.Background()
				if tc.cancel {
					// A context cancelled up front stops the run at the
					// first poll: deterministically, cycle 99.
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					cancel()
					f.cfg.CancelCheckInterval = 100
				}
				ckpts := 0
				f.SetCheckpoint(30, func(cycle int64) error {
					ckpts++
					if tc.ckptErrAt > 0 && cycle >= tc.ckptErrAt {
						return errors.New("disk full")
					}
					return nil
				})
				f.SetDenseStepping(dense)
				f.SetInterpreted(interpreted)
				var res Result
				var err error
				if incremental {
					s, berr := f.BeginRun(ctx, tc.budget)
					if berr != nil {
						t.Fatal(berr)
					}
					for !s.Step() {
					}
					if !s.Done() {
						t.Fatal("Step reported finished but Done is false")
					}
					res, err = s.Result()
				} else {
					res, err = f.RunContext(ctx, tc.budget)
				}
				obs := observe(res, err, []*Sink{snk}, pes)
				obs.Err += fmt.Sprintf(" (%d checkpoints)", ckpts)
				return obs
			}
			ref := run(false, true, false)
			if tc.want == "" && !ref.Result.Completed || !strings.Contains(ref.Err, tc.want) {
				t.Fatalf("want error containing %q, got %+v", tc.want, ref)
			}
			for _, dense := range []bool{false, true} {
				for _, interpreted := range []bool{false, true} {
					for _, incremental := range []bool{false, true} {
						if got := run(dense, interpreted, incremental); !reflect.DeepEqual(ref, got) {
							t.Errorf("dense=%v interpreted=%v incremental=%v diverged:\nref %+v\ngot %+v", dense, interpreted, incremental, ref, got)
						}
					}
				}
			}
		})
	}
}

// sinklessFabric is a source feeding a PE that sums its input into a
// register and halts on EOD. With no sink, the run completes by
// quiescence, so its final cycle depends on the idle streak.
func sinklessFabric(t *testing.T) *Fabric {
	t.Helper()
	prog := []isa.Instruction{
		{
			Label:   "acc",
			Trigger: isa.When(nil, []isa.InputCond{isa.InTagEq(0, isa.TagData)}),
			Op:      isa.OpAdd,
			Srcs:    [2]isa.Src{isa.Reg(0), isa.In(0)},
			Dsts:    []isa.Dst{isa.DReg(0)},
			Deq:     []int{0},
		},
		{
			Label:   "eod",
			Trigger: isa.When(nil, []isa.InputCond{isa.InTagEq(0, isa.TagEOD)}),
			Op:      isa.OpHalt,
			Deq:     []int{0},
		},
	}
	f := New(DefaultConfig())
	src := NewWordSource("src", []isa.Word{3, 1, 4, 1, 5}, true)
	acc := mustPE(t, "acc", prog)
	f.Add(src)
	f.Add(acc)
	f.Wire(src, 0, acc, 0)
	return f
}

// TestRestoreMidQuiescenceWindow: a sinkless fabric checkpointed inside
// its final idle window ends at the same cycle after a restore, because
// the snapshot carries the idle streak. A version-1 snapshot (written
// before the streak was recorded) still restores, with a streak of zero.
func TestRestoreMidQuiescenceWindow(t *testing.T) {
	const fp = "sinkless"
	for _, dense := range []bool{false, true} {
		plain := sinklessFabric(t)
		plain.SetDenseStepping(dense)
		want, err := plain.Run(10_000)
		if err != nil || !want.Completed || !want.Quiesced {
			t.Fatalf("plain run: %+v, %v", want, err)
		}
		window := int64(plain.Config().QuiescenceWindow)
		at := want.Cycles - window/2 // inside the idle window

		var snap []byte
		ckpt := sinklessFabric(t)
		ckpt.SetDenseStepping(dense)
		ckpt.SetCheckpoint(at, func(int64) error {
			var err error
			snap, err = ckpt.Snapshot(fp)
			return err
		})
		if got, err := ckpt.Run(10_000); err != nil || got != want {
			t.Fatalf("checkpointing perturbed the run: %+v, %v (want %+v)", got, err, want)
		}
		if snap == nil {
			t.Fatal("no checkpoint taken")
		}

		restored := sinklessFabric(t)
		restored.SetDenseStepping(dense)
		if err := restored.Restore(snap, fp); err != nil {
			t.Fatal(err)
		}
		if got, err := restored.Run(10_000); err != nil || got != want {
			t.Errorf("dense=%v: restored run %+v, %v; uninterrupted run %+v", dense, got, err, want)
		}

		legacy := sinklessFabric(t)
		legacy.SetDenseStepping(dense)
		if err := legacy.Restore(asVersion1(t, snap), fp); err != nil {
			t.Fatalf("version-1 snapshot: %v", err)
		}
		if got, err := legacy.Run(10_000); err != nil || got.Cycles != at+window {
			t.Errorf("dense=%v: version-1 restore ended %+v, %v; want a fresh window ending at %d", dense, got, err, at+window)
		}
	}
}

// asVersion1 rewrites a current snapshot into the version-1 layout: the
// same header and body minus the trailing idle streak.
func asVersion1(t *testing.T, snap []byte) []byte {
	t.Helper()
	framed := snap[len(snapshot.Magic) : len(snap)-sha256.Size]
	d := snapshot.NewDecoder(framed)
	if v := d.U64(); v != 2 {
		t.Fatalf("snapshot version %d, want 2", v)
	}
	fp := d.String()
	cycle := d.I64()
	body := d.Bytes()
	if d.Err() != nil || len(body) == 0 || body[len(body)-1] >= 0x80 {
		t.Fatalf("unexpected snapshot framing: %v", d.Err())
	}
	var e snapshot.Encoder
	e.U64(1)
	e.String(fp)
	e.I64(cycle)
	e.Bytes(body[:len(body)-1]) // the streak is one varint byte here
	out := append([]byte(snapshot.Magic), e.Data()...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}
