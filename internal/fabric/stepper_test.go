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
	"tia/internal/mem"
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
		// scratchpads adds two scratchpads whose read streams reach an
		// out-of-range address in the same cycle.
		scratchpads bool
		budget      int64
		cancel      bool
		ckptErrAt   int64
		// want is a substring of the reference run's error ("" for
		// completion).
		want string
		// pin, when set, is the reference run's exact error text, cycle
		// count and sink tokens.
		pin *exitPin
	}{
		{name: "completion", eod: true, budget: 10_000},
		{name: "deadlock", budget: 10_000, want: ErrDeadlock.Error()},
		{name: "timeout", heartbeat: true, budget: 200, want: ErrTimeout.Error()},
		{name: "cancellation", heartbeat: true, budget: 10_000, cancel: true, want: ErrCancelled.Error()},
		{name: "element-fault", broken: true, budget: 10_000, want: "element broken: address out of range"},
		{name: "checkpoint-error", heartbeat: true, budget: 10_000, ckptErrAt: 90, want: "checkpoint: disk full"},
		{name: "two-element-faults", eod: true, scratchpads: true, budget: 10_000, want: "element sp1: read of address 9",
			pin: &exitPin{
				err:    "cycle 5: element sp1: read of address 9 in 8-word scratchpad (0 checkpoints)",
				cycles: 5,
				tokens: [][]channel.Token{
					{channel.Data(10), channel.Data(20), channel.Data(30)},
					{channel.Data(10), channel.Data(11), channel.Data(12)},
					{channel.Data(13), channel.Data(14), channel.Data(15)},
				},
			}},
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
				sinks := []*Sink{snk}
				if tc.scratchpads {
					// sp1 is added first, so it is the first erring
					// element in element order although sp0 sorts first
					// by name.
					for _, sp := range []struct {
						name  string
						addrs []isa.Word
					}{{"1", []isa.Word{0, 1, 2, 9}}, {"0", []isa.Word{3, 4, 5, 12}}} {
						m := mem.New("sp"+sp.name, 8)
						m.Load([]isa.Word{10, 11, 12, 13, 14, 15, 16, 17})
						a := NewWordSource("addr"+sp.name, sp.addrs, true)
						out := NewSink("out" + sp.name)
						f.Add(m)
						f.Add(a)
						f.Add(out)
						f.Wire(a, 0, m, mem.PortReadAddr)
						f.Wire(m, mem.PortReadData, out, 0)
						sinks = append(sinks, out)
					}
				}
				ctx := context.Background()
				if tc.cancel {
					// A context cancelled up front stops the run at the
					// first poll: deterministically, cycle 99.
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					cancel()
					f.cancelEvery = 100
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
				obs := observe(res, err, sinks, pes)
				obs.Err += fmt.Sprintf(" (%d checkpoints)", ckpts)
				return obs
			}
			ref := run(false, true, false)
			if tc.want == "" && !ref.Result.Completed || !strings.Contains(ref.Err, tc.want) {
				t.Fatalf("want error containing %q, got %+v", tc.want, ref)
			}
			if p := tc.pin; p != nil {
				got := exitPin{err: ref.Err, cycles: ref.Result.Cycles, tokens: ref.Tokens}
				if !reflect.DeepEqual(*p, got) {
					t.Errorf("reference run moved:\nwant %+v\ngot  %+v", *p, got)
				}
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

// exitPin is what TestExitPaths pins of a reference run.
type exitPin struct {
	err    string
	cycles int64
	tokens [][]channel.Token
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

// wideFabric builds a fabric of exactly n elements: source → forwarder
// chain → sink pipelines of random lengths, streams, channel capacities
// and wire latencies. Sources, PEs and sinks are added in three groups,
// so a pipeline's elements sit in different awake words once n passes
// 64. With loose, the first pipeline with a PE feeds it through a
// channel with unknown endpoints, which wakes every element when it
// changes.
func wideFabric(t *testing.T, n int, loose bool) (*Fabric, []*Sink, []*pe.PE) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(n)))
	f := New(DefaultConfig())
	var srcs []*Source
	var sinks []*Sink
	var pes []*pe.PE
	var chains [][]*pe.PE
	for left, k := n, 0; left > 0; k++ {
		p := r.Intn(6)
		if p+2 > left {
			p = left - 2
		}
		if left-(p+2) == 1 {
			p++
		}
		left -= p + 2
		words := make([]isa.Word, r.Intn(20))
		for i := range words {
			words[i] = isa.Word(r.Intn(1000))
		}
		srcs = append(srcs, NewWordSource(fmt.Sprintf("s%d", k), words, true))
		sinks = append(sinks, NewSink(fmt.Sprintf("k%d", k)))
		var chain []*pe.PE
		for i := 0; i < p; i++ {
			chain = append(chain, mustPE(t, fmt.Sprintf("p%d.%d", k, i), forwarderProg()))
		}
		chains = append(chains, chain)
		pes = append(pes, chain...)
	}
	for _, e := range srcs {
		f.Add(e)
	}
	for _, p := range pes {
		f.Add(p)
	}
	for _, e := range sinks {
		f.Add(e)
	}
	for k, chain := range chains {
		var from OutPort = srcs[k]
		for i, p := range chain {
			if loose && i == 0 {
				ch := f.NewChannel("loose", 2, 1)
				srcs[k].ConnectOut(0, ch)
				p.ConnectIn(0, ch)
				loose = false
			} else {
				f.WireOpt(from, 0, p, 0, 1+r.Intn(4), r.Intn(3))
			}
			from = p
		}
		f.WireOpt(from, 0, sinks[k], 0, 1+r.Intn(4), r.Intn(3))
	}
	if got := len(f.Elements()); got != n || loose {
		t.Fatalf("wideFabric(%d): %d elements, loose channel unplaced: %v", n, got, loose)
	}
	return f, sinks, pes
}

// TestSteppingModesWordBoundaries holds every stepping mode to the
// dense interpreter on fabrics just under, at and over one 64-element
// awake word, over two words, and with a wake-all channel in a
// two-word fabric.
func TestSteppingModesWordBoundaries(t *testing.T) {
	for _, tc := range []struct {
		n     int
		loose bool
	}{{63, false}, {64, false}, {65, false}, {130, false}, {100, true}} {
		t.Run(fmt.Sprintf("%d-loose=%v", tc.n, tc.loose), func(t *testing.T) {
			run := func(m stepMode) runObservation {
				f, sinks, pes := wideFabric(t, tc.n, tc.loose)
				f.SetDenseStepping(m.dense)
				f.SetInterpreted(!m.compiled)
				res, err := f.Run(100_000)
				return observe(res, err, sinks, pes)
			}
			ref := run(stepModes[1])
			if !ref.Result.Completed || ref.Err != "" {
				t.Fatalf("dense reference did not complete: %+v", ref)
			}
			for _, m := range stepModes {
				if got := run(m); !reflect.DeepEqual(ref, got) {
					t.Errorf("%s diverged from dense:\ndense %+v\n%s %+v", m.label, ref, m.label, got)
				}
			}
		})
	}
}

// TestStagingOutsideRuns: a Send before BeginRun, after Finish or on a
// standalone channel does not panic and does not leak into the next
// run's tick list. BeginRun lists every channel exactly once after a
// Reset and after a Restore, and the rerun matches the first run.
func TestStagingOutsideRuns(t *testing.T) {
	const fp = "cycle-fabric"
	f := buildCycleFabric(t)
	nc := len(f.Channels())
	listsAll := func(step string) {
		t.Helper()
		got := append([]int(nil), f.rs.ticks.Current()...)
		// A Send on a listed channel must not list it twice. Restoring
		// the channel's state from before the Send unstages it again.
		last := f.chans[nc-1]
		var before snapshot.Encoder
		last.SnapshotState(&before)
		last.Send(channel.Data(1))
		if got2 := f.rs.ticks.Current(); !reflect.DeepEqual(got, got2) {
			t.Errorf("%s: send on a listed channel changed the tick list from %v to %v", step, got, got2)
		}
		if err := last.RestoreState(snapshot.NewDecoder(before.Data())); err != nil {
			t.Fatal(err)
		}
		for ci := range got {
			if got[ci] != ci || len(got) != nc {
				t.Fatalf("%s: tick list %v, want every channel 0..%d once", step, got, nc-1)
			}
		}
	}
	channel.New("standalone", 1, 0).Send(channel.Data(1))
	snap, err := f.Snapshot(fp)
	if err != nil {
		t.Fatal(err)
	}
	f.chans[0].Send(channel.Data(1)) // before any run
	f.Reset()
	s, err := f.BeginRun(context.Background(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	listsAll("first run")
	want, err := s.Finish()
	if err != nil || !want.Completed {
		t.Fatalf("first run: %+v, %v", want, err)
	}
	wantToks := append([]channel.Token(nil), f.sinks[0].Tokens()...)
	for _, again := range []struct {
		name string
		redo func() error
	}{
		{"reset", func() error { f.Reset(); return nil }},
		{"restore", func() error { return f.Restore(snap, fp) }},
	} {
		// Every channel of a finished run is quiet and off the list.
		// Sending after Finish puts a channel back on it; the last one
		// is left off, for listsAll to send on once BeginRun relists it.
		for _, ch := range f.chans[:nc-1] {
			ch.Send(channel.Data(2))
		}
		if err := again.redo(); err != nil {
			t.Fatal(err)
		}
		s, err := f.BeginRun(context.Background(), 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		listsAll(again.name)
		got, err := s.Finish()
		if err != nil || got != want || !reflect.DeepEqual(f.sinks[0].Tokens(), wantToks) {
			t.Errorf("%s rerun: %+v, %v, %d tokens; first run %+v, %d tokens", again.name, got, err, len(f.sinks[0].Tokens()), want, len(wantToks))
		}
	}
}
