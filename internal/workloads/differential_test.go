package workloads

// Differential tests for the simulator fast paths: event-driven stepping
// and closure-compiled dispatch must be bit-identical — cycle counts,
// sink token streams, PE statistics — with the reference, the plain
// interpreter (pe.PE.Step, which reads only the ISA form of each
// instruction) under dense stepping, on every kernel, under every
// scheduling policy. This is the executable form of the invariants
// documented in DESIGN.md's "Simulator fast path" section.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tia/internal/channel"
	"tia/internal/isa"
	"tia/internal/pe"
)

// kernelObservation is everything an observer of one kernel run could
// compare.
type kernelObservation struct {
	Cycles  int64
	Tokens  []channel.Token
	PEStats []pe.Stats
}

// stepModes enumerates the fabric stepping flavors every differential
// contract in this package agrees across: dense walks every element and
// channel each cycle, event is the fast path's wake policy, and
// compiled replaces the per-element interpreter walk with specialized
// step closures (internal/compile) under the event policy. The first
// mode, the interpreter under dense stepping, is the reference.
var stepModes = []struct {
	label    string
	dense    bool
	compiled bool
}{
	{"dense", true, false},
	{"event", false, false},
	{"compiled", false, true},
}

// observeTIA builds and runs the triggered form of a kernel under one
// stepping mode.
func observeTIA(t *testing.T, spec *Spec, p Params, dense, compiled bool) kernelObservation {
	t.Helper()
	inst, err := spec.BuildTIA(p)
	if err != nil {
		t.Fatalf("%s: build: %v", spec.Name, err)
	}
	inst.Fabric.SetDenseStepping(dense)
	inst.Fabric.SetInterpreted(!compiled)
	res, err := inst.Fabric.Run(spec.MaxCycles(p))
	if err != nil {
		t.Fatalf("%s: run (dense=%v compiled=%v): %v", spec.Name, dense, compiled, err)
	}
	obs := kernelObservation{Cycles: res.Cycles, Tokens: inst.Sink.Tokens()}
	for _, pr := range inst.PEs {
		obs.PEStats = append(obs.PEStats, pr.Stats())
	}
	return obs
}

// TestSchedulerSteppingDifferential runs every kernel under the
// reference (the interpreter with dense stepping) and under event and
// compiled stepping, and requires identical observations — across both
// scheduling policies and the superscalar scheduler under each.
func TestSchedulerSteppingDifferential(t *testing.T) {
	cases := []struct {
		label string
		mut   func(*Params)
	}{
		{"priority", func(p *Params) { p.Policy = pe.SchedPriority }},
		{"roundrobin", func(p *Params) { p.Policy = pe.SchedRoundRobin }},
		{"width2", func(p *Params) { p.IssueWidth = 2 }},
		{"roundrobin-width2", func(p *Params) { p.Policy, p.IssueWidth = pe.SchedRoundRobin, 2 }},
	}
	for _, spec := range All() {
		for _, tc := range cases {
			t.Run(spec.Name+"/"+tc.label, func(t *testing.T) {
				p := spec.Normalize(Params{Seed: 11, Size: 16})
				tc.mut(&p)
				ref := observeTIA(t, spec, p, stepModes[0].dense, stepModes[0].compiled)
				for _, mode := range stepModes[1:] {
					got := observeTIA(t, spec, p, mode.dense, mode.compiled)
					if ref.Cycles != got.Cycles {
						t.Errorf("cycles differ: reference %d, %s %d", ref.Cycles, mode.label, got.Cycles)
					}
					if !reflect.DeepEqual(ref.Tokens, got.Tokens) {
						t.Errorf("sink token streams differ:\nreference %v\n%-9s %v", ref.Tokens, mode.label, got.Tokens)
					}
					if !reflect.DeepEqual(ref.PEStats, got.PEStats) {
						t.Errorf("PE statistics differ:\nreference %+v\n%-9s %+v", ref.PEStats, mode.label, got.PEStats)
					}
				}
			})
		}
	}
}

// randomProgram generates a small valid triggered program: a chain of
// instructions gated on a predicate counter walking through channel
// consumption and production, with randomized triggers, destinations and
// predicate effects. Programs are resampled until cfg.ValidateProgram
// accepts them, so the property below only sees well-formed inputs.
func randomProgram(r *rand.Rand, cfg isa.Config) []isa.Instruction {
	for {
		n := 2 + r.Intn(5)
		prog := make([]isa.Instruction, 0, n)
		for i := 0; i < n; i++ {
			in := isa.Instruction{Op: isa.OpAdd}
			switch r.Intn(3) {
			case 0:
				in.Op = isa.OpSub
			case 1:
				in.Op = isa.OpMov
			}
			// Trigger: a random predicate literal plus a channel condition.
			in.Trigger.Preds = []isa.PredLit{{Index: r.Intn(cfg.NumPreds), Value: r.Intn(2) == 0}}
			ch := r.Intn(2)
			switch r.Intn(3) {
			case 0:
				in.Trigger.Inputs = []isa.InputCond{isa.InReady(ch)}
			case 1:
				in.Trigger.Inputs = []isa.InputCond{isa.InTagEq(ch, isa.TagData)}
			case 2:
				in.Trigger.Inputs = []isa.InputCond{isa.InTagNe(ch, isa.Tag(1))}
			}
			in.Srcs[0] = isa.In(ch)
			if in.Op.Arity() >= 2 {
				if r.Intn(2) == 0 {
					in.Srcs[1] = isa.Reg(r.Intn(cfg.NumRegs))
				} else {
					in.Srcs[1] = isa.Imm(isa.Word(r.Intn(7)))
				}
			}
			switch r.Intn(3) {
			case 0:
				in.Dsts = []isa.Dst{isa.DReg(r.Intn(cfg.NumRegs))}
			case 1:
				in.Dsts = []isa.Dst{isa.DOut(0, isa.TagData)}
			case 2:
				in.Dsts = []isa.Dst{isa.DReg(r.Intn(cfg.NumRegs)), isa.DOut(0, isa.Tag(r.Intn(2)))}
			}
			if r.Intn(2) == 0 {
				in.Deq = []int{ch}
			}
			if r.Intn(2) == 0 {
				pi := r.Intn(cfg.NumPreds)
				if r.Intn(2) == 0 {
					in.PredUpdates = []isa.PredUpdate{isa.SetP(pi)}
				} else {
					in.PredUpdates = []isa.PredUpdate{isa.ClrP(pi)}
				}
			}
			prog = append(prog, in)
		}
		if cfg.ValidateProgram(prog) == nil {
			return prog
		}
	}
}

// schedulers are the scheduler configurations the single-PE property
// checks: the default priority encoder, round-robin rotation, the
// width-2 superscalar scheduler, and round-robin at widths 2 and 3 —
// every policy and width CompileStep's one dispatch loop takes.
var schedulers = []struct {
	label string
	set   func(*pe.PE)
}{
	{"priority", func(*pe.PE) {}},
	{"roundrobin", func(p *pe.PE) { p.SetPolicy(pe.SchedRoundRobin) }},
	{"width2", func(p *pe.PE) { p.SetIssueWidth(2) }},
	{"roundrobin-width2", func(p *pe.PE) { p.SetPolicy(pe.SchedRoundRobin); p.SetIssueWidth(2) }},
	{"roundrobin-width3", func(p *pe.PE) { p.SetPolicy(pe.SchedRoundRobin); p.SetIssueWidth(3) }},
}

// mirroredRun drives one PE with the given program and scheduler
// configuration, interpreted or compiled, through a fixed token schedule
// and returns its observable state. The harness dequeues the PE's output each cycle and feeds fresh tokens
// whenever the input channels have credit, so programs that would
// otherwise starve still exercise firing, stalling and waking.
func mirroredRun(t *testing.T, prog []isa.Instruction, cfg isa.Config, seed int64, sched func(*pe.PE), compiled bool) (regs []isa.Word, preds uint64, stats pe.Stats, drained []channel.Token) {
	t.Helper()
	p, err := pe.New("dut", cfg, prog)
	if err != nil {
		t.Fatalf("pe.New: %v", err)
	}
	sched(p)
	in0 := channel.New("in0", 4, 0)
	in1 := channel.New("in1", 4, 1)
	out0 := channel.New("out0", 4, 0)
	p.ConnectIn(0, in0)
	p.ConnectIn(1, in1)
	p.ConnectOut(0, out0)
	step := p.Step
	if compiled {
		step = p.CompileStep()
	}

	feed := rand.New(rand.NewSource(seed))
	const cycles = 300
	for c := int64(0); c < cycles; c++ {
		if in0.CanAccept() {
			in0.Send(channel.Token{Data: isa.Word(feed.Intn(16)), Tag: isa.Tag(feed.Intn(2))})
		}
		if in1.CanAccept() {
			in1.Send(channel.Token{Data: isa.Word(feed.Intn(16)), Tag: isa.Tag(feed.Intn(2))})
		}
		step(c)
		if tok, ok := out0.Peek(); ok {
			drained = append(drained, tok)
			out0.Deq()
		}
		in0.Tick()
		in1.Tick()
		out0.Tick()
	}
	for i := 0; i < cfg.NumRegs; i++ {
		regs = append(regs, p.Reg(i))
	}
	for i := 0; i < cfg.NumPreds; i++ {
		if p.Pred(i) {
			preds |= 1 << uint(i)
		}
	}
	return regs, preds, p.Stats(), drained
}

// TestSchedulerEquivalenceQuick is a testing/quick property: for random
// valid programs and random token schedules, the closure-compiled step
// function (CompileStep) agrees with the interpreter (Step) on every
// architectural register, predicate, statistic and output token, under
// every scheduler configuration.
func TestSchedulerEquivalenceQuick(t *testing.T) {
	cfg := isa.DefaultConfig()
	for _, sc := range schedulers {
		t.Run(sc.label, func(t *testing.T) {
			prop := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				prog := randomProgram(r, cfg)
				rRegs, rPreds, rStats, rOut := mirroredRun(t, prog, cfg, seed, sc.set, false)
				cRegs, cPreds, cStats, cOut := mirroredRun(t, prog, cfg, seed, sc.set, true)
				if !reflect.DeepEqual(rRegs, cRegs) || rPreds != cPreds ||
					!reflect.DeepEqual(rStats, cStats) || !reflect.DeepEqual(rOut, cOut) {
					t.Logf("divergence for seed %d on program:", seed)
					for i, in := range prog {
						t.Logf("  [%d] %s", i, in.String())
					}
					t.Logf("interpreted: regs=%v preds=%b stats=%+v out=%v", rRegs, rPreds, rStats, rOut)
					t.Logf("compiled:    regs=%v preds=%b stats=%+v out=%v", cRegs, cPreds, cStats, cOut)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDenseSteppingMatchesEventForPC re-runs a PC-baseline kernel (which
// exercises pcpe's penalty drain and SkipCycles backfill) under every
// stepping mode.
func TestDenseSteppingMatchesEventForPC(t *testing.T) {
	for _, spec := range All() {
		t.Run(spec.Name, func(t *testing.T) {
			p := spec.Normalize(Params{Seed: 7, Size: 12})
			run := func(dense, compiled bool) (int64, []channel.Token) {
				inst, err := spec.BuildPC(p)
				if err != nil {
					t.Fatalf("build PC: %v", err)
				}
				inst.Fabric.SetDenseStepping(dense)
				inst.Fabric.SetInterpreted(!compiled)
				res, err := inst.Fabric.Run(spec.MaxCycles(p))
				if err != nil {
					t.Fatalf("run PC (dense=%v compiled=%v): %v", dense, compiled, err)
				}
				return res.Cycles, inst.Sink.Tokens()
			}
			dc, dt := run(stepModes[0].dense, stepModes[0].compiled)
			for _, mode := range stepModes[1:] {
				ec, et := run(mode.dense, mode.compiled)
				if dc != ec {
					t.Errorf("cycles differ: dense %d, %s %d", dc, mode.label, ec)
				}
				if !reflect.DeepEqual(dt, et) {
					t.Errorf("sink token streams differ:\ndense %v\n%-5s %v", dt, mode.label, et)
				}
			}
		})
	}
}
