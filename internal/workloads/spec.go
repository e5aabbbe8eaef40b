// Package workloads implements the paper's eight-kernel benchmark suite.
// Every kernel exists in four forms that must agree token-for-token:
//
//   - a triggered-instruction fabric (the paper's proposal),
//   - a PC-style spatial fabric with the same decomposition (the paper's
//     baseline),
//   - a hand-written program for the general-purpose core model, and
//   - a golden Go reference.
//
// The experiment harness (package core) runs all four and derives the
// paper's speedup, critical-path instruction-count and area-normalized
// performance results from them.
package workloads

import (
	"context"
	"fmt"
	"math/rand"

	"tia/internal/fabric"
	"tia/internal/gpp"
	"tia/internal/isa"
	"tia/internal/mem"
	"tia/internal/pcpe"
	"tia/internal/pe"
)

// Params selects a workload configuration.
type Params struct {
	// Size scales the input (elements, characters, matrix dimension,
	// blocks — per-workload meaning; see each kernel's doc comment).
	Size int
	// Seed drives the input generator deterministically.
	Seed int64
	// TIACfg configures triggered PEs; zero value means isa.DefaultConfig.
	TIACfg isa.Config
	// PCCfg configures baseline PEs; zero value means pcpe.DefaultConfig.
	PCCfg pcpe.Config
	// FabricCfg configures channels; zero value means fabric.DefaultConfig.
	FabricCfg fabric.Config
	// Policy selects the triggered scheduler tie-break.
	Policy pe.SchedPolicy
	// IssueWidth, when > 1, enables the superscalar trigger scheduler
	// (see pe.SetIssueWidth); 0 means single issue.
	IssueWidth int
	// MemLatency adds pipeline stages to every scratchpad read (see
	// mem.SetReadLatency); 0 is the default single-cycle array.
	MemLatency int
}

// applyMems configures scratchpads with the params' memory settings.
func (p Params) applyMems(ms ...*mem.Scratchpad) {
	for _, m := range ms {
		m.SetReadLatency(p.MemLatency)
	}
}

// apply configures triggered PEs with the params' scheduler settings.
func (p Params) apply(pes ...*pe.PE) {
	for _, pr := range pes {
		pr.SetPolicy(p.Policy)
		if p.IssueWidth > 1 {
			pr.SetIssueWidth(p.IssueWidth)
		}
	}
}

// withDefaults fills zero-valued configs.
func (p Params) withDefaults(defaultSize int) Params {
	if p.Size <= 0 {
		p.Size = defaultSize
	}
	if p.TIACfg.NumRegs == 0 {
		p.TIACfg = isa.DefaultConfig()
	}
	if p.PCCfg.NumRegs == 0 {
		p.PCCfg = pcpe.DefaultConfig()
	}
	if p.FabricCfg.ChannelCapacity == 0 {
		p.FabricCfg = fabric.DefaultConfig()
	}
	return p
}

// Instance is a constructed fabric ready to run, plus the handles the
// harness needs to check results and attribute critical-path costs.
type Instance struct {
	Fabric *fabric.Fabric
	// Sink collects the kernel's output stream.
	Sink *fabric.Sink
	// CriticalTIA / CriticalPC name the rate-limiting PE whose program is
	// measured for the paper's static/dynamic critical-path instruction
	// counts. Exactly one of the two is set, matching the instance kind.
	CriticalTIA *pe.PE
	CriticalPC  *pcpe.PE
	// PEs and PCPEs list all processing elements for utilization stats.
	PEs   []*pe.PE
	PCPEs []*pcpe.PE
	// ScratchpadWords is the total scratchpad capacity instantiated, for
	// the area model.
	ScratchpadWords int
}

// GPPResult is the outcome of running the GPP version of a kernel.
type GPPResult struct {
	Stats  gpp.Stats
	Output []isa.Word
}

// Spec describes one kernel of the suite.
type Spec struct {
	// Name is the kernel's short identifier (e.g. "mergesort").
	Name string
	// Description is a one-line summary for tables.
	Description string
	// DefaultSize is the evaluation input scale.
	DefaultSize int
	// BuildTIA constructs the triggered-instruction instance.
	BuildTIA func(p Params) (*Instance, error)
	// BuildPC constructs the PC-style baseline instance.
	BuildPC func(p Params) (*Instance, error)
	// BuildPCPlain, when non-nil, constructs a baseline whose critical PE
	// is written in the *plain* sequential style (every channel access
	// its own instruction, single destinations) — the paper's unenhanced
	// baseline, used by experiment E2 as a second design point.
	BuildPCPlain func(p Params) (*Instance, error)
	// RunGPP executes the kernel on the general-purpose core model.
	RunGPP func(p Params) (*GPPResult, error)
	// Reference computes the expected output stream.
	Reference func(p Params) []isa.Word
	// WorkUnits is the kernel's unit-of-work count at these parameters
	// (merged elements, matched characters, multiply-accumulates, …),
	// used to normalize throughput.
	WorkUnits func(p Params) int64
}

// Normalize applies defaults to params for this spec.
func (s *Spec) Normalize(p Params) Params { return p.withDefaults(s.DefaultSize) }

// MaxCycles returns a generous simulation budget for the given params.
func (s *Spec) MaxCycles(p Params) int64 {
	return 2_000_000 + 50_000*int64(p.Size)
}

// PolicyFromInt maps 0 to priority and anything else to round-robin
// scheduling, for harnesses that sweep policies numerically.
func PolicyFromInt(v int) pe.SchedPolicy {
	if v == 0 {
		return pe.SchedPriority
	}
	return pe.SchedRoundRobin
}

// rng returns the deterministic generator for an input.
func rng(p Params) *rand.Rand { return rand.New(rand.NewSource(p.Seed ^ 0x7a115)) }

// all is the registry, populated by each kernel file's init.
var all []*Spec

func register(s *Spec) { all = append(all, s) }

// All returns the full suite in canonical order.
func All() []*Spec {
	out := make([]*Spec, len(all))
	copy(out, all)
	return out
}

// ByName returns the named kernel.
func ByName(name string) (*Spec, error) {
	for _, s := range all {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown kernel %q", name)
}

// equalWords compares two output streams.
func equalWords(a, b []isa.Word) bool {
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

// Verified carries the artifacts of a verification pass: each form's
// instance, already run to completion with its output checked against the
// golden reference. Simulations are deterministic, so a measurement
// harness can read cycle counts and statistics straight off these instead
// of re-running identical simulations (package core does; it halves the
// cost of every measured kernel).
type Verified struct {
	Params Params
	// TIA is the triggered instance, post-run.
	TIA    *Instance
	TIARes fabric.Result
	// PC is the baseline instance at Params.PCCfg.TakenPenalty, post-run.
	PC    *Instance
	PCRes fabric.Result
	// Plain is the unenhanced baseline (nil if the kernel has none).
	Plain    *Instance
	PlainRes fabric.Result
	// GPP is the general-purpose core run.
	GPP *GPPResult
}

// VerifyFullContext runs every form of the kernel, checks that all
// outputs match the reference and returns the run artifacts for reuse;
// the first mismatch is a descriptive error. Cancellation or deadline
// expiry stops whichever fabric simulation is in flight (see
// fabric.RunContext) and is reported as an error wrapping
// fabric.ErrCancelled.
func (s *Spec) VerifyFullContext(ctx context.Context, p Params) (*Verified, error) {
	p = s.Normalize(p)
	want := s.Reference(p)
	v := &Verified{Params: p}

	tia, err := s.BuildTIA(p)
	if err != nil {
		return nil, fmt.Errorf("%s: build TIA: %w", s.Name, err)
	}
	if v.TIARes, err = tia.Fabric.RunContext(ctx, s.MaxCycles(p)); err != nil {
		return nil, fmt.Errorf("%s: run TIA: %w", s.Name, err)
	}
	if got := tia.Sink.Words(); !equalWords(got, want) {
		return nil, fmt.Errorf("%s: TIA output mismatch:\n got %v\nwant %v", s.Name, got, want)
	}
	v.TIA = tia

	pc, err := s.BuildPC(p)
	if err != nil {
		return nil, fmt.Errorf("%s: build PC: %w", s.Name, err)
	}
	if v.PCRes, err = pc.Fabric.RunContext(ctx, s.MaxCycles(p)); err != nil {
		return nil, fmt.Errorf("%s: run PC: %w", s.Name, err)
	}
	if got := pc.Sink.Words(); !equalWords(got, want) {
		return nil, fmt.Errorf("%s: PC output mismatch:\n got %v\nwant %v", s.Name, got, want)
	}
	v.PC = pc

	if s.BuildPCPlain != nil {
		plain, err := s.BuildPCPlain(p)
		if err != nil {
			return nil, fmt.Errorf("%s: build plain PC: %w", s.Name, err)
		}
		if v.PlainRes, err = plain.Fabric.RunContext(ctx, s.MaxCycles(p)*2); err != nil {
			return nil, fmt.Errorf("%s: run plain PC: %w", s.Name, err)
		}
		if got := plain.Sink.Words(); !equalWords(got, want) {
			return nil, fmt.Errorf("%s: plain PC output mismatch:\n got %v\nwant %v", s.Name, got, want)
		}
		v.Plain = plain
	}

	g, err := s.RunGPP(p)
	if err != nil {
		return nil, fmt.Errorf("%s: run GPP: %w", s.Name, err)
	}
	if !equalWords(g.Output, want) {
		return nil, fmt.Errorf("%s: GPP output mismatch:\n got %v\nwant %v", s.Name, g.Output, want)
	}
	v.GPP = g
	return v, nil
}
