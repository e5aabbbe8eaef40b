// Resilience campaigns: run workload kernels under seeded fault
// injection (internal/faults) and either assert the paper's latency-
// insensitivity property (timing faults must never change results) or
// classify data-fault runs into the standard masked / detected / SDC /
// hang taxonomy.
package core

import (
	"context"
	"errors"
	"fmt"

	"tia/internal/channel"
	"tia/internal/fabric"
	"tia/internal/faults"
	"tia/internal/workloads"
)

// FaultOutcome classifies one faulty run against the fault-free golden
// run.
type FaultOutcome string

const (
	// OutcomeMasked: the run completed and every output token matched the
	// golden run — the fault was absorbed.
	OutcomeMasked FaultOutcome = "masked"
	// OutcomeDetected: the fault surfaced loudly — the fabric reported an
	// element fault, or the output failed the structural check (token
	// count or tag framing), which end-to-end verification catches
	// without knowing the golden data.
	OutcomeDetected FaultOutcome = "detected"
	// OutcomeSDC: silent data corruption — the run completed, the output
	// is structurally plausible (right length, right framing), but data
	// words differ from the golden run. Only a golden comparison sees it.
	OutcomeSDC FaultOutcome = "sdc"
	// OutcomeHang: the fabric deadlocked or exhausted its cycle budget.
	OutcomeHang FaultOutcome = "hang"
)

// FaultRun is one campaign run's record.
type FaultRun struct {
	Seed     int64
	Outcome  FaultOutcome
	Cycles   int64
	Injected int64 // discrete fault events injected this run
	Detail   string
}

// Taxonomy aggregates campaign outcomes.
type Taxonomy struct {
	Runs     int
	Masked   int
	Detected int
	SDC      int
	Hang     int
	Injected int64
}

func (t *Taxonomy) add(r FaultRun) {
	t.Runs++
	t.Injected += r.Injected
	switch r.Outcome {
	case OutcomeMasked:
		t.Masked++
	case OutcomeDetected:
		t.Detected++
	case OutcomeSDC:
		t.SDC++
	case OutcomeHang:
		t.Hang++
	}
}

// CampaignReport is the result of a fault campaign over one kernel.
type CampaignReport struct {
	Workload  string
	Plan      faults.Plan
	Taxonomy  Taxonomy
	FaultRuns []FaultRun
	// GoldenCycles is the fault-free cycle count the runs were compared
	// against.
	GoldenCycles int64
}

// setOracle switches a campaign fabric between production stepping
// (event wake policy, compiled dispatch) and the reference the
// differential tests hold it to (dense wake policy, interpreted
// dispatch). Results are identical either way.
func setOracle(f *fabric.Fabric, on bool) {
	f.SetDenseStepping(on)
	f.SetInterpreted(on)
}

// goldenRun builds and runs the kernel fault-free, returning the
// instance's sink tokens and cycle count.
func goldenRun(ctx context.Context, spec *workloads.Spec, p workloads.Params, oracle bool) ([]channel.Token, int64, error) {
	inst, err := spec.BuildTIA(p)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: build golden: %w", spec.Name, err)
	}
	setOracle(inst.Fabric, oracle)
	res, err := inst.Fabric.RunContext(ctx, spec.MaxCycles(p))
	if err != nil {
		return nil, 0, fmt.Errorf("%s: golden run: %w", spec.Name, err)
	}
	return inst.Sink.Tokens(), res.Cycles, nil
}

// campaignBudget bounds one faulty run's cycle count. A faulty run
// either completes within a small multiple of the golden cycle count
// (faults cease at Plan.To, which campaigns anchor to the golden run,
// after which in-flight tokens drain at wire speed) or it never
// completes at all — a dropped token starves a merge forever, or a
// duplicated one livelocks a loop. The workload's own MaxCycles budget
// is sized for fault-free completion from cold and is enormously
// generous here: campaign profiles showed two livelocked runs spinning
// out the full multi-million-cycle budget and dominating an entire
// 64-seed campaign's wall-clock. Eight times golden plus a fixed drain
// slack keeps hang detection sound while bounding its cost; the
// workload budget stays as a cap so deliberately tiny budgets still
// behave.
func campaignBudget(golden, max int64) int64 {
	b := golden*8 + 1<<15
	if b > max {
		b = max
	}
	return b
}

// faultyRun builds a fresh instance, attaches the plan, runs it, and
// classifies the outcome against the golden token stream.
func faultyRun(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, oracle bool, budget int64, golden []channel.Token) (FaultRun, error) {
	run := FaultRun{Seed: plan.Seed}
	inst, err := spec.BuildTIA(p)
	if err != nil {
		return run, fmt.Errorf("%s: build: %w", spec.Name, err)
	}
	setOracle(inst.Fabric, oracle)
	inj, err := faults.Attach(inst.Fabric, plan)
	if err != nil {
		return run, err
	}
	res, err := inst.Fabric.RunContext(ctx, budget)
	return classifyRun(plan.Seed, res, err, inj.Counts().Total(), inst.Sink.Tokens(), golden)
}

// classifyRun turns one finished faulty run's raw outcome into a
// FaultRun record. It is the single classification path shared by the
// serial campaign runners and the batched ones (internal/core batch
// runners retire lanes through it), which is what makes the batched
// taxonomy bit-identical to serial by construction.
func classifyRun(seed int64, res fabric.Result, err error, injected int64, got, golden []channel.Token) (FaultRun, error) {
	run := FaultRun{Seed: seed, Cycles: res.Cycles, Injected: injected}
	if err != nil {
		if errors.Is(err, fabric.ErrCancelled) {
			return run, err // campaign aborted, not an outcome
		}
		if errors.Is(err, fabric.ErrDeadlock) || errors.Is(err, fabric.ErrTimeout) {
			run.Outcome, run.Detail = OutcomeHang, err.Error()
			return run, nil
		}
		run.Outcome, run.Detail = OutcomeDetected, err.Error()
		return run, nil
	}
	run.Outcome, run.Detail = classifyTokens(got, golden)
	return run, nil
}

// classifyTokens compares a completed faulty run's output against the
// golden stream: structural mismatches (count, tag framing) are
// detectable end-to-end and classify as detected; data-only divergence
// is silent corruption; byte equality is masked.
func classifyTokens(got, want []channel.Token) (FaultOutcome, string) {
	if len(got) != len(want) {
		return OutcomeDetected, fmt.Sprintf("output token count %d, want %d", len(got), len(want))
	}
	sdc := -1
	for i := range got {
		if got[i].Tag != want[i].Tag {
			return OutcomeDetected, fmt.Sprintf("token %d tag %d, want %d", i, got[i].Tag, want[i].Tag)
		}
		if sdc < 0 && got[i].Data != want[i].Data {
			sdc = i
		}
	}
	if sdc >= 0 {
		return OutcomeSDC, fmt.Sprintf("token %d data %d, want %d", sdc, got[sdc].Data, want[sdc].Data)
	}
	return OutcomeMasked, ""
}

// RunTimingCampaign asserts the latency-insensitivity property: `runs`
// seeded runs under the (timing-only) plan must each produce output
// byte-identical to the fault-free golden run, under production
// stepping or, with oracle set, the reference stepping (see setOracle).
// Plan.To, when unset, is anchored to the golden cycle count so
// stall/freeze windows land inside the run. The returned report's
// taxonomy counts every run as masked; any divergence or hang is an
// error — a broken latency-insensitivity contract, reported loudly.
func RunTimingCampaign(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, runs int, oracle bool) (*CampaignReport, error) {
	if !plan.Timing() {
		return nil, fmt.Errorf("%s: timing campaign given a data-fault plan", spec.Name)
	}
	p = spec.Normalize(p)
	golden, cycles, err := goldenRun(ctx, spec, p, oracle)
	if err != nil {
		return nil, err
	}
	if plan.To <= 0 {
		plan.To = cycles
	}
	rep := &CampaignReport{Workload: spec.Name, Plan: plan, GoldenCycles: cycles}
	budget := campaignBudget(cycles, spec.MaxCycles(p))
	base := plan.Seed
	for r := 0; r < runs; r++ {
		plan.Seed = base + int64(r)
		run, err := faultyRun(ctx, spec, p, plan, oracle, budget, golden)
		if err != nil {
			return nil, err
		}
		if run.Outcome != OutcomeMasked {
			return nil, fmt.Errorf("%s: latency-insensitivity violated under timing faults (seed %d): %s: %s",
				spec.Name, plan.Seed, run.Outcome, run.Detail)
		}
		rep.FaultRuns = append(rep.FaultRuns, run)
		rep.Taxonomy.add(run)
	}
	return rep, nil
}

// RunDataCampaign runs `runs` seeded data-fault runs under the plan and
// classifies each into the masked / detected / SDC / hang taxonomy. The
// classification is fully deterministic for a fixed plan seed. Plan.To,
// when unset, is anchored to the golden cycle count.
func RunDataCampaign(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, runs int) (*CampaignReport, error) {
	p = spec.Normalize(p)
	golden, cycles, err := goldenRun(ctx, spec, p, false)
	if err != nil {
		return nil, err
	}
	if plan.To <= 0 {
		plan.To = cycles
	}
	rep := &CampaignReport{Workload: spec.Name, Plan: plan, GoldenCycles: cycles}
	budget := campaignBudget(cycles, spec.MaxCycles(p))
	base := plan.Seed
	for r := 0; r < runs; r++ {
		plan.Seed = base + int64(r)
		run, err := faultyRun(ctx, spec, p, plan, false, budget, golden)
		if err != nil {
			return nil, err
		}
		rep.FaultRuns = append(rep.FaultRuns, run)
		rep.Taxonomy.add(run)
	}
	return rep, nil
}

// DefaultTimingPlan is the standard timing-fault campaign: latency
// jitter on every channel plus transient stalls and element freezes.
func DefaultTimingPlan(seed int64) faults.Plan {
	return faults.Plan{
		Seed:       seed,
		JitterRate: 0.05, JitterMax: 7,
		Stalls: 2, StallMax: 23,
		Freezes: 1, FreezeMax: 17,
	}
}

// DefaultDataPlan is the standard data-fault campaign: a mix of bit
// flips, drops and duplications at low per-token rates.
func DefaultDataPlan(seed int64) faults.Plan {
	return faults.Plan{
		Seed:     seed,
		FlipRate: 0.002, DropRate: 0.001, DupRate: 0.001,
	}
}
