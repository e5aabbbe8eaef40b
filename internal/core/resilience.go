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
// completes at all. A run that stops moving — a dropped token strands
// its partner in front of a merge that waits forever — is a fixed point,
// which the stepper reports as ErrDeadlock within QuiescenceWindow
// cycles (see fabric.Stepper), so this budget bounds only livelocks:
// runs that keep firing without finishing, such as a loop fed a
// duplicated token. The workload's own MaxCycles budget is sized for
// fault-free completion from cold and is enormously generous here, so
// one livelocked run would spin out millions of cycles; eight times
// golden plus a fixed drain slack keeps hang detection sound while
// bounding its cost. The workload budget stays as a cap so deliberately
// tiny budgets still behave.
func campaignBudget(golden, max int64) int64 {
	b := golden*8 + 1<<15
	if b > max {
		b = max
	}
	return b
}

// faultyRun builds a fresh instance, attaches the run-th plan, runs it,
// and classifies the outcome against the golden token stream.
func (c *campaign) faultyRun(ctx context.Context, r int) (FaultRun, error) {
	plan := c.runPlan(r)
	run := FaultRun{Seed: plan.Seed}
	inst, err := c.spec.BuildTIA(c.p)
	if err != nil {
		return run, fmt.Errorf("%s: build: %w", c.spec.Name, err)
	}
	setOracle(inst.Fabric, c.oracle)
	inj, err := faults.Attach(inst.Fabric, plan)
	if err != nil {
		return run, err
	}
	res, err := inst.Fabric.RunContext(ctx, c.budget)
	if c.after != nil {
		c.after(r, inst)
	}
	return classifyRun(plan.Seed, res, err, inj.Counts().Total(), inst.Sink.Tokens(), c.golden)
}

// classifyRun turns one finished faulty run's raw outcome into a
// FaultRun record. It is the single classification path shared by the
// fresh-build campaign runners and the reused-instance ones, which is
// what makes the reused taxonomy bit-identical to fresh by
// construction.
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

// campaign is the state every campaign runner shares once its
// prologue has run: the normalized params, the plan anchored to the
// golden run, the faulty-run budget, the golden tokens, and the report
// the runs are recorded into.
type campaign struct {
	spec   *workloads.Spec
	p      workloads.Params
	plan   faults.Plan
	timing bool // every run must be masked (latency insensitivity)
	oracle bool // reference stepping (see setOracle)
	budget int64
	golden []channel.Token
	rep    *CampaignReport
	// after, when set, sees each finished run's instance; the
	// differential tests compare element state with it.
	after func(run int, inst *workloads.Instance)
}

// beginCampaign is the prologue of every campaign runner: normalize the
// params, run the golden instance, anchor an unset Plan.To to the
// golden cycle count so fault windows land inside the run, and size the
// faulty-run budget. A timing campaign rejects a plan with data faults.
func beginCampaign(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, timing, oracle bool) (*campaign, error) {
	if timing && !plan.Timing() {
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
	return &campaign{
		spec: spec, p: p, plan: plan, timing: timing, oracle: oracle,
		budget: campaignBudget(cycles, spec.MaxCycles(p)),
		golden: golden,
		rep:    &CampaignReport{Workload: spec.Name, Plan: plan, GoldenCycles: cycles},
	}, nil
}

// runPlan is the plan of the campaign's run-th faulty run.
func (c *campaign) runPlan(run int) faults.Plan {
	plan := c.plan
	plan.Seed += int64(run)
	return plan
}

// record appends one finished run to the report. In a timing campaign a
// run that is not masked breaks the latency-insensitivity contract and
// is returned as an error instead.
func (c *campaign) record(run FaultRun) error {
	if c.timing && run.Outcome != OutcomeMasked {
		return fmt.Errorf("%s: latency-insensitivity violated under timing faults (seed %d): %s: %s",
			c.spec.Name, run.Seed, run.Outcome, run.Detail)
	}
	c.rep.FaultRuns = append(c.rep.FaultRuns, run)
	c.rep.Taxonomy.add(run)
	return nil
}

// runFresh executes the campaign's runs serially, each on a fresh build
// with a fresh Attach. It is the oracle the reused-instance runners are
// held to.
func (c *campaign) runFresh(ctx context.Context, runs int) (*CampaignReport, error) {
	for r := 0; r < runs; r++ {
		run, err := c.faultyRun(ctx, r)
		if err != nil {
			return nil, err
		}
		if err := c.record(run); err != nil {
			return nil, err
		}
	}
	return c.rep, nil
}

// RunTimingCampaign asserts the latency-insensitivity property: `runs`
// seeded runs under the (timing-only) plan must each produce output
// byte-identical to the fault-free golden run, under production
// stepping or, with oracle set, the reference stepping (see setOracle).
// Plan.To, when unset, is anchored to the golden cycle count so
// stall/freeze windows land inside the run. The returned report's
// taxonomy counts every run as masked; any divergence or hang is an
// error — a broken latency-insensitivity contract, reported loudly.
// Every run builds a fresh instance: this is the oracle
// RunTimingCampaignBatch is held to.
func RunTimingCampaign(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, runs int, oracle bool) (*CampaignReport, error) {
	c, err := beginCampaign(ctx, spec, p, plan, true, oracle)
	if err != nil {
		return nil, err
	}
	return c.runFresh(ctx, runs)
}

// RunDataCampaign runs `runs` seeded data-fault runs under the plan and
// classifies each into the masked / detected / SDC / hang taxonomy. The
// classification is fully deterministic for a fixed plan seed. Plan.To,
// when unset, is anchored to the golden cycle count. Every run builds a
// fresh instance: this is the oracle RunDataCampaignBatch is held to.
func RunDataCampaign(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, runs int) (*CampaignReport, error) {
	c, err := beginCampaign(ctx, spec, p, plan, false, false)
	if err != nil {
		return nil, err
	}
	return c.runFresh(ctx, runs)
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
