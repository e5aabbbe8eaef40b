// Batched campaign execution: the resilience campaigns of
// resilience.go, run over internal/batchrun lanes instead of a fresh
// instance per run. The contract is bit-identical results — same
// FaultRun records, same Taxonomy, same errors — with the per-run
// static costs (netlist build, wiring tables, compiled trigger plans,
// fault-site scanning) paid once per lane instead of once per run.
package core

import (
	"context"
	"fmt"

	"tia/internal/batchrun"
	"tia/internal/channel"
	"tia/internal/fabric"
	"tia/internal/faults"
	"tia/internal/workloads"
)

// campaignLane is the per-lane payload of a batched campaign: the
// workload instance whose fabric the lane drives, and the injector that
// is Attached on the lane's first run and Rearmed on every later one.
type campaignLane struct {
	inst *workloads.Instance
	inj  *faults.Injector
}

// runCampaignBatch executes `runs` seeded faulty runs of the plan over
// `lanes` batch lanes and returns the per-run records indexed by run.
// Each record is bit-identical to what faultyRun would have produced
// for the same seed: the lanes re-arm via Reset+Rearm (differentially
// proven equal to a fresh build+Attach), each lane is the fabric's own
// cycle loop advanced in lockstep under the requested wake policy, and
// classification goes through the same classifyRun. Fresh golden tokens
// and the anchored plan are the caller's, exactly as in the serial
// runners.
func runCampaignBatch(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, runs, lanes int, dense bool, budget int64, golden []channel.Token) ([]FaultRun, error) {
	if lanes > runs {
		lanes = runs
	}
	b, err := batchrun.New(
		batchrun.Config{
			Lanes:     lanes,
			MaxCycles: budget,
			// Eviction is scheduling only: a lane that outlives a quarter
			// of the budget is almost certainly a hung run; finishing it
			// outside the lockstep loop keeps that loop full without
			// touching its outcome.
			EvictAfter: budget / 4,
		},
		func(lane int) (*fabric.Fabric, any, error) {
			inst, err := spec.BuildTIA(p)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: build lane %d: %w", spec.Name, lane, err)
			}
			inst.Fabric.SetDenseStepping(dense)
			return inst.Fabric, &campaignLane{inst: inst}, nil
		})
	if err != nil {
		return nil, err
	}
	recs := make([]FaultRun, runs)
	base := plan.Seed
	arm := func(l *batchrun.Lane, run int) error {
		cl := l.Payload.(*campaignLane)
		plan := plan
		plan.Seed = base + int64(run)
		if cl.inj == nil {
			inj, err := faults.Attach(l.Fabric, plan)
			if err != nil {
				return err
			}
			cl.inj = inj
			return nil
		}
		l.Fabric.Reset()
		return cl.inj.Rearm(plan)
	}
	done := func(l *batchrun.Lane, run int, res fabric.Result, err error) error {
		cl := l.Payload.(*campaignLane)
		rec, err := classifyRun(base+int64(run), res, err, cl.inj.Counts().Total(), cl.inst.Sink.Tokens(), golden)
		if err != nil {
			return err // cancelled: abort the campaign, not an outcome
		}
		recs[run] = rec
		return nil
	}
	if err := b.Run(ctx, runs, arm, done); err != nil {
		return nil, err
	}
	return recs, nil
}

// RunDataCampaignBatch is RunDataCampaign over `lanes` batch lanes:
// the same runs, seeds, budget and classification, with instance and
// attach costs amortized across the campaign. Results are bit-identical
// to the serial runner (the differential tests assert it for every
// kernel); lanes <= 1 simply delegates.
func RunDataCampaignBatch(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, runs, lanes int) (*CampaignReport, error) {
	if lanes <= 1 {
		return RunDataCampaign(ctx, spec, p, plan, runs)
	}
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
	recs, err := runCampaignBatch(ctx, spec, p, plan, runs, lanes, false, budget, golden)
	if err != nil {
		return nil, err
	}
	rep.FaultRuns = recs
	for _, run := range recs {
		rep.Taxonomy.add(run)
	}
	return rep, nil
}

// RunTimingCampaignBatch is RunTimingCampaign over `lanes` batch lanes.
// The serial runner aborts at the first (lowest-seed) violating run;
// the batch runs retire out of order, so the batch collects all
// outcomes and reports the lowest-run violation — the same error the
// serial runner would have returned. dense selects the dense wake
// policy for the golden run and every lane; lanes <= 1 delegates to the
// serial runner.
func RunTimingCampaignBatch(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, runs, lanes int, dense bool) (*CampaignReport, error) {
	if lanes <= 1 {
		return RunTimingCampaign(ctx, spec, p, plan, runs, dense)
	}
	if !plan.Timing() {
		return nil, fmt.Errorf("%s: timing campaign given a data-fault plan", spec.Name)
	}
	p = spec.Normalize(p)
	golden, cycles, err := goldenRun(ctx, spec, p, dense)
	if err != nil {
		return nil, err
	}
	if plan.To <= 0 {
		plan.To = cycles
	}
	rep := &CampaignReport{Workload: spec.Name, Plan: plan, GoldenCycles: cycles}
	budget := campaignBudget(cycles, spec.MaxCycles(p))
	recs, err := runCampaignBatch(ctx, spec, p, plan, runs, lanes, dense, budget, golden)
	if err != nil {
		return nil, err
	}
	for _, run := range recs {
		if run.Outcome != OutcomeMasked {
			return nil, fmt.Errorf("%s: latency-insensitivity violated under timing faults (seed %d): %s: %s",
				spec.Name, run.Seed, run.Outcome, run.Detail)
		}
	}
	rep.FaultRuns = recs
	for _, run := range recs {
		rep.Taxonomy.add(run)
	}
	return rep, nil
}
