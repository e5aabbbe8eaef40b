// Reused-instance campaign execution: the resilience campaigns of
// resilience.go, run on one instance built once and re-armed between
// runs (internal/batchrun) instead of a fresh instance per run. The
// contract is bit-identical results — same FaultRun records, same
// Taxonomy, same errors — with the per-run static costs (netlist build,
// wiring tables, compiled trigger plans, fault-site scanning) paid once
// per campaign instead of once per run.
package core

import (
	"context"
	"fmt"

	"tia/internal/batchrun"
	"tia/internal/fabric"
	"tia/internal/faults"
	"tia/internal/workloads"
)

// runReused executes the campaign's runs in order on one instance. The
// first run Attaches the plan; every later one re-arms the instance
// with Reset, a restore of the state the instance was built in, and
// Rearm, differentially proven equal to a fresh build and Attach down
// to every element's statistics. Each run steps on the fabric's own cycle loop under the
// campaign's stepping, and is classified and recorded as it finishes,
// so a timing campaign stops at its first violating run exactly as
// runFresh does.
func (c *campaign) runReused(ctx context.Context, runs int) (*CampaignReport, error) {
	b, err := batchrun.New(batchrun.Config{Lanes: 1, MaxCycles: c.budget},
		func(int) (*fabric.Fabric, any, error) {
			inst, err := c.spec.BuildTIA(c.p)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: build: %w", c.spec.Name, err)
			}
			setOracle(inst.Fabric, c.oracle)
			return inst.Fabric, inst, nil
		})
	if err != nil {
		return nil, err
	}
	var inj *faults.Injector
	arm := func(l *batchrun.Lane, run int) error {
		if inj == nil {
			var err error
			inj, err = faults.Attach(l.Fabric, c.runPlan(run))
			return err
		}
		l.Fabric.Reset()
		return inj.Rearm(c.runPlan(run))
	}
	done := func(l *batchrun.Lane, run int, res fabric.Result, err error) error {
		inst := l.Payload.(*workloads.Instance)
		if c.after != nil {
			c.after(run, inst)
		}
		rec, err := classifyRun(c.runPlan(run).Seed, res, err, inj.Counts().Total(), inst.Sink.Tokens(), c.golden)
		if err != nil {
			return err // cancelled: abort the campaign, not an outcome
		}
		return c.record(rec)
	}
	if err := b.Run(ctx, runs, arm, done); err != nil {
		return nil, err
	}
	return c.rep, nil
}

// RunDataCampaignBatch is RunDataCampaign on one reused instance: the
// same runs, seeds, budget and classification, with the instance build
// and fault attach paid once per campaign. Results are bit-identical to
// the fresh-build runner (the differential tests assert it for every
// kernel). lanes is accepted and ignored.
func RunDataCampaignBatch(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, runs, lanes int) (*CampaignReport, error) {
	c, err := beginCampaign(ctx, spec, p, plan, false, false)
	if err != nil {
		return nil, err
	}
	return c.runReused(ctx, runs)
}

// RunTimingCampaignBatch is RunTimingCampaign on one reused instance,
// stopping at the first violating run with the same error. oracle
// selects the reference stepping (see setOracle) for the golden run and
// every faulty run. lanes is accepted and ignored.
func RunTimingCampaignBatch(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, runs, lanes int, oracle bool) (*CampaignReport, error) {
	c, err := beginCampaign(ctx, spec, p, plan, true, oracle)
	if err != nil {
		return nil, err
	}
	return c.runReused(ctx, runs)
}
