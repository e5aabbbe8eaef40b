// Package batchrun runs a campaign's many runs on reused fabric
// instances: one topology, built once per lane, with each run re-armed
// in place instead of rebuilt.
//
// A campaign (internal/core's resilience runners, the service's
// campaign jobs, tiabench sweeps) executes the same netlist hundreds of
// times, varying only the fault-plan seed. Building a fresh instance
// per run pays the whole static cost — netlist construction, wiring
// tables, trigger classification, compiled step closures, fault-site
// scanning and PRNG seeding — for a few thousand simulated cycles of
// dynamic work. A batch pays it once per lane; between runs only the
// dynamic state is re-armed: Fabric.Reset restores the state each
// element and channel was built with, and faults.Rearm the PRNGs and
// window schedules. Differential tests prove both equal a fresh build.
//
// Runs execute one at a time, in order, each to completion through the
// fabric's own RunContext (BeginRun + Finish), so a run's outcome is the
// serial outcome by construction. Run r uses lane r mod K; the campaign
// runners use a single lane.
package batchrun

import (
	"context"
	"fmt"

	"tia/internal/fabric"
)

// Lane is one reused instance: a fabric plus whatever payload the
// caller attached (typically the workload instance and its fault
// injector). The fabric's static structure is built once, when the
// batch is; runs only Reset and re-arm it.
type Lane struct {
	// ID is the lane's index in the batch, fixed for its lifetime.
	ID int
	// Fabric is the lane's instance; the batch runs it via RunContext.
	Fabric *fabric.Fabric
	// Payload is the caller's per-lane state (instance, injector, ...).
	Payload any

	run int // index of the run in flight, -1 when idle
}

// Run reports the index of the run the lane is currently executing
// (valid inside the arm/done callbacks).
func (l *Lane) Run() int { return l.run }

// Config sizes a batch.
type Config struct {
	// Lanes is the number of instances New builds. Values below 1 are
	// treated as 1. Runs execute one at a time whatever the count, so
	// more than one lane only costs builds.
	Lanes int
	// MaxCycles is the per-run cycle budget, exactly as a serial
	// RunContext would receive it.
	MaxCycles int64
	// EvictAfter is accepted and ignored. It once bounded how long a
	// lane could stay in a lockstep loop that no longer exists.
	EvictAfter int64
}

// Batch is a set of lanes over one topology. Create with New, execute
// campaigns with Run; a batch is reusable across campaigns but not
// concurrently.
type Batch struct {
	cfg   Config
	lanes []*Lane
}

// New builds a batch of cfg.Lanes lanes, calling build once per lane.
// build returns the lane's fabric and an arbitrary payload stored on
// the lane. The fabrics must be structurally identical instantiations
// of one topology — the batch does not check this, but the campaign
// contract (bit-identical to serial) only holds if each lane's run is
// the run a fresh build would have produced.
func New(cfg Config, build func(lane int) (*fabric.Fabric, any, error)) (*Batch, error) {
	if cfg.Lanes < 1 {
		cfg.Lanes = 1
	}
	if cfg.MaxCycles < 1 {
		return nil, fmt.Errorf("batchrun: MaxCycles %d < 1", cfg.MaxCycles)
	}
	b := &Batch{cfg: cfg}
	for i := 0; i < cfg.Lanes; i++ {
		f, payload, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("batchrun: build lane %d: %w", i, err)
		}
		if f == nil {
			return nil, fmt.Errorf("batchrun: build lane %d returned nil fabric", i)
		}
		b.lanes = append(b.lanes, &Lane{ID: i, Fabric: f, Payload: payload, run: -1})
	}
	return b, nil
}

// Lanes returns the batch's lane count.
func (b *Batch) Lanes() int { return len(b.lanes) }

// Run executes runs runs in order, run r on lane r mod K. For each run
// it calls arm(lane, run) to re-arm the lane's dynamic state (Reset to
// the build-time state + Rearm, or a first-run Attach), runs the lane's
// fabric with RunContext, and calls done(lane, run, result, err) with
// that run's Result and error.
//
// An error from arm or done stops the batch at that run; done's error
// is returned unwrapped, so a runner that rejects a run's outcome
// reports its own error.
func (b *Batch) Run(ctx context.Context, runs int, arm func(l *Lane, run int) error, done func(l *Lane, run int, res fabric.Result, err error) error) error {
	for r := 0; r < runs; r++ {
		l := b.lanes[r%len(b.lanes)]
		l.run = r
		if err := arm(l, r); err != nil {
			return fmt.Errorf("batchrun: arm lane %d run %d: %w", l.ID, r, err)
		}
		res, err := l.Fabric.RunContext(ctx, b.cfg.MaxCycles)
		if err := done(l, r, res, err); err != nil {
			return err
		}
		l.run = -1
	}
	return nil
}
