// Package batchrun is the structure-of-arrays batched stepper for
// campaign execution: one topology, K independent lanes of dynamic
// state, advanced in lockstep one cycle at a time.
//
// A campaign (internal/core's resilience runners, the service's
// campaign jobs, tiabench sweeps) executes the same netlist hundreds of
// times, varying only the fault-plan seed. Building a fresh instance
// per run pays the whole static cost — netlist construction, wiring
// tables, trigger classification, compiled step closures, fault-site
// scanning and PRNG seeding — for a few thousand simulated cycles of
// dynamic work. The batch splits those axes: everything static is
// instantiated once per lane for the lifetime of the batch, and only
// the dynamic state (register files, predicate words, channel ring
// buffers, scratchpad contents, PRNG positions, window schedules) is
// re-armed between runs via Fabric.Reset + faults.Rearm, both of which
// are proven bit-identical to a fresh build by differential tests.
//
// Scheduling never changes results: each lane is driven by the same
// fabric.Stepper that implements Fabric.RunContext, one cycle per
// lockstep turn, and a lane's outcome depends only on its own state.
// The lane-active bitmask tracks which lanes still have a run in
// flight; lanes retire independently (completion, deadlock, fault
// divergence, budget exhaustion) and are immediately re-armed with the
// next pending run. A lane that outlives the batch's eviction horizon
// is evicted: its remaining cycles are finished outside the lockstep
// loop (Stepper.Finish) so one livelocked run cannot hold the loop
// hostage — eviction changes scheduling, never results, and the
// recorded outcome taxonomy is exact.
package batchrun

import (
	"context"
	"fmt"
	"math/bits"

	"tia/internal/fabric"
)

// Lane is one unit of dynamic state in the batch: a fabric instance
// plus whatever per-lane payload the caller attached (typically the
// workload instance and its fault injector). The fabric's static
// structure is built once, when the batch is; runs only Reset and
// re-arm it.
type Lane struct {
	// ID is the lane's index in the batch, fixed for its lifetime.
	ID int
	// Fabric is the lane's instance; the batch drives it via BeginRun.
	Fabric *fabric.Fabric
	// Payload is the caller's per-lane state (instance, injector, ...).
	Payload any

	stepper *fabric.Stepper
	run     int   // index of the run in flight, -1 when idle
	steps   int64 // lockstep cycles spent on the current run
}

// Run reports the index of the run the lane is currently executing
// (valid inside the arm/done callbacks).
func (l *Lane) Run() int { return l.run }

// Config sizes a batch.
type Config struct {
	// Lanes is the number of concurrent lanes (K). Values below 1 are
	// treated as 1.
	Lanes int
	// MaxCycles is the per-run cycle budget handed to each lane's
	// stepper, exactly as a serial RunContext would receive it.
	MaxCycles int64
	// EvictAfter, when positive, is the lockstep-cycle horizon after
	// which a still-running lane is evicted from the batch and finished
	// outside the lockstep loop. Zero means lanes are never evicted (a
	// hung lane then runs its full budget inside the lockstep loop,
	// which is correct but lets one livelocked run dominate the loop).
	EvictAfter int64
}

// Batch is a set of lanes over one topology. Create with New, execute
// campaigns with Run; a batch is reusable across campaigns (Run resets
// the lane bookkeeping) but not concurrently.
type Batch struct {
	cfg   Config
	lanes []*Lane
	mask  []uint64 // lane-active bitmask, bit i = lanes[i] has a run in flight
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
	b := &Batch{
		cfg:  cfg,
		mask: make([]uint64, (cfg.Lanes+63)/64),
	}
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

// ActiveMask returns the lane-active bitmask words (bit i of word i/64
// set while lane i has a run in flight). The returned slice aliases the
// batch's state; treat it as read-only.
func (b *Batch) ActiveMask() []uint64 { return b.mask }

func (b *Batch) setActive(i int, on bool) {
	if on {
		b.mask[i/64] |= 1 << uint(i%64)
	} else {
		b.mask[i/64] &^= 1 << uint(i%64)
	}
}

// Run executes runs runs across the batch's lanes. For each run it
// picks an idle lane, calls arm(lane, run) to re-arm the lane's
// dynamic state (Reset + Rearm, or a first-run Attach), then advances
// all armed lanes in lockstep, one cycle per lane per turn. When a
// lane's run finishes — for any reason a serial RunContext would have
// finished it — done(lane, run, result, err) is called with exactly the
// Result and error a serial RunContext of that run would have
// returned, and the lane is re-armed with the next pending run.
// Lanes exceeding cfg.EvictAfter lockstep cycles are evicted and
// finished serially before their done callback runs.
//
// An error from arm or done aborts the batch immediately (in-flight
// lanes are abandoned, their fabrics left mid-run; Run resets lanes on
// the next call). Run itself never reorders or rewrites outcomes: the
// callbacks observe per-run results identical to serial execution, in
// retirement order.
func (b *Batch) Run(ctx context.Context, runs int, arm func(l *Lane, run int) error, done func(l *Lane, run int, res fabric.Result, err error) error) error {
	for _, l := range b.lanes {
		l.run = -1
		l.stepper = nil
		l.steps = 0
	}
	for i := range b.mask {
		b.mask[i] = 0
	}
	next := 0
	refill := func(l *Lane) error {
		for next < runs {
			r := next
			next++
			if err := arm(l, r); err != nil {
				return fmt.Errorf("batchrun: arm lane %d run %d: %w", l.ID, r, err)
			}
			st, err := l.Fabric.BeginRun(ctx, b.cfg.MaxCycles)
			if err != nil {
				return fmt.Errorf("batchrun: begin lane %d run %d: %w", l.ID, r, err)
			}
			l.stepper, l.run, l.steps = st, r, 0
			b.setActive(l.ID, true)
			return nil
		}
		return nil
	}
	retire := func(l *Lane) error {
		res, err := l.stepper.Result()
		run := l.run
		b.setActive(l.ID, false)
		dErr := done(l, run, res, err)
		l.stepper, l.run, l.steps = nil, -1, 0
		if dErr != nil {
			return dErr
		}
		return refill(l)
	}
	for _, l := range b.lanes {
		if err := refill(l); err != nil {
			return err
		}
	}
	for {
		live := false
		for w, word := range b.mask {
			for word != 0 {
				i := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				l := b.lanes[i]
				live = true
				if l.stepper.Step() {
					if err := retire(l); err != nil {
						return err
					}
					continue
				}
				l.steps++
				if b.cfg.EvictAfter > 0 && l.steps >= b.cfg.EvictAfter {
					// Evict: the lane has outlived the horizon (almost
					// always a hung run burning its budget). Finish it
					// outside the lockstep loop so the loop stays full;
					// the outcome is the same stepper's, hence identical.
					l.stepper.Finish()
					if err := retire(l); err != nil {
						return err
					}
				}
			}
		}
		if !live {
			return nil
		}
	}
}
