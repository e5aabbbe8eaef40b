package faults

import (
	"fmt"

	"tia/internal/snapshot"
)

// SnapshotState implements fabric.Snapshotter: it serializes the
// injection counters and each channel site's PRNG position (run-time
// draws since Attach). Window schedules, window cursors and the
// per-cycle stall/freeze caches (with the span between window edges
// that BeginCycle keeps them for) are not state: the schedules are
// redrawn deterministically by re-attaching the same plan, and the
// caches are refreshed from the cycle number on the next BeginCycle.
func (inj *Injector) SnapshotState(e *snapshot.Encoder) {
	e.I64(inj.counts.Jittered)
	e.I64(inj.counts.StallCycles)
	e.I64(inj.counts.FreezeCycles)
	e.I64(inj.counts.Flips)
	e.I64(inj.counts.Drops)
	e.I64(inj.counts.Dups)
	e.I64(inj.counts.DupsElided)
	e.Int(len(inj.chans))
	for _, s := range inj.chans {
		e.String(s.ch.Name())
		e.I64(s.src.draws)
	}
}

// RestoreState implements fabric.Snapshotter. The injector must be
// freshly attached with the same plan to the same fabric (so each site's
// generator sits at its post-attach position); restore then replays the
// recorded number of run-time draws, leaving every generator exactly
// where the checkpoint left it.
func (inj *Injector) RestoreState(d *snapshot.Decoder) error {
	inj.counts = Counts{
		Jittered:     d.I64(),
		StallCycles:  d.I64(),
		FreezeCycles: d.I64(),
		Flips:        d.I64(),
		Drops:        d.I64(),
		Dups:         d.I64(),
		DupsElided:   d.I64(),
	}
	n := d.Count()
	if d.Err() == nil && n != len(inj.chans) {
		return fmt.Errorf("faults: snapshot has %d channel sites, injector has %d (different plan?)", n, len(inj.chans))
	}
	for _, s := range inj.chans {
		name := d.String()
		draws := d.I64()
		if err := d.Err(); err != nil {
			return fmt.Errorf("faults: %w", err)
		}
		if name != s.ch.Name() {
			return fmt.Errorf("faults: snapshot site %q where %q expected (different plan or fabric?)", name, s.ch.Name())
		}
		if draws < 0 {
			return fmt.Errorf("faults: site %q has negative draw count %d", name, draws)
		}
		if s.src.draws != 0 {
			return fmt.Errorf("faults: site %q generator already advanced %d draws; restore needs a freshly attached injector", name, s.src.draws)
		}
		s.src.burn(draws)
		s.src.draws = draws
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("faults: %w", err)
	}
	return nil
}
