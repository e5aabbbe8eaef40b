package workloads

// Differential tests for deterministic checkpoint/restore: running a
// kernel to completion must be indistinguishable from snapshotting it at
// an arbitrary mid-run cycle and restoring the snapshot into a freshly
// built instance — identical cycle counts, sink token streams, per-PE
// statistics and fault-injection counters — for every kernel, under
// every stepping mode (dense, event, closure-compiled), with and
// without an active fault plan. This is the headline correctness
// contract of internal/snapshot + fabric.Snapshot/Restore.

import (
	"reflect"
	"testing"

	"tia/internal/channel"
	"tia/internal/faults"
	"tia/internal/pcpe"
	"tia/internal/pe"
)

// snapObservation is everything an external observer can compare between
// an uninterrupted run and a snapshot/restore run.
type snapObservation struct {
	Cycles    int64
	Completed bool
	Err       string
	Tokens    []channel.Token
	PEStats   []pe.Stats
	PCStats   []pcpe.Stats
	Faults    faults.Counts
}

// buildForSnapshot constructs one kernel instance with the requested
// stepping mode and (optionally) an attached fault plan.
func buildForSnapshot(t *testing.T, spec *Spec, p Params, pc, dense, compiled bool, plan *faults.Plan) (*Instance, *faults.Injector) {
	t.Helper()
	build := spec.BuildTIA
	if pc {
		build = spec.BuildPC
	}
	inst, err := build(p)
	if err != nil {
		t.Fatalf("%s: build: %v", spec.Name, err)
	}
	inst.Fabric.SetDenseStepping(dense)
	inst.Fabric.SetInterpreted(!compiled)
	var inj *faults.Injector
	if plan != nil {
		if inj, err = faults.Attach(inst.Fabric, *plan); err != nil {
			t.Fatalf("%s: attach: %v", spec.Name, err)
		}
	}
	return inst, inj
}

func snapObserve(inst *Instance, inj *faults.Injector, cycles int64, completed bool, err error) snapObservation {
	obs := snapObservation{Cycles: cycles, Completed: completed, Tokens: inst.Sink.Tokens()}
	if err != nil {
		obs.Err = err.Error()
	}
	for _, pr := range inst.PEs {
		obs.PEStats = append(obs.PEStats, pr.Stats())
	}
	for _, pr := range inst.PCPEs {
		obs.PCStats = append(obs.PCStats, pr.Stats())
	}
	if inj != nil {
		obs.Faults = inj.Counts()
	}
	return obs
}

// runSnapshotDifferential runs the three-way contract for one
// configuration: (A) uninterrupted, (B) checkpointed mid-run but left to
// finish — checkpointing must not perturb anything — and (C) a fresh
// instance restored from B's mid-run snapshot and run to the end. All
// three observations must be deeply equal (including error text for
// fault plans that hang or deadlock the kernel: a restored run must fail
// at the same absolute cycle with the same diagnosis).
func runSnapshotDifferential(t *testing.T, spec *Spec, p Params, pc, dense, compiled bool, plan *faults.Plan) {
	t.Helper()
	fp := "test:" + spec.Name // stand-in fingerprint; both sides must agree

	a, injA := buildForSnapshot(t, spec, p, pc, dense, compiled, plan)
	resA, errA := a.Fabric.Run(spec.MaxCycles(p))
	obsA := snapObserve(a, injA, resA.Cycles, resA.Completed, errA)
	if plan == nil && errA != nil {
		t.Fatalf("%s: fault-free run failed: %v", spec.Name, errA)
	}

	mid := resA.Cycles / 2
	if mid < 1 {
		mid = 1
	}

	b, injB := buildForSnapshot(t, spec, p, pc, dense, compiled, plan)
	var snap []byte
	b.Fabric.SetCheckpoint(mid, func(cycle int64) error {
		if snap != nil {
			return nil
		}
		s, err := b.Fabric.Snapshot(fp)
		if err != nil {
			return err
		}
		snap = s
		if cycle != mid {
			t.Errorf("first checkpoint at cycle %d, want %d", cycle, mid)
		}
		return nil
	})
	resB, errB := b.Fabric.Run(spec.MaxCycles(p))
	obsB := snapObserve(b, injB, resB.Cycles, resB.Completed, errB)
	if !reflect.DeepEqual(obsA, obsB) {
		t.Errorf("checkpointing perturbed the run:\nuninterrupted %+v\ncheckpointed  %+v", obsA, obsB)
	}
	if snap == nil {
		t.Fatalf("no checkpoint fired (run took %d cycles, checkpoint every %d)", resB.Cycles, mid)
	}

	c, injC := buildForSnapshot(t, spec, p, pc, dense, compiled, plan)
	if err := c.Fabric.Restore(snap, fp); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := c.Fabric.Cycle(); got != mid {
		t.Fatalf("restored to cycle %d, want %d", got, mid)
	}
	resC, errC := c.Fabric.Run(spec.MaxCycles(p) - mid)
	obsC := snapObserve(c, injC, resC.Cycles, resC.Completed, errC)
	if !reflect.DeepEqual(obsA, obsC) {
		t.Errorf("restored run diverged:\nuninterrupted %+v\nrestored      %+v", obsA, obsC)
	}

	// A snapshot must refuse to restore onto a different program.
	wrong, _ := buildForSnapshot(t, spec, p, pc, dense, compiled, plan)
	if err := wrong.Fabric.Restore(snap, fp+"-other"); err == nil {
		t.Errorf("restore accepted a mismatched fingerprint")
	}
}

// TestSnapshotRestoreDifferential is the headline contract: all kernels,
// every stepping mode, fault-free and under an active timing fault plan
// (the class that perturbs cycle-level behavior while results must
// still complete byte-identically between the interrupted and
// uninterrupted simulations).
func TestSnapshotRestoreDifferential(t *testing.T) {
	timing := &faults.Plan{Seed: 5, JitterRate: 0.2, JitterMax: 3, Stalls: 2, StallMax: 5, Freezes: 1, FreezeMax: 4}
	for _, spec := range All() {
		for _, mode := range stepModes {
			for planLabel, plan := range map[string]*faults.Plan{"nofault": nil, "timing": timing} {
				mode, plan := mode, plan
				t.Run(spec.Name+"/"+mode.label+"/"+planLabel, func(t *testing.T) {
					p := spec.Normalize(Params{Seed: 11, Size: 12})
					runSnapshotDifferential(t, spec, p, false, mode.dense, mode.compiled, plan)
				})
			}
		}
	}
}

// TestSnapshotRestoreDifferentialDataFaults exercises restore under an
// active data fault plan: bit flips, drops and duplicated tokens, where
// the run may detect, hang or silently corrupt — whatever the outcome,
// the restored run must reproduce it exactly, error text included.
func TestSnapshotRestoreDifferentialDataFaults(t *testing.T) {
	data := &faults.Plan{Seed: 17, FlipRate: 0.02, DropRate: 0.01, DupRate: 0.01, JitterRate: 0.1, JitterMax: 2}
	for _, name := range []string{"dmm", "kmp"} {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range stepModes {
			mode := mode
			t.Run(name+"/"+mode.label, func(t *testing.T) {
				p := spec.Normalize(Params{Seed: 11, Size: 12})
				runSnapshotDifferential(t, spec, p, false, mode.dense, mode.compiled, data)
			})
		}
	}
}

// TestSnapshotRestorePCBaseline covers the PC-style baseline elements
// (pcpe program counter, branch-penalty pipeline state) on two kernels.
func TestSnapshotRestorePCBaseline(t *testing.T) {
	for _, name := range []string{"dmm", "mergesort"} {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range stepModes {
			mode := mode
			t.Run(name+"/"+mode.label, func(t *testing.T) {
				p := spec.Normalize(Params{Seed: 11, Size: 12})
				runSnapshotDifferential(t, spec, p, true, mode.dense, mode.compiled, nil)
			})
		}
	}
}
