package workloads

// Differential tests for the fault-injection seams: wrapping every
// channel and element of a kernel with a zero-rate fault plan must be a
// provable no-op — identical cycle counts, sink token streams, and PE
// statistics to the unwrapped fast path — under every stepping mode
// (dense, event-driven, closure-compiled). This pins the hooked channel
// path (tickFaulty with an empty plan) to the unhooked fast path, so
// campaign results are attributable to the injected faults and never to
// the instrumentation itself.

import (
	"reflect"
	"testing"

	"tia/internal/faults"
)

func observeTIAFaultWrapped(t *testing.T, spec *Spec, p Params, dense, compiled bool, plan *faults.Plan) kernelObservation {
	t.Helper()
	inst, err := spec.BuildTIA(p)
	if err != nil {
		t.Fatalf("%s: build: %v", spec.Name, err)
	}
	inst.Fabric.SetDenseStepping(dense)
	inst.Fabric.SetInterpreted(!compiled)
	if plan != nil {
		if _, err := faults.Attach(inst.Fabric, *plan); err != nil {
			t.Fatalf("%s: attach: %v", spec.Name, err)
		}
	}
	res, err := inst.Fabric.Run(spec.MaxCycles(p))
	if err != nil {
		t.Fatalf("%s: run (dense=%v compiled=%v wrapped=%v): %v", spec.Name, dense, compiled, plan != nil, err)
	}
	obs := kernelObservation{Cycles: res.Cycles, Tokens: inst.Sink.Tokens()}
	for _, pr := range inst.PEs {
		obs.PEStats = append(obs.PEStats, pr.Stats())
	}
	return obs
}

func TestZeroRateFaultPlanDifferential(t *testing.T) {
	for _, spec := range All() {
		for _, mode := range stepModes {
			mode := mode
			t.Run(spec.Name+"/"+mode.label, func(t *testing.T) {
				p := spec.Normalize(Params{Seed: 11, Size: 12})
				base := observeTIAFaultWrapped(t, spec, p, mode.dense, mode.compiled, nil)
				plan := &faults.Plan{Seed: 99}
				wrapped := observeTIAFaultWrapped(t, spec, p, mode.dense, mode.compiled, plan)
				if base.Cycles != wrapped.Cycles {
					t.Errorf("cycles differ: unwrapped %d, zero-rate wrapped %d", base.Cycles, wrapped.Cycles)
				}
				if !reflect.DeepEqual(base.Tokens, wrapped.Tokens) {
					t.Errorf("sink token streams differ:\nunwrapped %v\nwrapped   %v", base.Tokens, wrapped.Tokens)
				}
				if !reflect.DeepEqual(base.PEStats, wrapped.PEStats) {
					t.Errorf("PE stats differ:\nunwrapped %+v\nwrapped   %+v", base.PEStats, wrapped.PEStats)
				}
			})
		}
	}
}

// TestFaultPlanSteppingDifferential pins active (non-zero-rate) fault
// plans across stepping modes: the injected fault sequence is a pure
// function of per-site event streams, so dense, event and compiled runs
// of the same plan must produce the same perturbed execution — not just
// fault-free ones.
func TestFaultPlanSteppingDifferential(t *testing.T) {
	plan := &faults.Plan{Seed: 23, JitterRate: 0.2, JitterMax: 3, Stalls: 2, StallMax: 5, Freezes: 1, FreezeMax: 4}
	for _, name := range []string{"mergesort", "smvm"} {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			p := spec.Normalize(Params{Seed: 11, Size: 12})
			base := observeTIAFaultWrapped(t, spec, p, stepModes[0].dense, stepModes[0].compiled, plan)
			for _, mode := range stepModes[1:] {
				got := observeTIAFaultWrapped(t, spec, p, mode.dense, mode.compiled, plan)
				if !reflect.DeepEqual(base, got) {
					t.Errorf("%s diverged from dense under an active plan:\ndense %+v\n%-5s %+v",
						mode.label, base, mode.label, got)
				}
			}
		})
	}
}
