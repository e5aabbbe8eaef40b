package core

import (
	"context"
	"reflect"
	"testing"

	"tia/internal/faults"
	"tia/internal/workloads"
)

// Timing campaigns over every kernel, under production stepping and the
// dense, interpreted reference: the latency-insensitivity property
// means jitter, stalls and freezes may change cycle counts but never
// results. RunTimingCampaign fails loudly on any divergence, so this
// test just drives it.
func TestTimingCampaignsAllKernels(t *testing.T) {
	ctx := context.Background()
	for _, spec := range workloads.All() {
		for _, dense := range []bool{true, false} {
			label := "event"
			if dense {
				label = "dense"
			}
			t.Run(spec.Name+"/"+label, func(t *testing.T) {
				p := workloads.Params{Seed: 11, Size: 12}
				rep, err := RunTimingCampaign(ctx, spec, p, DefaultTimingPlan(1000), 3, dense)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Taxonomy.Masked != rep.Taxonomy.Runs {
					t.Fatalf("taxonomy %+v: timing campaign must mask every run", rep.Taxonomy)
				}
				if rep.Taxonomy.Injected == 0 {
					t.Errorf("campaign injected nothing; plan windows missed the run (golden %d cycles)", rep.GoldenCycles)
				}
			})
		}
	}
}

// RunTimingCampaign must reject plans that inject data faults: those are
// allowed to change results, so they cannot assert latency-insensitivity.
func TestTimingCampaignRejectsDataPlan(t *testing.T) {
	spec, err := workloads.ByName("mergesort")
	if err != nil {
		t.Fatal(err)
	}
	plan := DefaultTimingPlan(1)
	plan.FlipRate = 0.1
	if _, err := RunTimingCampaign(context.Background(), spec, workloads.Params{}, plan, 1, false); err == nil {
		t.Fatal("data-fault plan accepted by timing campaign")
	}
}

// Data campaigns must classify deterministically: the same plan seed over
// the same kernel yields the identical per-run outcome sequence.
func TestDataCampaignDeterministic(t *testing.T) {
	ctx := context.Background()
	spec, err := workloads.ByName("mergesort")
	if err != nil {
		t.Fatal(err)
	}
	p := workloads.Params{Seed: 11, Size: 12}
	plan := faults.Plan{Seed: 2000, FlipRate: 0.01, DropRate: 0.005, DupRate: 0.005}
	a, err := RunDataCampaign(ctx, spec, p, plan, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDataCampaign(ctx, spec, p, plan, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Taxonomy, b.Taxonomy) {
		t.Fatalf("taxonomies diverge:\n%+v\n%+v", a.Taxonomy, b.Taxonomy)
	}
	if !reflect.DeepEqual(a.FaultRuns, b.FaultRuns) {
		t.Fatalf("per-run records diverge:\n%+v\n%+v", a.FaultRuns, b.FaultRuns)
	}
	if a.Taxonomy.Injected == 0 {
		t.Error("campaign injected nothing")
	}
}

// TestFaultCampaignSmoke is the CI smoke: one kernel, one fixed seed,
// and the exact expected taxonomy. math/rand's generator is stable
// across platforms and Go releases for a fixed source, so these counts
// are pinned, not fuzzy — any drift means fault placement or
// classification changed and must be reviewed.
func TestFaultCampaignSmoke(t *testing.T) {
	ctx := context.Background()
	spec, err := workloads.ByName("mergesort")
	if err != nil {
		t.Fatal(err)
	}
	p := workloads.Params{Seed: 11, Size: 12}
	plan := faults.Plan{Seed: 4242, FlipRate: 0.02, DropRate: 0.01}
	rep, err := RunDataCampaign(ctx, spec, p, plan, 12)
	if err != nil {
		t.Fatal(err)
	}
	want := Taxonomy{Runs: 12, Masked: 7, Detected: 3, SDC: 1, Hang: 1, Injected: 9}
	if !reflect.DeepEqual(rep.Taxonomy, want) {
		t.Fatalf("taxonomy = %+v, want %+v", rep.Taxonomy, want)
	}
}
