package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"tia/internal/channel"
	"tia/internal/fabric"
	"tia/internal/faults"
	"tia/internal/isa"
	"tia/internal/mem"
	"tia/internal/pcpe"
	"tia/internal/pe"
	"tia/internal/workloads"
)

// TestBatchedCampaignDifferential is the reused-instance contract: for
// every kernel, a batched data campaign and a batched timing campaign
// must produce reports bit-identical to the fresh-build serial runners
// — the same per-run records (outcome, cycles, injected counts, detail
// strings), the same taxonomy, the same golden anchor. The oracle
// timing arm runs the interpreter under dense stepping against the
// compiled serial runs, so instance reuse and dispatch answer to one
// reference. Run under -race in `make batch-smoke` this also shakes out
// any state one run leaks into the next.
//
// After every run it also compares the state of every element and
// channel with the fresh build's: PE and PC PE statistics, registers
// and predicates, scratchpad counters and image, source positions, sink
// tokens and channel statistics. Fabric.Reset restores what each
// element's snapshot encodes, so a field a snapshot leaves out shows
// here as a divergence. The round-robin, issue-width-2 configuration
// makes the scheduler's rotation offset matter.
func TestBatchedCampaignDifferential(t *testing.T) {
	ctx := context.Background()
	for _, spec := range workloads.All() {
		for _, cfg := range []struct {
			name string
			p    workloads.Params
		}{
			{"", workloads.Params{Seed: 11, Size: 8}},
			{"/rr-w2", workloads.Params{Seed: 11, Size: 8, Policy: pe.SchedRoundRobin, IssueWidth: 2}},
		} {
			spec, p := spec, cfg.p
			t.Run(spec.Name+cfg.name, func(t *testing.T) {
				data := faults.Plan{Seed: 9100, FlipRate: 0.01, DropRate: 0.005, DupRate: 0.005}
				const runs = 12

				serial, serialSt, err := observedCampaign(ctx, spec, p, data, runs, false, false, false)
				if err != nil {
					t.Fatalf("serial data campaign: %v", err)
				}
				batched, batchedSt, err := observedCampaign(ctx, spec, p, data, runs, false, false, true)
				if err != nil {
					t.Fatalf("batched data campaign: %v", err)
				}
				if !reflect.DeepEqual(serial, batched) {
					t.Errorf("data campaign reports diverge:\nserial:  %+v\nbatched: %+v", serial, batched)
				}
				compareStates(t, "batched data", serialSt, batchedSt)

				timing := DefaultTimingPlan(9200)
				serialT, serialTSt, err := observedCampaign(ctx, spec, p, timing, 6, true, false, false)
				if err != nil {
					t.Fatalf("serial timing campaign: %v", err)
				}
				batchedT, batchedTSt, err := observedCampaign(ctx, spec, p, timing, 6, true, false, true)
				if err != nil {
					t.Fatalf("batched timing campaign: %v", err)
				}
				if !reflect.DeepEqual(serialT, batchedT) {
					t.Errorf("timing campaign reports diverge:\nserial:  %+v\nbatched: %+v", serialT, batchedT)
				}
				compareStates(t, "batched timing", serialTSt, batchedTSt)
				oracleT, oracleTSt, err := observedCampaign(ctx, spec, p, timing, 6, true, true, true)
				if err != nil {
					t.Fatalf("batched oracle timing campaign: %v", err)
				}
				if !reflect.DeepEqual(serialT, oracleT) {
					t.Errorf("oracle batched timing campaign diverges:\nserial: %+v\noracle: %+v", serialT, oracleT)
				}
				compareStates(t, "oracle batched timing", serialTSt, oracleTSt)
			})
		}
	}
}

// observedCampaign runs a campaign the way the public runners do:
// fresh builds (RunDataCampaign, RunTimingCampaign) or one reused
// instance (RunDataCampaignBatch, RunTimingCampaignBatch). It returns
// the report and, for each run, the state of every element and channel
// once the run finished.
func observedCampaign(ctx context.Context, spec *workloads.Spec, p workloads.Params, plan faults.Plan, runs int, timing, oracle, reused bool) (*CampaignReport, [][]elemState, error) {
	c, err := beginCampaign(ctx, spec, p, plan, timing, oracle)
	if err != nil {
		return nil, nil, err
	}
	var states [][]elemState
	c.after = func(run int, inst *workloads.Instance) {
		states = append(states, fabricState(inst.Fabric))
	}
	run := c.runFresh
	if reused {
		run = c.runReused
	}
	rep, err := run(ctx, runs)
	return rep, states, err
}

// elemState is one element's or channel's observable state after a run.
type elemState struct {
	Name  string
	State any
}

// fabricState reads every element's and channel's observable state.
func fabricState(f *fabric.Fabric) []elemState {
	var out []elemState
	for _, e := range f.Elements() {
		var st any
		switch e := e.(type) {
		case *pe.PE:
			cfg := e.Config()
			regs := make([]isa.Word, cfg.NumRegs)
			for i := range regs {
				regs[i] = e.Reg(i)
			}
			preds := make([]bool, cfg.NumPreds)
			for i := range preds {
				preds[i] = e.Pred(i)
			}
			st = []any{e.Stats(), regs, preds, e.Done()}
		case *pcpe.PE:
			st = []any{e.Stats(), e.PC(), e.Done()}
		case *mem.Scratchpad:
			image := make([]isa.Word, e.Size())
			for i := range image {
				image[i] = e.Word(i)
			}
			st = []any{e.Reads(), e.Writes(), image}
		case *fabric.Source:
			st = e.Remaining()
		case *fabric.Sink:
			st = []any{append([]channel.Token(nil), e.Tokens()...), e.Completed()}
		default:
			st = fmt.Sprintf("unobserved %T", e)
		}
		out = append(out, elemState{e.Name(), st})
	}
	for _, ch := range f.Channels() {
		out = append(out, elemState{ch.Name(), []any{ch.Stats(), ch.Len()}})
	}
	return out
}

// compareStates reports the first element or channel, per run, whose
// state after a run differs from the fresh build's.
func compareStates(t *testing.T, label string, want, got [][]elemState) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d runs observed, fresh build %d", label, len(got), len(want))
		return
	}
	for r := range want {
		for i := range want[r] {
			if !reflect.DeepEqual(want[r][i], got[r][i]) {
				t.Errorf("%s run %d: %s is %+v after the run, fresh build %+v", label, r, got[r][i].Name, got[r][i].State, want[r][i].State)
				break
			}
		}
	}
}

// TestBatchedCampaignSmoke pins the batched taxonomy to the exact
// counts of TestFaultCampaignSmoke: same kernel, same plan, same seeds,
// executed on one reused instance. Identical pins, not merely
// self-consistent — the batched path must reproduce the serial numbers.
func TestBatchedCampaignSmoke(t *testing.T) {
	ctx := context.Background()
	spec, err := workloads.ByName("mergesort")
	if err != nil {
		t.Fatal(err)
	}
	p := workloads.Params{Seed: 11, Size: 12}
	plan := faults.Plan{Seed: 4242, FlipRate: 0.02, DropRate: 0.01}
	rep, err := RunDataCampaignBatch(ctx, spec, p, plan, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := Taxonomy{Runs: 12, Masked: 7, Detected: 3, SDC: 1, Hang: 1, Injected: 9}
	if !reflect.DeepEqual(rep.Taxonomy, want) {
		t.Fatalf("taxonomy = %+v, want %+v", rep.Taxonomy, want)
	}
}

// A batched timing campaign over a violating plan must report the same
// lowest-seed violation error the serial runner aborts with.
func TestBatchedTimingViolationMatchesSerial(t *testing.T) {
	ctx := context.Background()
	spec, err := workloads.ByName("mergesort")
	if err != nil {
		t.Fatal(err)
	}
	p := workloads.Params{Seed: 11, Size: 8}
	// A data plan disguised as... no: timing plans cannot violate by
	// construction on healthy kernels, so force a violation by rejecting
	// the plan shape instead: both runners must agree on the error.
	bad := DefaultTimingPlan(1)
	bad.FlipRate = 0.1
	_, serialErr := RunTimingCampaign(ctx, spec, p, bad, 2, false)
	_, batchErr := RunTimingCampaignBatch(ctx, spec, p, bad, 2, 2, false)
	if serialErr == nil || batchErr == nil {
		t.Fatalf("data-fault plan accepted: serial=%v batch=%v", serialErr, batchErr)
	}
	if serialErr.Error() != batchErr.Error() {
		t.Fatalf("errors diverge: serial=%q batch=%q", serialErr, batchErr)
	}
}

// TestCampaignBuildsOnce pins what the batched runners amortize: a
// campaign builds the kernel exactly twice, once for the golden run and
// once for the instance every faulty run re-arms, whatever lanes says.
func TestCampaignBuildsOnce(t *testing.T) {
	ctx := context.Background()
	base, err := workloads.ByName("mergesort")
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	spec := *base
	spec.BuildTIA = func(p workloads.Params) (*workloads.Instance, error) {
		builds++
		return base.BuildTIA(p)
	}
	p := workloads.Params{Seed: 11, Size: 8}
	const runs = 12
	for _, lanes := range []int{1, 8, 64} {
		builds = 0
		if _, err := RunDataCampaignBatch(ctx, &spec, p, DefaultDataPlan(3), runs, lanes); err != nil {
			t.Fatalf("data campaign at %d lanes: %v", lanes, err)
		}
		if builds != 2 {
			t.Errorf("data campaign at %d lanes built %d instances, want 2", lanes, builds)
		}
		builds = 0
		if _, err := RunTimingCampaignBatch(ctx, &spec, p, DefaultTimingPlan(3), runs, lanes, false); err != nil {
			t.Fatalf("timing campaign at %d lanes: %v", lanes, err)
		}
		if builds != 2 {
			t.Errorf("timing campaign at %d lanes built %d instances, want 2", lanes, builds)
		}
	}
}
