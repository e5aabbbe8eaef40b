package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"tia/internal/batchrun"
	"tia/internal/channel"
	"tia/internal/compile"
	"tia/internal/core"
	"tia/internal/fabric"
	"tia/internal/faults"
	"tia/internal/metrics"
	"tia/internal/workloads"
)

const (
	// campaignRuns is the faulty runs per campaign.
	campaignRuns = 64
	// campaignLanes is the service's default batch width for campaign jobs.
	campaignLanes = 8
	// planSeedsPerKind is how many plan seeds each (kernel, plan kind)
	// pair rotates through. Each distinct (kernel, kind, plan seed) is
	// checked against the serial runner once. Hang runs take most of a
	// campaign's cycles and their number varies with the plan seed, so
	// more seeds per run make runs with different benchmark seeds agree.
	planSeedsPerKind = 4
)

// campaignKey names one distinct campaign input.
type campaignKey struct {
	kernel   int
	timing   bool
	planSeed int64
}

// campaignSchedule maps campaign number i to its input: kernels rotate
// every campaign, plan kinds alternate so that every 16 campaigns give
// each kernel one data and one timing campaign, and plan seeds rotate
// through a pool drawn from the benchmark seed.
type campaignSchedule struct {
	specs []*workloads.Spec
	seeds [][]int64 // [kernel*2+kind][planSeedsPerKind]
}

func newCampaignSchedule(seed int64) campaignSchedule {
	s := campaignSchedule{specs: workloads.All()}
	r := rand.New(rand.NewSource(seed))
	s.seeds = make([][]int64, 2*len(s.specs))
	for i := range s.seeds {
		s.seeds[i] = make([]int64, planSeedsPerKind)
		for j := range s.seeds[i] {
			s.seeds[i][j] = r.Int63n(1 << 31)
		}
	}
	return s
}

func (s campaignSchedule) key(i int) campaignKey {
	n := len(s.specs)
	k := campaignKey{kernel: i % n, timing: (i+i/n)%2 == 1}
	kind := 0
	if k.timing {
		kind = 1
	}
	k.planSeed = s.seeds[k.kernel*2+kind][(i/(2*n))%planSeedsPerKind]
	return k
}

// rotation is the number of campaigns in which every (kernel, plan
// kind) pair runs once.
func (s campaignSchedule) rotation() int { return 2 * len(s.specs) }

// allKeys lists every distinct campaign input of the schedule.
func (s campaignSchedule) allKeys() []campaignKey {
	keys := make([]campaignKey, s.rotation()*planSeedsPerKind)
	for i := range keys {
		keys[i] = s.key(i)
	}
	return keys
}

func (k campaignKey) plan() faults.Plan {
	if k.timing {
		return core.DefaultTimingPlan(k.planSeed)
	}
	return core.DefaultDataPlan(k.planSeed)
}

func (k campaignKey) String() string {
	kind := "data"
	if k.timing {
		kind = "timing"
	}
	return fmt.Sprintf("kernel %d %s plan seed %d", k.kernel, kind, k.planSeed)
}

// runCampaign drives back-to-back 64-run fault campaigns through the
// batched public runners at the service's default lane count.
func runCampaign(b *bench) error {
	ctx := context.Background()
	sched := newCampaignSchedule(b.seed)
	params := workloads.Params{}
	batched := func(k campaignKey) (*core.CampaignReport, error) {
		spec := sched.specs[k.kernel]
		if k.timing {
			return core.RunTimingCampaignBatch(ctx, spec, params, k.plan(), campaignRuns, campaignLanes, false)
		}
		return core.RunDataCampaignBatch(ctx, spec, params, k.plan(), campaignRuns, campaignLanes)
	}
	// Set-up is one warm-up campaign of each plan kind.
	if _, err := measureSetup(b, func(ready func()) (struct{}, func(), error) {
		ready()
		for i := 0; i < 2; i++ {
			if _, err := batched(sched.key(i)); err != nil {
				return struct{}{}, nil, err
			}
		}
		return struct{}{}, func() {}, nil
	}); err != nil {
		return err
	}

	cc0 := compile.Counters()
	type done struct {
		key campaignKey
		rep *core.CampaignReport
	}
	var reports []done
	var traced []tracedCampaignResult
	var tr *Tracer
	tally := &campaignTally{}
	if b.traced {
		tr = newTracer()
	}
	var times, tracedTimes []float64
	var busy, cpu time.Duration
	var runs int
	// The window ends on a whole cycle through every distinct input, so
	// each runs equally often. A traced run alternates untraced and traced
	// cycles, so both see the same inputs and a drift in the machine's
	// speed falls on both alike; it ends on a whole pair of cycles.
	cycle := len(sched.allKeys())
	end := cycle
	if b.traced {
		end *= 2
	}
	start := time.Now()
	for i := 0; time.Since(start) < b.window || i%end != 0; i++ {
		k := sched.key(i)
		b.attempted.Add(1)
		if b.traced && (i/cycle)%2 == 1 {
			t0 := time.Now()
			fr, err := tracedCampaign(ctx, tr, sched.specs[k.kernel], params, k.plan(), tally)
			d := time.Since(t0)
			if err != nil {
				b.fail("traced campaign %s: %v", k, err)
				continue
			}
			tracedTimes = append(tracedTimes, ms(d))
			traced = append(traced, tracedCampaignResult{k, fr})
			continue
		}
		t0, c0 := time.Now(), cpuTime()
		rep, err := batched(k)
		d, c := time.Since(t0), cpuTime()-c0
		if err != nil {
			b.fail("campaign %s: %v", k, err)
			continue
		}
		busy += d
		cpu += c
		runs += len(rep.FaultRuns)
		times = append(times, ms(d))
		reports = append(reports, done{k, rep})
	}
	if err := b.recordRSS(); err != nil {
		return err
	}
	p50 := b.latencyMetrics("campaign", times, true)
	b.addNamed("campaign_runs_per_s", float64(runs)/busy.Seconds(), "runs/s", fmt.Sprintf("%d faulty runs", runs))
	b.cpuPerOp(cpu, float64(len(times)), "64-run campaign")
	if b.traced {
		if err := b.campaignLayers(tr, tally); err != nil {
			return err
		}
		b.overheadPct("campaign p50 ms", p50, median(tracedTimes))
	}
	cc1 := compile.Counters()
	lookups := (cc1.Hits + cc1.Misses) - (cc0.Hits + cc0.Misses)
	b.setLayer("compile.plan_hit_ratio", ratio(float64(cc1.Hits-cc0.Hits), float64(lookups)), "ratio")
	b.setLayer("compile.plan_lookups", float64(lookups), "count")

	// Checks: every distinct input once against the serial runner, then
	// every batched (and traced) campaign against that reference. The
	// serial references also give the exact simulated counts.
	refs := map[campaignKey]*core.CampaignReport{}
	var tx core.Taxonomy
	var cycles, faultyCycles, hangCycles int64
	for _, k := range sched.allKeys() {
		spec := sched.specs[k.kernel]
		var ref *core.CampaignReport
		var err error
		if k.timing {
			ref, err = core.RunTimingCampaign(ctx, spec, params, k.plan(), campaignRuns, false)
		} else {
			ref, err = core.RunDataCampaign(ctx, spec, params, k.plan(), campaignRuns)
		}
		if err != nil {
			return fmt.Errorf("serial reference %s: %w", k, err)
		}
		refs[k] = ref
		tx.Runs += ref.Taxonomy.Runs
		tx.Masked += ref.Taxonomy.Masked
		tx.Detected += ref.Taxonomy.Detected
		tx.SDC += ref.Taxonomy.SDC
		tx.Hang += ref.Taxonomy.Hang
		tx.Injected += ref.Taxonomy.Injected
		cycles += ref.GoldenCycles
		for _, r := range ref.FaultRuns {
			faultyCycles += r.Cycles
			if r.Outcome == core.OutcomeHang {
				hangCycles += r.Cycles
			}
		}
	}
	checked := map[campaignKey]bool{}
	for _, d := range reports {
		ref := refs[d.key]
		if !reflect.DeepEqual(d.rep, ref) {
			b.fail("campaign %s: batched report differs from serial core.RunDataCampaign/RunTimingCampaign", d.key)
		}
		checked[d.key] = true
	}
	for _, t := range traced {
		if !reflect.DeepEqual(t.runs, refs[t.key].FaultRuns) {
			b.fail("traced campaign %s: runs differ from the serial reference", t.key)
		}
	}
	b.note("checked %d campaigns over %d distinct (kernel, plan kind, plan seed) inputs against the serial runners", len(reports)+len(traced), len(checked))

	var fires int64
	for _, spec := range sched.specs {
		f, err := goldenFires(ctx, spec, params)
		if err != nil {
			return err
		}
		fires += f
	}
	cycles += faultyCycles
	b.addSim("campaign.runs", int64(tx.Runs))
	b.addSim("campaign.masked", int64(tx.Masked))
	b.addSim("campaign.detected", int64(tx.Detected))
	b.addSim("campaign.sdc", int64(tx.SDC))
	b.addSim("campaign.hang", int64(tx.Hang))
	b.addSim("campaign.injected", tx.Injected)
	b.addSim("campaign.cycles", cycles)
	b.addSim("campaign.golden_tia_fires", fires)
	b.setLayer("sim.cycles", float64(cycles), "count")
	b.setLayer("sim.fires", float64(fires), "count")
	b.setLayer("campaign.hang_cycle_share", ratio(float64(hangCycles), float64(faultyCycles)), "ratio")
	b.setLayer("campaign.faulty_cycles", float64(faultyCycles), "count")
	return nil
}

// goldenFires is the instructions fired by a fault-free run of spec.
func goldenFires(ctx context.Context, spec *workloads.Spec, params workloads.Params) (int64, error) {
	p := spec.Normalize(params)
	inst, err := spec.BuildTIA(p)
	if err != nil {
		return 0, err
	}
	if _, err := inst.Fabric.RunContext(ctx, spec.MaxCycles(p)); err != nil {
		return 0, err
	}
	var fires int64
	for _, pr := range inst.PEs {
		fires += metrics.TIAUtilization(pr).Fired
	}
	return fires, nil
}

type tracedCampaignResult struct {
	key  campaignKey
	runs []core.FaultRun
}

// campaignTally is the simulated work of the traced campaigns.
type campaignTally struct {
	goldenCycles, faultyCycles int64
	campaigns                  int64
}

// campaignLayers derives the per-layer metrics from the traced
// campaigns. Each makes the calls core's batched runners make — golden
// build and run, one lane build per lane, Batch.Run with the same arm
// (faults.Attach, or Fabric.Reset + Injector.Rearm) and the same
// classification — with a span around each.
func (b *bench) campaignLayers(tr *Tracer, tally *campaignTally) error {
	spans := tr.Spans()
	agg := Aggregate(spans)
	n := float64(tally.campaigns)
	golden, run := agg["campaign.golden"], agg["batchrun.Run"]
	build := agg["workloads.BuildTIA"]
	b.setLayer("campaign.golden_ms", ms(golden.MeanTotal()), "ms")
	b.setLayer("faults.arm_us", float64(agg["faults.arm"].MeanTotal())/1e3, "us")
	b.setLayer("batchrun.step_ms", ratio(ms(run.Self), n), "ms")
	b.setLayer("batchrun.ns_per_cycle", ratio(float64(run.Self), float64(tally.faultyCycles)), "ns")
	b.setLayer("fabric.tia_ns_per_cycle", ratio(float64(agg["fabric.RunContext.tia"].Total), float64(tally.goldenCycles)), "ns")
	b.setLayer("workloads.build_tia_us", float64(build.MeanTotal())/1e3, "us")
	b.setLayer("workloads.build_us", ratio(float64(build.Total)/1e3, n), "us")
	return b.writeTrace(spans)
}

// laneState is one batch lane's workload instance and fault injector.
type laneState struct {
	inst *workloads.Instance
	inj  *faults.Injector
}

// tracedCampaign is one batched campaign with spans around each layer
// call. It returns the per-run records in run order.
func tracedCampaign(ctx context.Context, tr *Tracer, spec *workloads.Spec, params workloads.Params, plan faults.Plan, tally *campaignTally) ([]core.FaultRun, error) {
	root := tr.Start("core.Campaign", nil, spec.Name)
	defer root.End()
	p := spec.Normalize(params)

	g := tr.Start("campaign.golden", root, spec.Name)
	sp := tr.Start("workloads.BuildTIA", g, spec.Name)
	inst, err := spec.BuildTIA(p)
	sp.End()
	if err != nil {
		g.End()
		return nil, err
	}
	sp = tr.Start("fabric.RunContext.tia", g, spec.Name)
	gres, err := inst.Fabric.RunContext(ctx, spec.MaxCycles(p))
	sp.End()
	g.End()
	if err != nil {
		return nil, fmt.Errorf("golden run: %w", err)
	}
	golden := inst.Sink.Tokens()
	if plan.To <= 0 {
		plan.To = gres.Cycles
	}
	// The faulty-run budget of core's campaign runners.
	budget := min(gres.Cycles*8+1<<15, spec.MaxCycles(p))

	nb := tr.Start("batchrun.New", root, spec.Name)
	batch, err := batchrun.New(batchrun.Config{Lanes: campaignLanes, MaxCycles: budget, EvictAfter: budget / 4},
		func(lane int) (*fabric.Fabric, any, error) {
			sp := tr.Start("workloads.BuildTIA", nb, spec.Name)
			defer sp.End()
			inst, err := spec.BuildTIA(p)
			if err != nil {
				return nil, nil, err
			}
			return inst.Fabric, &laneState{inst: inst}, nil
		})
	nb.End()
	if err != nil {
		return nil, err
	}

	recs := make([]core.FaultRun, campaignRuns)
	base := plan.Seed
	run := tr.Start("batchrun.Run", root, spec.Name)
	arm := func(l *batchrun.Lane, r int) error {
		sp := tr.Start("faults.arm", run, spec.Name)
		defer sp.End()
		ls := l.Payload.(*laneState)
		pl := plan
		pl.Seed = base + int64(r)
		if ls.inj == nil {
			inj, err := faults.Attach(l.Fabric, pl)
			ls.inj = inj
			return err
		}
		l.Fabric.Reset()
		return ls.inj.Rearm(pl)
	}
	done := func(l *batchrun.Lane, r int, res fabric.Result, err error) error {
		sp := tr.Start("campaign.classify", run, spec.Name)
		defer sp.End()
		ls := l.Payload.(*laneState)
		rec, err := classify(base+int64(r), res, err, ls.inj.Counts().Total(), ls.inst.Sink.Tokens(), golden)
		recs[r] = rec
		return err
	}
	err = batch.Run(ctx, campaignRuns, arm, done)
	run.End()
	if err != nil {
		return nil, err
	}
	tally.campaigns++
	tally.goldenCycles += gres.Cycles
	for _, r := range recs {
		tally.faultyCycles += r.Cycles
	}
	if plan.Timing() {
		for _, r := range recs {
			if r.Outcome != core.OutcomeMasked {
				return nil, fmt.Errorf("timing faults changed the result (seed %d): %s", r.Seed, r.Outcome)
			}
		}
	}
	return recs, nil
}

// classify is the resilience taxonomy of core's campaign runners: a hang
// is a deadlock or an exhausted budget, any other run error or a
// structural output mismatch is detected, a data-only mismatch is silent
// corruption, and an exact match is masked.
func classify(seed int64, res fabric.Result, err error, injected int64, got, want []channel.Token) (core.FaultRun, error) {
	run := core.FaultRun{Seed: seed, Cycles: res.Cycles, Injected: injected}
	switch {
	case errors.Is(err, fabric.ErrCancelled):
		return run, err
	case errors.Is(err, fabric.ErrDeadlock) || errors.Is(err, fabric.ErrTimeout):
		run.Outcome, run.Detail = core.OutcomeHang, err.Error()
		return run, nil
	case err != nil:
		run.Outcome, run.Detail = core.OutcomeDetected, err.Error()
		return run, nil
	}
	if len(got) != len(want) {
		run.Outcome, run.Detail = core.OutcomeDetected, fmt.Sprintf("output token count %d, want %d", len(got), len(want))
		return run, nil
	}
	sdc := -1
	for i := range got {
		if got[i].Tag != want[i].Tag {
			run.Outcome, run.Detail = core.OutcomeDetected, fmt.Sprintf("token %d tag %d, want %d", i, got[i].Tag, want[i].Tag)
			return run, nil
		}
		if sdc < 0 && got[i].Data != want[i].Data {
			sdc = i
		}
	}
	if sdc >= 0 {
		run.Outcome, run.Detail = core.OutcomeSDC, fmt.Sprintf("token %d data %d, want %d", sdc, got[sdc].Data, want[sdc].Data)
		return run, nil
	}
	run.Outcome = core.OutcomeMasked
	return run, nil
}
