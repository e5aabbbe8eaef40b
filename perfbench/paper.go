package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tia/internal/compile"
	"tia/internal/core"
	"tia/internal/isa"
	"tia/internal/metrics"
	"tia/internal/workloads"
)

// resultsPath is the committed E1 reference the seed-1 pass must
// reproduce, relative to the repository root the benchmark runs from.
const resultsPath = "docs/results.json"

// runPaper drives repeated E1 suite passes, each at default sizes with
// the seed advanced per pass, through core.RunSuiteContext.
func runPaper(b *bench) error {
	ctx := context.Background()
	// Set-up is one warm-up pass: nothing else is built ahead of time, and
	// the pass finishes lazy initialisation (the kernels' programs, heap
	// growth, first-touch pages) before timing starts.
	if _, err := measureSetup(b, func(ready func()) (struct{}, func(), error) {
		ready()
		_, err := core.RunSuiteContext(ctx, workloads.Params{Seed: b.seed})
		return struct{}{}, func() {}, err
	}); err != nil {
		return err
	}

	cc0 := compile.Counters()
	var tr *Tracer
	tally := &paperTally{}
	if b.traced {
		tr = newTracer()
	}
	var passes, tracedPasses []float64
	var busy, cpu time.Duration
	var first []*core.Row
	start := time.Now()
	// A traced run alternates untraced and traced passes, so a drift in
	// the machine's speed falls on both alike.
	for i := 0; time.Since(start) < b.window; i++ {
		seed := b.seed + int64(i)
		b.attempted.Add(1)
		if b.traced && i%2 == 1 {
			root := tr.Start("core.RunSuiteContext", nil, "")
			err := tracedSuitePass(ctx, tr, root, seed, tally)
			d := root.End()
			if err != nil {
				b.fail("traced suite pass seed %d: %v", seed, err)
				continue
			}
			tracedPasses = append(tracedPasses, ms(d))
			continue
		}
		t0, c0 := time.Now(), cpuTime()
		rows, err := core.RunSuiteContext(ctx, workloads.Params{Seed: seed})
		d, c := time.Since(t0), cpuTime()-c0
		if err != nil {
			b.fail("suite pass seed %d: %v", seed, err)
			continue
		}
		busy += d
		cpu += c
		passes = append(passes, ms(d))
		if first == nil {
			first = rows
		}
	}
	if err := b.recordRSS(); err != nil {
		return err
	}
	n := float64(len(passes))
	p50 := b.latencyMetrics("suite", passes, true)
	b.addNamed("suite_passes_per_s", n/busy.Seconds(), "1/s", "")
	b.cpuPerOp(cpu, n, "suite pass")
	if b.traced {
		if err := b.paperLayers(tr, tally); err != nil {
			return err
		}
		b.overheadPct("suite pass p50 ms", p50, median(tracedPasses))
	}
	cc1 := compile.Counters()
	lookups := (cc1.Hits + cc1.Misses) - (cc0.Hits + cc0.Misses)
	b.setLayer("compile.plan_hit_ratio", ratio(float64(cc1.Hits-cc0.Hits), float64(lookups)), "ratio")
	b.setLayer("compile.plan_lookups", float64(lookups), "count")

	if first == nil {
		return fmt.Errorf("no suite pass completed")
	}
	var cycles, fires int64
	for _, r := range first {
		cycles += r.TIACycles + r.PCCycles + r.PCIdealCycles + r.GPPCycles
		for _, u := range r.TIAUtil {
			fires += u.Fired
		}
	}
	b.addSim("paper.pass_cycles", cycles)
	b.addSim("paper.pass_tia_fires", fires)
	b.setLayer("sim.cycles", float64(cycles), "count")
	b.setLayer("sim.fires", float64(fires), "count")

	b.attempted.Add(1)
	if err := checkPaperReference(ctx); err != nil {
		b.fail("seed-1 pass against %s: %v", resultsPath, err)
	}
	return nil
}

// checkPaperReference runs the seed-1 pass and compares it with the
// committed E1 results: per-kernel TIA, PC and GPP cycles exactly, and the
// 2.02X speedup and 8.1X area-normalised geomeans.
func checkPaperReference(ctx context.Context) error {
	raw, err := os.ReadFile(resultsPath)
	if err != nil {
		return err
	}
	var ref struct {
		Rows    []core.Row
		Summary core.Summary
	}
	if err := json.Unmarshal(raw, &ref); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	rows, err := core.RunSuiteContext(ctx, workloads.Params{Seed: 1})
	if err != nil {
		return err
	}
	if len(rows) != len(ref.Rows) {
		return fmt.Errorf("%d kernels, reference has %d", len(rows), len(ref.Rows))
	}
	for i, r := range rows {
		w := ref.Rows[i]
		if r.Name != w.Name || r.TIACycles != w.TIACycles || r.PCCycles != w.PCCycles || r.GPPCycles != w.GPPCycles {
			return fmt.Errorf("%s: cycles tia/pc/gpp %d/%d/%d, reference %s %d/%d/%d",
				r.Name, r.TIACycles, r.PCCycles, r.GPPCycles, w.Name, w.TIACycles, w.PCCycles, w.GPPCycles)
		}
	}
	s := core.Summarize(rows)
	if math.Abs(s.GeomeanSpeedup-ref.Summary.GeomeanSpeedup) > 1e-9 || fmt.Sprintf("%.2f", s.GeomeanSpeedup) != "2.02" {
		return fmt.Errorf("geomean speedup %.4f, reference %.4f (2.02X)", s.GeomeanSpeedup, ref.Summary.GeomeanSpeedup)
	}
	if math.Abs(s.GeomeanAreaNorm-ref.Summary.GeomeanAreaNorm) > 1e-9 || fmt.Sprintf("%.1f", s.GeomeanAreaNorm) != "8.1" {
		return fmt.Errorf("geomean area-normalised %.4f, reference %.4f (8.1X)", s.GeomeanAreaNorm, ref.Summary.GeomeanAreaNorm)
	}
	return nil
}

// paperTally accumulates simulated work across the traced kernels.
type paperTally struct {
	mu                         sync.Mutex
	tiaCycles, pcCycles, fires int64
	kernels                    int64
}

// paperLayers derives the per-layer metrics from the traced passes,
// which make the calls core.RunSuiteContext makes, in the same order and
// on the same worker-pool width, with a span around each.
func (b *bench) paperLayers(tr *Tracer, tally *paperTally) error {
	spans := tr.Spans()
	agg := Aggregate(spans)
	tia, pc := agg["fabric.RunContext.tia"], agg["fabric.RunContext.pc"]
	b.setLayer("fabric.tia_ns_per_cycle", ratio(float64(tia.Total), float64(tally.tiaCycles)), "ns")
	b.setLayer("fabric.pc_ns_per_cycle", ratio(float64(pc.Total), float64(tally.pcCycles)), "ns")
	b.setLayer("fabric.ns_per_fire", ratio(float64(tia.Total), float64(tally.fires)), "ns")
	build := agg["workloads.BuildTIA"].Total + agg["workloads.BuildPC"].Total + agg["workloads.BuildPCPlain"].Total
	b.setLayer("workloads.build_us", ratio(float64(build)/1e3, float64(tally.kernels)), "us")
	b.setLayer("workloads.build_tia_us", float64(agg["workloads.BuildTIA"].MeanTotal())/1e3, "us")
	b.setLayer("workloads.reference_us", float64(agg["workloads.Reference"].MeanTotal())/1e3, "us")
	b.setLayer("gpp.run_us", float64(agg["gpp.RunGPP"].MeanTotal())/1e3, "us")
	return b.writeTrace(spans)
}

// tracedSuitePass is one E1 pass: every kernel on a pool as wide as the
// one core.RunSuiteContext uses by default (GOMAXPROCS).
func tracedSuitePass(ctx context.Context, tr *Tracer, root *Active, seed int64, tally *paperTally) error {
	specs := workloads.All()
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(specs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				errs[i] = tracedKernel(ctx, tr, root, specs[i], seed, tally)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tracedKernel builds, runs and verifies every form of one kernel, as
// workloads.Spec.VerifyFullContext and core's row measurement do,
// with a span around each layer call.
func tracedKernel(ctx context.Context, tr *Tracer, root *Active, spec *workloads.Spec, seed int64, tally *paperTally) error {
	k := tr.StartTrack("core.kernel", root, spec.Name)
	defer k.End()
	p := spec.Normalize(workloads.Params{Seed: seed})

	sp := tr.Start("workloads.Reference", k, spec.Name)
	want := spec.Reference(p)
	sp.End()

	// run builds one form, runs it to completion and checks its output.
	run := func(form, buildSpan, runSpan string, build func(workloads.Params) (*workloads.Instance, error), pp workloads.Params, budget int64) (*workloads.Instance, int64, error) {
		sp := tr.Start(buildSpan, k, spec.Name)
		inst, err := build(pp)
		sp.End()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: build %s: %w", spec.Name, form, err)
		}
		sp = tr.Start(runSpan, k, spec.Name)
		res, err := inst.Fabric.RunContext(ctx, budget)
		sp.End()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: run %s: %w", spec.Name, form, err)
		}
		if !equalWords(inst.Sink.Words(), want) {
			return nil, 0, fmt.Errorf("%s: %s output differs from the reference", spec.Name, form)
		}
		return inst, res.Cycles, nil
	}

	tia, tiaCycles, err := run("TIA", "workloads.BuildTIA", "fabric.RunContext.tia", spec.BuildTIA, p, spec.MaxCycles(p))
	if err != nil {
		return err
	}
	var fires int64
	for _, pr := range tia.PEs {
		fires += metrics.TIAUtilization(pr).Fired
	}
	_, pcCycles, err := run("PC", "workloads.BuildPC", "fabric.RunContext.pc", spec.BuildPC, p, spec.MaxCycles(p))
	if err != nil {
		return err
	}
	if p.PCCfg.TakenPenalty != 0 {
		// core's row also measures the free-branch PC design point.
		pp := p
		pp.PCCfg.TakenPenalty = 0
		_, c, err := run("PC ideal", "workloads.BuildPC", "fabric.RunContext.pc", spec.BuildPC, pp, spec.MaxCycles(pp))
		if err != nil {
			return err
		}
		pcCycles += c
	}
	if spec.BuildPCPlain != nil {
		_, c, err := run("plain PC", "workloads.BuildPCPlain", "fabric.RunContext.pc", spec.BuildPCPlain, p, spec.MaxCycles(p)*2)
		if err != nil {
			return err
		}
		pcCycles += c
	}
	sp = tr.Start("gpp.RunGPP", k, spec.Name)
	g, err := spec.RunGPP(p)
	sp.End()
	if err != nil {
		return fmt.Errorf("%s: run GPP: %w", spec.Name, err)
	}
	if !equalWords(g.Output, want) {
		return fmt.Errorf("%s: GPP output differs from the reference", spec.Name)
	}

	tally.mu.Lock()
	tally.tiaCycles += tiaCycles
	tally.pcCycles += pcCycles
	tally.fires += fires
	tally.kernels++
	tally.mu.Unlock()
	return nil
}

func equalWords(a, b []isa.Word) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
