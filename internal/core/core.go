// Package core is the experiment harness: it runs every kernel of the
// workload suite across the triggered fabric, the PC-style baseline
// fabric (at two branch-cost design points) and the general-purpose core
// model, and derives the paper's reported quantities — speedups,
// critical-path instruction reductions and area-normalized performance.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tia/internal/area"
	"tia/internal/fabric"
	"tia/internal/isa"
	"tia/internal/metrics"
	"tia/internal/noc"
	"tia/internal/pcpe"
	"tia/internal/pe"
	"tia/internal/workloads"
)

// Row is one workload's complete comparison.
type Row struct {
	Name      string
	WorkUnits int64

	// Cycle counts.
	TIACycles     int64 // triggered fabric
	PCCycles      int64 // PC baseline, pipelined taken-branch penalty
	PCIdealCycles int64 // PC baseline, free branches
	GPPCycles     int64 // general-purpose core model (in-order cycles)

	// Speedups of triggered control over the PC baselines (E1).
	Speedup      float64
	SpeedupIdeal float64

	// Critical-path instruction counts (E2). The Plain fields are only
	// set for kernels providing a plain-baseline variant (0 otherwise).
	TIAStatic        int
	PCStatic         int
	PlainStatic      int
	TIADynamic       int64
	PCDynamic        int64
	PlainDynamic     int64
	StaticReduction  float64
	DynamicReduction float64

	// Area-normalized performance (E3).
	TIAPEs          int
	ScratchpadWords int
	TIAArea         float64
	GPPArea         float64
	AreaNormRatio   float64 // (workunits/cycle/mm²) triggered ÷ GPP

	// Utilization breakdown of every triggered PE (E5).
	TIAUtil []metrics.Utilization
}

// MaxWorkers bounds the concurrency of suite-level fan-out
// (RunSuiteContext, SuiteRequirements and the sensitivity sweeps). Zero
// or negative means GOMAXPROCS. Results are deterministic either way;
// only independent design points run concurrently, and each simulation
// is itself serial.
var MaxWorkers int

// forEachCtx runs fn(i) for every i in [0, n) on a bounded worker pool.
// Workers pull indices from a shared counter, so results land in
// caller-owned slices at deterministic positions regardless of schedule.
// Once ctx is done, workers stop pulling new indices (tasks already
// started run to completion — each task is expected to watch ctx itself,
// e.g. via fabric.RunContext — and unstarted indices are simply never
// visited).
func forEachCtx(ctx context.Context, n int, fn func(int)) {
	w := MaxWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	done := ctx.Done()
	if w <= 1 {
		for i := 0; i < n; i++ {
			if done != nil && ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if done != nil && ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// firstErr returns the first non-nil error in slice order, keeping sweep
// error reporting deterministic under the worker pool.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunWorkloadContext measures one kernel at the given parameters.
// Verification guards every measurement — outputs must match the golden
// reference before cycles are trusted — and because simulations are
// deterministic, the verified runs double as the measured runs (see
// workloads.Verified). Cancellation or deadline expiry aborts whichever
// simulation is in flight with an error wrapping fabric.ErrCancelled.
func RunWorkloadContext(ctx context.Context, spec *workloads.Spec, p workloads.Params) (*Row, error) {
	p = spec.Normalize(p)
	v, err := spec.VerifyFullContext(ctx, p)
	if err != nil {
		return nil, err
	}
	row := &Row{Name: spec.Name, WorkUnits: spec.WorkUnits(p)}

	tia := v.TIA
	row.TIACycles = v.TIARes.Cycles
	cp := metrics.TIACriticalPath(tia.CriticalTIA)
	row.TIAStatic, row.TIADynamic = cp.Static, cp.Dynamic
	for _, pr := range tia.PEs {
		row.TIAUtil = append(row.TIAUtil, metrics.TIAUtilization(pr))
	}
	row.TIAPEs = len(tia.PEs)
	row.ScratchpadWords = tia.ScratchpadWords
	row.TIAArea = area.Fabric(row.TIAPEs, row.ScratchpadWords)
	row.GPPArea = area.GPPCore

	runPC := func(penalty int) (int64, *workloads.Instance, error) {
		pp := p
		pp.PCCfg.TakenPenalty = penalty
		inst, err := spec.BuildPC(pp)
		if err != nil {
			return 0, nil, err
		}
		res, err := inst.Fabric.RunContext(ctx, spec.MaxCycles(pp))
		if err != nil {
			return 0, nil, fmt.Errorf("%s: PC run (penalty %d): %w", spec.Name, penalty, err)
		}
		return res.Cycles, inst, nil
	}
	// The verified PC run already measured the requested taken-penalty
	// design point; only the free-branch ideal needs a fresh simulation
	// (and not even that when the requested penalty is already zero).
	pcIdeal, pcInst := v.PCRes.Cycles, v.PC
	if p.PCCfg.TakenPenalty != 0 {
		if pcIdeal, pcInst, err = runPC(0); err != nil {
			return nil, err
		}
	}
	row.PCIdealCycles = pcIdeal
	pcp := metrics.PCCriticalPath(pcInst.CriticalPC)
	row.PCStatic, row.PCDynamic = pcp.Static, pcp.Dynamic
	row.PCCycles = v.PCRes.Cycles

	if v.Plain != nil {
		pcp := metrics.PCCriticalPath(v.Plain.CriticalPC)
		row.PlainStatic, row.PlainDynamic = pcp.Static, pcp.Dynamic
	}

	row.Speedup = float64(row.PCCycles) / float64(row.TIACycles)
	row.SpeedupIdeal = float64(row.PCIdealCycles) / float64(row.TIACycles)
	row.StaticReduction = metrics.Reduction(float64(row.PCStatic), float64(row.TIAStatic))
	row.DynamicReduction = metrics.Reduction(float64(row.PCDynamic), float64(row.TIADynamic))

	row.GPPCycles = v.GPP.Stats.Cycles

	// The gpp package models a 1-IPC-peak in-order core; the paper's
	// comparison target is superscalar, so its effective cycle count is
	// scaled by the documented IPC factor (see package area).
	effGPP := float64(row.GPPCycles) / area.GPPIPC
	tiaPerfArea := float64(row.WorkUnits) / float64(row.TIACycles) / row.TIAArea
	gppPerfArea := float64(row.WorkUnits) / effGPP / row.GPPArea
	row.AreaNormRatio = tiaPerfArea / gppPerfArea
	return row, nil
}

// RunSuiteContext measures every kernel. Kernels are independent, so
// they run concurrently on the bounded worker pool (each fabric
// simulation is single-threaded and deterministic; only the suite-level
// fan-out is parallel, and results land in canonical order). On
// cancellation it returns the rows completed so far (unfinished kernels
// are nil entries, canonical order preserved) together with an error
// wrapping fabric.ErrCancelled, so callers can render partial results
// explicitly labelled as such.
func RunSuiteContext(ctx context.Context, p workloads.Params) ([]*Row, error) {
	specs := workloads.All()
	rows := make([]*Row, len(specs))
	errs := make([]error, len(specs))
	forEachCtx(ctx, len(specs), func(i int) {
		rows[i], errs[i] = RunWorkloadContext(ctx, specs[i], p)
	})
	if err := ctx.Err(); err != nil {
		return rows, fmt.Errorf("suite: %w: %w", fabric.ErrCancelled, err)
	}
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return rows, nil
}

// Summary aggregates a suite run the way the paper's abstract does.
type Summary struct {
	GeomeanSpeedup       float64
	GeomeanSpeedupIdeal  float64
	MeanStaticReduction  float64
	MeanDynamicReduction float64
	GeomeanAreaNorm      float64
}

// Summarize folds suite rows into the headline numbers.
func Summarize(rows []*Row) Summary {
	var sp, spi, an []float64
	var sred, dred float64
	for _, r := range rows {
		sp = append(sp, r.Speedup)
		spi = append(spi, r.SpeedupIdeal)
		an = append(an, r.AreaNormRatio)
		sred += r.StaticReduction
		dred += r.DynamicReduction
	}
	n := float64(len(rows))
	return Summary{
		GeomeanSpeedup:       metrics.Geomean(sp),
		GeomeanSpeedupIdeal:  metrics.Geomean(spi),
		MeanStaticReduction:  sred / n,
		MeanDynamicReduction: dred / n,
		GeomeanAreaNorm:      metrics.Geomean(an),
	}
}

// SweepPoint is one configuration of a sensitivity sweep.
type SweepPoint struct {
	Label  string
	Cycles int64
}

// DepthSweepContext measures one kernel across channel depths (E7).
// Design points are independent simulations, so they run on the worker
// pool. On cancellation the worker pool stops scheduling new design
// points and the completed points are returned (unfinished ones are
// zero-valued, empty Label) with an error wrapping fabric.ErrCancelled.
func DepthSweepContext(ctx context.Context, spec *workloads.Spec, p workloads.Params, depths []int) ([]SweepPoint, error) {
	out := make([]SweepPoint, len(depths))
	errs := make([]error, len(depths))
	forEachCtx(ctx, len(depths), func(i int) {
		d := depths[i]
		pp := spec.Normalize(p)
		pp.FabricCfg.ChannelCapacity = d
		inst, err := spec.BuildTIA(pp)
		if err != nil {
			errs[i] = err
			return
		}
		res, err := inst.Fabric.RunContext(ctx, spec.MaxCycles(pp))
		if err != nil {
			errs[i] = fmt.Errorf("%s depth %d: %w", spec.Name, d, err)
			return
		}
		out[i] = SweepPoint{Label: fmt.Sprintf("depth=%d", d), Cycles: res.Cycles}
	})
	if err := ctx.Err(); err != nil {
		return out, fmt.Errorf("depth sweep: %w: %w", fabric.ErrCancelled, err)
	}
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// LatencySweepContext measures one kernel across extra link latencies
// (E8), one worker-pool task per latency point, with the same
// partial-result contract as DepthSweepContext.
func LatencySweepContext(ctx context.Context, spec *workloads.Spec, p workloads.Params, lats []int) ([]SweepPoint, error) {
	out := make([]SweepPoint, len(lats))
	errs := make([]error, len(lats))
	forEachCtx(ctx, len(lats), func(i int) {
		l := lats[i]
		pp := spec.Normalize(p)
		pp.FabricCfg.ChannelLatency = l
		inst, err := spec.BuildTIA(pp)
		if err != nil {
			errs[i] = err
			return
		}
		res, err := inst.Fabric.RunContext(ctx, spec.MaxCycles(pp)*int64(l+1))
		if err != nil {
			errs[i] = fmt.Errorf("%s latency %d: %w", spec.Name, l, err)
			return
		}
		out[i] = SweepPoint{Label: fmt.Sprintf("lat=%d", l), Cycles: res.Cycles}
	})
	if err := ctx.Err(); err != nil {
		return out, fmt.Errorf("latency sweep: %w: %w", fabric.ErrCancelled, err)
	}
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// MemLatencyPoint is one point of the memory-latency sensitivity study.
type MemLatencyPoint struct {
	Latency   int
	TIACycles int64
	PCCycles  int64
}

// MemLatencySweepContext measures one kernel on both control paradigms
// as scratchpad read latency grows (E7). Triggered PEs keep reacting to
// whatever has arrived while requests are in flight, so their slowdown
// curve is flatter than the PC baseline's — the paper's reactivity
// argument made quantitative. It has the same partial-result contract as
// DepthSweepContext (unfinished points have zero cycle counts).
func MemLatencySweepContext(ctx context.Context, spec *workloads.Spec, p workloads.Params, lats []int) ([]MemLatencyPoint, error) {
	out := make([]MemLatencyPoint, len(lats))
	errs := make([]error, len(lats))
	forEachCtx(ctx, len(lats), func(i int) {
		l := lats[i]
		pp := spec.Normalize(p)
		pp.MemLatency = l
		pt := MemLatencyPoint{Latency: l}
		tia, err := spec.BuildTIA(pp)
		if err != nil {
			errs[i] = err
			return
		}
		rt, err := tia.Fabric.RunContext(ctx, spec.MaxCycles(pp)*int64(l+1))
		if err != nil {
			errs[i] = fmt.Errorf("%s mem latency %d (tia): %w", spec.Name, l, err)
			return
		}
		pt.TIACycles = rt.Cycles
		pc, err := spec.BuildPC(pp)
		if err != nil {
			errs[i] = err
			return
		}
		rp, err := pc.Fabric.RunContext(ctx, spec.MaxCycles(pp)*int64(l+1))
		if err != nil {
			errs[i] = fmt.Errorf("%s mem latency %d (pc): %w", spec.Name, l, err)
			return
		}
		pt.PCCycles = rp.Cycles
		out[i] = pt
	})
	if err := ctx.Err(); err != nil {
		return out, fmt.Errorf("mem-latency sweep: %w: %w", fabric.ErrCancelled, err)
	}
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// PolicyComparison measures priority vs round-robin scheduling (E8).
func PolicyComparison(spec *workloads.Spec, p workloads.Params) (priority, roundRobin int64, err error) {
	for _, pol := range []int{0, 1} {
		pp := spec.Normalize(p)
		pp.Policy = workloads.PolicyFromInt(pol)
		inst, err := spec.BuildTIA(pp)
		if err != nil {
			return 0, 0, err
		}
		res, err := inst.Fabric.Run(spec.MaxCycles(pp))
		if err != nil {
			return 0, 0, fmt.Errorf("%s policy %d: %w", spec.Name, pol, err)
		}
		if pol == 0 {
			priority = res.Cycles
		} else {
			roundRobin = res.Cycles
		}
	}
	return priority, roundRobin, nil
}

// IssueWidthComparison measures one kernel with the single-issue and the
// superscalar (width-2) trigger scheduler — the paper-extension ablation.
func IssueWidthComparison(spec *workloads.Spec, p workloads.Params) (w1, w2 int64, err error) {
	for _, w := range []int{1, 2} {
		pp := spec.Normalize(p)
		pp.IssueWidth = w
		inst, err := spec.BuildTIA(pp)
		if err != nil {
			return 0, 0, err
		}
		res, err := inst.Fabric.Run(spec.MaxCycles(pp))
		if err != nil {
			return 0, 0, fmt.Errorf("%s width %d: %w", spec.Name, w, err)
		}
		if w == 1 {
			w1 = res.Cycles
		} else {
			w2 = res.Cycles
		}
	}
	return w1, w2, nil
}

// Requirements reports the architectural resources each kernel's
// triggered mapping actually needs (E6): the largest per-PE program and
// the largest predicate index in use.
type Requirements struct {
	Name     string
	PEs      int
	MaxInsts int
	MaxPreds int
}

// SuiteRequirements inspects every kernel's triggered instance, one
// worker-pool task per kernel.
func SuiteRequirements(p workloads.Params) ([]Requirements, error) {
	specs := workloads.All()
	out := make([]Requirements, len(specs))
	errs := make([]error, len(specs))
	forEachCtx(context.Background(), len(specs), func(i int) {
		spec := specs[i]
		pp := spec.Normalize(p)
		inst, err := spec.BuildTIA(pp)
		if err != nil {
			errs[i] = err
			return
		}
		req := Requirements{Name: spec.Name, PEs: len(inst.PEs)}
		for _, pr := range inst.PEs {
			if n := pr.StaticInstructions(); n > req.MaxInsts {
				req.MaxInsts = n
			}
			if n := maxPredUsed(pr.Program()) + 1; n > req.MaxPreds {
				req.MaxPreds = n
			}
		}
		out[i] = req
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}

func maxPredUsed(prog []isa.Instruction) int {
	maxIdx := -1
	upd := func(i int) {
		if i > maxIdx {
			maxIdx = i
		}
	}
	for _, in := range prog {
		for _, l := range in.Trigger.Preds {
			upd(l.Index)
		}
		for _, d := range in.Dsts {
			if d.Kind == isa.DstPred {
				upd(d.Index)
			}
		}
		for _, u := range in.PredUpdates {
			upd(u.Index)
		}
	}
	return maxIdx
}

// MergeBracket compares the paper's running example (the 2-way merge
// kernel) across three expressions: triggered, the enhanced PC baseline
// (channel-mapped operands, multi-destination writes) and the plain PC
// baseline (explicit channel moves, single destinations). The paper's
// 62%/64% critical-path reductions were measured against its plain
// baseline; the two PC variants bracket it.
type MergeBracket struct {
	TIAStatic, PCStatic, PlainStatic    int
	TIADynamic, PCDynamic, PlainDynamic int64
	TIACycles, PCCycles, PlainCycles    int64
}

// RunMergeBracket merges n-element sorted streams on all three kernels.
func RunMergeBracket(n int, seed int64) (*MergeBracket, error) {
	left := make([]isa.Word, n)
	right := make([]isa.Word, n)
	for i := 0; i < n; i++ {
		left[i] = isa.Word(2 * i)
		right[i] = isa.Word(2*i + 1)
	}
	br := &MergeBracket{}
	run := func(elem fabric.Element, stat *int, dyn, cyc *int64) error {
		f := fabric.New(fabric.DefaultConfig())
		a := fabric.NewWordSource("a", left, true)
		bsrc := fabric.NewWordSource("b", right, true)
		snk := fabric.NewSink("out")
		f.Add(a)
		f.Add(bsrc)
		f.Add(elem)
		f.Add(snk)
		f.Wire(a, 0, elem.(fabric.InPort), 0)
		f.Wire(bsrc, 0, elem.(fabric.InPort), 1)
		f.Wire(elem.(fabric.OutPort), 0, snk, 0)
		res, err := f.Run(int64(1000*n) + 10000)
		if err != nil {
			return err
		}
		*cyc = res.Cycles
		switch m := elem.(type) {
		case *pe.PE:
			*stat, *dyn = m.StaticInstructions(), m.DynamicInstructions()
		case *pcpe.PE:
			*stat, *dyn = m.StaticInstructions(), m.DynamicInstructions()
		}
		return nil
	}
	tm, err := pe.New("merge", isa.DefaultConfig(), pe.MergeProgram())
	if err != nil {
		return nil, err
	}
	if err := run(tm, &br.TIAStatic, &br.TIADynamic, &br.TIACycles); err != nil {
		return nil, err
	}
	pm, err := pcpe.New("merge", pcpe.DefaultConfig(), pcpe.MergeProgram())
	if err != nil {
		return nil, err
	}
	if err := run(pm, &br.PCStatic, &br.PCDynamic, &br.PCCycles); err != nil {
		return nil, err
	}
	plm, err := pcpe.New("merge", pcpe.DefaultConfig(), pcpe.MergePlainProgram())
	if err != nil {
		return nil, err
	}
	if err := run(plm, &br.PlainStatic, &br.PlainDynamic, &br.PlainCycles); err != nil {
		return nil, err
	}
	return br, nil
}

// AreaSensitivityPoint is the suite's area-normalized geomean under
// perturbed calibration constants.
type AreaSensitivityPoint struct {
	Label   string
	PEScale float64 // multiplier on the PE area constant
	IPC     float64 // comparison-core effective IPC
	Geomean float64
}

// AreaSensitivity recomputes E3's geomean from measured cycle counts
// under perturbed calibration constants, making the synthetic area
// model's influence on the 8X headline explicit. Only the constants are
// perturbed; every cycle count and resource inventory is measured.
func AreaSensitivity(rows []*Row) []AreaSensitivityPoint {
	points := []struct {
		label   string
		peScale float64
		ipc     float64
	}{
		{"PE area x0.5", 0.5, area.GPPIPC},
		{"calibrated", 1.0, area.GPPIPC},
		{"PE area x2", 2.0, area.GPPIPC},
		{"core IPC 1", 1.0, 1.0},
		{"core IPC 3", 1.0, 3.0},
	}
	var out []AreaSensitivityPoint
	for _, pt := range points {
		var ratios []float64
		for _, r := range rows {
			fabricArea := float64(r.TIAPEs)*area.TIAPE*pt.peScale +
				(r.TIAArea - float64(r.TIAPEs)*area.TIAPE) // scratchpad part unchanged
			effGPP := float64(r.GPPCycles) / pt.ipc
			tiaPA := float64(r.WorkUnits) / float64(r.TIACycles) / fabricArea
			gppPA := float64(r.WorkUnits) / effGPP / r.GPPArea
			ratios = append(ratios, tiaPA/gppPA)
		}
		out = append(out, AreaSensitivityPoint{
			Label: pt.label, PEScale: pt.peScale, IPC: pt.ipc,
			Geomean: metrics.Geomean(ratios),
		})
	}
	return out
}

// MeshComparison runs the merge kernel with every connection routed over
// the 2-D mesh NoC versus direct fabric links (E8's interconnect
// ablation). Outputs are bit-identical (latency insensitivity); only the
// cycle counts differ.
func MeshComparison(n int) (direct, mesh int64, err error) {
	left := make([]isa.Word, n)
	right := make([]isa.Word, n)
	for i := 0; i < n; i++ {
		left[i] = isa.Word(2 * i)
		right[i] = isa.Word(2*i + 1)
	}
	build := func(useMesh bool) (int64, []isa.Word, error) {
		f := fabric.New(fabric.DefaultConfig())
		a := fabric.NewWordSource("a", left, true)
		b := fabric.NewWordSource("b", right, true)
		mg, err := pe.New("m", isa.DefaultConfig(), pe.MergeProgram())
		if err != nil {
			return 0, nil, err
		}
		snk := fabric.NewSink("snk")
		f.Add(a)
		f.Add(b)
		f.Add(mg)
		f.Add(snk)
		if useMesh {
			m := noc.New("mesh", noc.Config{Width: 3, Height: 3, BufferDepth: 2})
			f.Add(m)
			m.WireOver(f, "a->m", a, 0, 0, 0, mg, 0, 1, 1, 4)
			m.WireOver(f, "b->m", b, 0, 2, 0, mg, 1, 1, 1, 4)
			m.WireOver(f, "m->snk", mg, 0, 1, 1, snk, 0, 2, 2, 4)
		} else {
			f.Wire(a, 0, mg, 0)
			f.Wire(b, 0, mg, 1)
			f.Wire(mg, 0, snk, 0)
		}
		res, err := f.Run(int64(1000*n) + 10000)
		if err != nil {
			return 0, nil, err
		}
		return res.Cycles, snk.Words(), nil
	}
	direct, wantOut, err := build(false)
	if err != nil {
		return 0, 0, err
	}
	mesh, gotOut, err := build(true)
	if err != nil {
		return 0, 0, err
	}
	if len(wantOut) != len(gotOut) {
		return 0, 0, fmt.Errorf("mesh changed the output (%d vs %d tokens)", len(gotOut), len(wantOut))
	}
	for i := range wantOut {
		if wantOut[i] != gotOut[i] {
			return 0, 0, fmt.Errorf("mesh changed output token %d", i)
		}
	}
	return direct, mesh, nil
}

// ReplicationCheck validates E3's replication assumption: R independent
// merge pipelines placed in one fabric must finish in (almost) the same
// cycle count as one, so aggregate throughput scales linearly with area.
// It returns the single-instance and replicated cycle counts.
func ReplicationCheck(n, replicas int) (single, replicated int64, err error) {
	build := func(r int) (*fabric.Fabric, error) {
		f := fabric.New(fabric.DefaultConfig())
		for i := 0; i < r; i++ {
			left := make([]isa.Word, n)
			right := make([]isa.Word, n)
			for j := 0; j < n; j++ {
				left[j] = isa.Word(2*j + i) // slightly different data per instance
				right[j] = isa.Word(2*j + 1)
			}
			a := fabric.NewWordSource(fmt.Sprintf("a%d", i), left, true)
			b := fabric.NewWordSource(fmt.Sprintf("b%d", i), right, true)
			m, err := pe.New(fmt.Sprintf("m%d", i), isa.DefaultConfig(), pe.MergeProgram())
			if err != nil {
				return nil, err
			}
			snk := fabric.NewSink(fmt.Sprintf("snk%d", i))
			f.Add(a)
			f.Add(b)
			f.Add(m)
			f.Add(snk)
			f.Wire(a, 0, m, 0)
			f.Wire(b, 0, m, 1)
			f.Wire(m, 0, snk, 0)
		}
		return f, nil
	}
	f1, err := build(1)
	if err != nil {
		return 0, 0, err
	}
	r1, err := f1.Run(int64(1000*n) + 10000)
	if err != nil {
		return 0, 0, err
	}
	fr, err := build(replicas)
	if err != nil {
		return 0, 0, err
	}
	rr, err := fr.Run(int64(1000*n) + 10000)
	if err != nil {
		return 0, 0, err
	}
	return r1.Cycles, rr.Cycles, nil
}

// DefaultFabricConfigTable renders the evaluated architecture parameters
// (E4, the paper's configuration table).
func DefaultFabricConfigTable() [][2]string {
	ic := isa.DefaultConfig()
	fc := fabric.DefaultConfig()
	return [][2]string{
		{"datapath width", "32 bits"},
		{"data registers / PE", fmt.Sprintf("%d", ic.NumRegs)},
		{"predicate registers / PE", fmt.Sprintf("%d", ic.NumPreds)},
		{"triggered instructions / PE", fmt.Sprintf("%d", ic.MaxInsts)},
		{"input / output channels per PE", fmt.Sprintf("%d / %d", ic.NumIn, ic.NumOut)},
		{"tag bits", "3"},
		{"channel depth", fmt.Sprintf("%d tokens", fc.ChannelCapacity)},
		{"scheduler", "priority (round-robin ablation)"},
		{"instructions fired / PE / cycle", "1"},
	}
}
