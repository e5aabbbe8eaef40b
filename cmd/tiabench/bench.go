// Bench-report mode (-json-out): instead of regenerating the paper's
// tables, measure the simulator itself and write a machine-readable
// perf-trajectory report. Each kernel's triggered instance is run
// several times and the minimum wall-clock kept (min-of-N discards
// scheduler noise and cache-cold first runs); two micro-benchmarks gate
// the per-cycle hot paths — trigger resolution (pe.ClassifyAll) and
// whole-fabric stepping in its event, dense and compiled modes — with
// allocs/op recorded so allocation regressions show up in the committed
// BENCH_*.json history (see make bench-json and .github/workflows).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"tia/internal/core"
	"tia/internal/fabric"
	"tia/internal/isa"
	"tia/internal/pe"
	"tia/internal/workloads"
)

// benchRuns is the N of min-of-N kernel timings.
const benchRuns = 5

// benchKernel is one kernel's wall-clock row.
type benchKernel struct {
	Name   string  `json:"name"`
	Cycles int64   `json:"cycles"`
	Runs   int     `json:"runs"`
	MinMs  float64 `json:"min_ms"`
}

// benchMicro is one micro-benchmark's result (testing.Benchmark output).
type benchMicro struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchReport is the full -json-out payload.
type benchReport struct {
	Date       string        `json:"date"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Compiled   bool          `json:"compiled,omitempty"`
	Size       int           `json:"size"`
	Seed       int64         `json:"seed"`
	Kernels    []benchKernel `json:"kernels"`
	Micro      []benchMicro  `json:"micro"`
	// Campaign is the batched-campaign throughput point: a 64-seed
	// data-fault campaign run serially (fresh instance per run) and
	// across batched lanes (internal/batchrun), with the taxonomy
	// asserted identical between the two arms before timing counts.
	Campaign *benchCampaign `json:"campaign,omitempty"`
	// Fleet is the serving-layer throughput point: an in-process
	// three-worker fleet fanning a 64-seed batch (see fleet.go).
	Fleet *benchFleet `json:"fleet,omitempty"`
	// Chaos is the same fleet surviving a seeded 5% transport-fault
	// plan — throughput with the hardening path engaged (see chaos.go).
	Chaos      *benchChaos `json:"chaos,omitempty"`
	TotalMinMs float64     `json:"total_min_ms"`
}

// emitBenchJSON runs the bench suite and writes the report to path
// ("-" = stdout). Kernel timings honor ctx (a -timeout mid-suite fails
// the report rather than recording partial numbers — a trajectory file
// with missing rows would not be comparable to its neighbors).
func emitBenchJSON(ctx context.Context, p workloads.Params, compiled bool, path string) (*benchReport, error) {
	rep := &benchReport{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Compiled:   compiled,
		Size:       p.Size,
		Seed:       p.Seed,
	}
	for _, spec := range workloads.All() {
		row, err := benchKernelRow(ctx, spec, p, compiled)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		rep.Kernels = append(rep.Kernels, row)
		rep.TotalMinMs += row.MinMs
	}
	rep.Micro = append(rep.Micro,
		microResult("classify/fast", benchClassify(false)),
		microResult("classify/ref", benchClassify(true)),
		microResult("fabric_step/event", benchFabricStep(false, false)),
		microResult("fabric_step/dense", benchFabricStep(true, false)),
		microResult("fabric_step/compiled", benchFabricStep(false, true)),
	)
	cam, err := benchCampaignRow(ctx)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	rep.Campaign = cam
	fl, err := benchFleetRow()
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	rep.Fleet = fl
	ch, err := benchChaosRow()
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	rep.Chaos = ch

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return rep, err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %s (%d kernels, %d micro-benchmarks, total min-of-%d %.1f ms)\n",
		path, len(rep.Kernels), len(rep.Micro), benchRuns, rep.TotalMinMs)
	return rep, nil
}

// benchKernelRow times one kernel's triggered instance: min-of-N
// wall-clock of a full run, Reset between repeats (simulations are
// deterministic, so every repeat does identical work).
func benchKernelRow(ctx context.Context, spec *workloads.Spec, p workloads.Params, compiled bool) (benchKernel, error) {
	pp := spec.Normalize(p)
	pp.FabricCfg.Compiled = compiled
	inst, err := spec.BuildTIA(pp)
	if err != nil {
		return benchKernel{}, err
	}
	row := benchKernel{Name: spec.Name, Runs: benchRuns}
	for r := 0; r < benchRuns; r++ {
		if r > 0 {
			inst.Fabric.Reset()
		}
		t0 := time.Now()
		res, err := inst.Fabric.RunContext(ctx, spec.MaxCycles(pp))
		if err != nil {
			return benchKernel{}, err
		}
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if r == 0 || ms < row.MinMs {
			row.MinMs = ms
		}
		row.Cycles = res.Cycles
	}
	return row, nil
}

// benchCampaign is the batched-campaign throughput row: one kernel's
// 64-seed data-fault campaign, serial vs batched wall-clock (min-of-N).
type benchCampaign struct {
	Workload  string  `json:"workload"`
	Runs      int     `json:"runs"`
	Lanes     int     `json:"lanes"`
	SerialMs  float64 `json:"serial_ms"`
	BatchedMs float64 `json:"batched_ms"`
	// Speedup is SerialMs / BatchedMs — what lane reuse buys on a
	// campaign whose per-run dynamic work is small against the per-run
	// static costs a fresh build pays.
	Speedup float64 `json:"speedup"`
}

// benchCampaignRow times the standard 64-seed mergesort data campaign
// both ways, asserting the taxonomies identical first (a bench row that
// silently timed diverging work would be meaningless).
func benchCampaignRow(ctx context.Context) (*benchCampaign, error) {
	const runs, lanes = 64, 8
	spec, err := workloads.ByName("mergesort")
	if err != nil {
		return nil, err
	}
	p := workloads.Params{Seed: 11, Size: 12}
	plan := core.DefaultDataPlan(4242)
	row := &benchCampaign{Workload: spec.Name, Runs: runs, Lanes: lanes}
	for r := 0; r < benchRuns; r++ {
		t0 := time.Now()
		srep, err := core.RunDataCampaign(ctx, spec, p, plan, runs)
		if err != nil {
			return nil, err
		}
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		if r == 0 || ms < row.SerialMs {
			row.SerialMs = ms
		}
		t0 = time.Now()
		brep, err := core.RunDataCampaignBatch(ctx, spec, p, plan, runs, lanes)
		if err != nil {
			return nil, err
		}
		ms = float64(time.Since(t0).Nanoseconds()) / 1e6
		if r == 0 || ms < row.BatchedMs {
			row.BatchedMs = ms
		}
		if srep.Taxonomy != brep.Taxonomy {
			return nil, fmt.Errorf("batched taxonomy %+v diverges from serial %+v", brep.Taxonomy, srep.Taxonomy)
		}
	}
	row.Speedup = row.SerialMs / row.BatchedMs
	return row, nil
}

// microResult flattens a testing.Benchmark outcome into a report row.
func microResult(name string, r testing.BenchmarkResult) benchMicro {
	return benchMicro{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// benchClassify measures trigger resolution on a mid-flight merge PE:
// a 4-source merge tree is stepped until tokens are in flight, then the
// root PE's full program is classified per op (pe.ClassifyAll, the same
// code BenchmarkClassify gates in-package).
func benchClassify(reference bool) testing.BenchmarkResult {
	f := fabric.New(fabric.DefaultConfig())
	words := make([]isa.Word, 1<<12)
	for i := range words {
		words[i] = isa.Word(i)
	}
	var srcs [4]*fabric.Source
	for i := range srcs {
		srcs[i] = fabric.NewWordSource(fmt.Sprintf("q%d", i), words, true)
		f.Add(srcs[i])
	}
	var merges [3]*pe.PE
	for i := range merges {
		m, err := pe.New(fmt.Sprintf("m%d", i), isa.DefaultConfig(), pe.MergeProgram())
		if err != nil {
			panic(err)
		}
		merges[i] = m
		f.Add(m)
	}
	snk := fabric.NewSink("snk")
	f.Add(snk)
	f.Wire(srcs[0], 0, merges[0], 0)
	f.Wire(srcs[1], 0, merges[0], 1)
	f.Wire(srcs[2], 0, merges[1], 0)
	f.Wire(srcs[3], 0, merges[1], 1)
	f.Wire(merges[0], 0, merges[2], 0)
	f.Wire(merges[1], 0, merges[2], 1)
	f.Wire(merges[2], 0, snk, 0)
	if _, err := f.Run(64); err != nil && !errors.Is(err, fabric.ErrTimeout) {
		panic(err)
	}
	root := merges[2]
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			root.ClassifyAll(reference)
		}
	})
}

// benchFabricStep measures per-cycle overhead on the mostly-idle
// heartbeat fabric (the out-of-package twin of BenchmarkFabricStep_Idle):
// one PE fires every cycle while eight merge PEs sit stalled.
func benchFabricStep(dense, compiled bool) testing.BenchmarkResult {
	heartbeat := []isa.Instruction{{
		Op:   isa.OpAdd,
		Srcs: [2]isa.Src{isa.Reg(0), isa.Imm(1)},
		Dsts: []isa.Dst{isa.DReg(0)},
	}}
	f := fabric.New(fabric.DefaultConfig())
	hb, err := pe.New("hb", isa.DefaultConfig(), heartbeat)
	if err != nil {
		panic(err)
	}
	f.Add(hb)
	for i := 0; i < 8; i++ {
		m, err := pe.New(fmt.Sprintf("idle%d", i), isa.DefaultConfig(), pe.MergeProgram())
		if err != nil {
			panic(err)
		}
		f.Add(m)
		sa := fabric.NewWordSource(fmt.Sprintf("sa%d", i), nil, false)
		sb := fabric.NewWordSource(fmt.Sprintf("sb%d", i), nil, false)
		snk := fabric.NewSink(fmt.Sprintf("snk%d", i))
		f.Add(sa)
		f.Add(sb)
		f.Add(snk)
		f.Wire(sa, 0, m, 0)
		f.Wire(sb, 0, m, 1)
		f.Wire(m, 0, snk, 0)
	}
	f.SetDenseStepping(dense)
	f.SetCompiled(compiled)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		done := 0
		for done < b.N {
			res, err := f.Run(int64(b.N - done))
			if err != nil && !errors.Is(err, fabric.ErrTimeout) {
				b.Fatal(err)
			}
			if res.Cycles == 0 {
				b.Fatal("fabric made no progress")
			}
			done += int(res.Cycles)
		}
	})
}
