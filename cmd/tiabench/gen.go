package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"tia/internal/asm"
	"tia/internal/batchrun"
	"tia/internal/fabric"
	"tia/internal/gen"
	"tia/internal/isa"
	"tia/internal/pcpe"
)

// genMaxCycles bounds a generated-netlist benchmark run; generated
// graphs complete in a tiny fraction of this.
const genMaxCycles = 10_000_000

// genParams scales the generator with -size so "large fabric" perf work
// has a reproducible non-kernel workload: size 0 keeps the fuzzing
// defaults, larger sizes grow the stream count, transform depth and
// tokens per stream together.
func genParams(seed int64, size int) gen.Params {
	p := gen.Params{Seed: seed}
	if size > 0 {
		p.MaxStreams = 1 + size/4
		p.MaxStages = 2 + size
		p.MaxLen = 2 + size*4
	}
	return p
}

// runGenerated benchmarks one generated netlist: assemble once per run
// (parse cost excluded from the reported wall clock), simulate min-of-3
// under the configured stepping backend, and print the topology census
// plus throughput. The netlist is a pure function of (seed, size), so a
// number in a discussion reproduces anywhere.
func runGenerated(ctx context.Context, w io.Writer, seed int64, size int, compiled bool, lanes int) error {
	if lanes > 1 {
		return runGeneratedBatch(ctx, w, seed, size, lanes)
	}
	p := genParams(seed, size)
	src := gen.Netlist(p)
	census, err := asm.CheckNetlist(src, isa.DefaultConfig(), pcpe.DefaultConfig())
	if err != nil {
		return fmt.Errorf("generated netlist failed validation (generator bug): %w", err)
	}
	fmt.Fprintf(w, "generated netlist seed=%d size=%d: %d elements (%d PEs, %d pcPEs, %d scratchpads), %d channels, %d source tokens\n",
		seed, size, census.Elements, census.PEs, census.PCPEs, census.Scratchpads, census.Channels, census.SourceTokens)

	var best time.Duration
	var cycles int64
	for i := 0; i < 3; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		nl, err := asm.ParseNetlist(src, isa.DefaultConfig(), pcpe.DefaultConfig())
		if err != nil {
			return err
		}
		nl.Fabric.SetCompiled(compiled)
		start := time.Now()
		res, err := nl.Fabric.RunContext(ctx, genMaxCycles)
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("generated netlist did not complete: %w", err)
		}
		if i == 0 || elapsed < best {
			best, cycles = elapsed, res.Cycles
		}
	}
	persec := float64(cycles) / best.Seconds()
	fmt.Fprintf(w, "completed in %d cycles, best of 3: %v (%.0f cycles/s)\n", cycles, best, persec)
	return nil
}

// runGeneratedBatch (-gen SEED -batch K) sweeps K generator seeds
// SEED..SEED+K-1 as K batch lanes advanced in lockstep: each lane
// parses and runs its own generated netlist, so the sweep exercises the
// batched stepper over heterogeneous topologies (the kernels' campaigns
// batch homogeneous ones). Per-lane results are by construction those
// of a standalone run — the batch only interleaves scheduling.
func runGeneratedBatch(ctx context.Context, w io.Writer, seed int64, size, lanes int) error {
	b, err := batchrun.New(
		batchrun.Config{Lanes: lanes, MaxCycles: genMaxCycles},
		func(lane int) (*fabric.Fabric, any, error) {
			src := gen.Netlist(genParams(seed+int64(lane), size))
			nl, err := asm.ParseNetlist(src, isa.DefaultConfig(), pcpe.DefaultConfig())
			if err != nil {
				return nil, nil, fmt.Errorf("seed %d: %w", seed+int64(lane), err)
			}
			return nl.Fabric, nil, nil
		})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "generated seed sweep: %d lanes, seeds %d..%d, size %d\n", lanes, seed, seed+int64(lanes)-1, size)
	start := time.Now()
	var total int64
	err = b.Run(ctx, lanes,
		func(l *batchrun.Lane, run int) error { return nil },
		func(l *batchrun.Lane, run int, res fabric.Result, err error) error {
			if err != nil {
				return fmt.Errorf("seed %d: %w", seed+int64(l.ID), err)
			}
			total += res.Cycles
			fmt.Fprintf(w, "  seed %d: completed in %d cycles\n", seed+int64(l.ID), res.Cycles)
			return nil
		})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(w, "swept %d seeds, %d total cycles in %v (%.0f cycles/s aggregate)\n",
		lanes, total, elapsed, float64(total)/elapsed.Seconds())
	return nil
}
