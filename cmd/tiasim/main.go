// Command tiasim runs a fabric described by a netlist file: sources,
// sinks, scratchpads, triggered ("pe") and PC-style ("pcpe") processing
// elements, and wires. It prints each sink's received tokens and, with
// -stats, per-element utilization; -trace N renders a waterfall timeline
// of the first N cycles.
//
// Long runs can be made interruptible: -checkpoint FILE persists a
// snapshot of the full architectural state every -checkpoint-every
// cycles (and once more if the cycle budget runs out), and -restore FILE
// resumes a later invocation from that snapshot instead of cycle zero.
// Snapshots carry the netlist's assembled-form fingerprint, so restoring
// against a different program is refused. A resumed run is byte-
// identical to an uninterrupted one — simulations are deterministic.
//
// Usage:
//
//	tiasim [-max N] [-stats] [-trace N] [-chrome out.json]
//	       [-checkpoint FILE [-checkpoint-every N]] [-restore FILE]
//	       fabric.tia
//
// Triggered PEs run compiled (internal/compile): each trigger pool is
// specialized into a step closure with constant operands folded and
// dead triggers dropped, bit-identical to the interpreter. -stats
// reports each pcpe's taken-branch penalty share in its penalty column.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"tia/internal/asm"
	"tia/internal/fabric"
	"tia/internal/isa"
	"tia/internal/metrics"
	"tia/internal/pcpe"
	"tia/internal/trace"
	"tia/internal/wal"
)

// options bundles one invocation's knobs (the flag set, testable).
type options struct {
	maxCycles  int64
	stats      bool
	traceN     int64
	chromePath string
	// checkpoint is the snapshot file written every ckptEvery cycles
	// (and on cycle-budget exhaustion); empty disables checkpointing.
	checkpoint string
	ckptEvery  int64
	// restore resumes the run from a previously written snapshot.
	restore string
	out     io.Writer
}

func main() {
	var opt options
	flag.Int64Var(&opt.maxCycles, "max", 1_000_000, "cycle budget")
	flag.BoolVar(&opt.stats, "stats", false, "print per-element utilization")
	flag.Int64Var(&opt.traceN, "trace", 0, "render a fire timeline of the first N cycles")
	flag.StringVar(&opt.chromePath, "chrome", "", "write a Chrome trace-event JSON file of all fires")
	flag.StringVar(&opt.checkpoint, "checkpoint", "", "write a state snapshot to this file periodically")
	flag.Int64Var(&opt.ckptEvery, "checkpoint-every", 10_000, "cycles between -checkpoint snapshots")
	flag.StringVar(&opt.restore, "restore", "", "resume from a snapshot written by -checkpoint")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tiasim [flags] fabric.tia; see -h")
		os.Exit(2)
	}
	opt.out = os.Stdout
	if err := run(flag.Arg(0), opt); err != nil {
		fmt.Fprintln(os.Stderr, "tiasim:", err)
		os.Exit(1)
	}
}

// writeSnapshot persists a snapshot with wal.WriteFile: a crash
// mid-write leaves the previous checkpoint intact, never a torn file.
func writeSnapshot(path string, f *fabric.Fabric, fingerprint string) error {
	snap, err := f.Snapshot(fingerprint)
	if err != nil {
		return err
	}
	return wal.WriteFile(path, snap)
}

func run(path string, opt options) error {
	if opt.out == nil {
		opt.out = os.Stdout
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	nl, err := asm.ParseNetlist(string(src), isa.DefaultConfig(), pcpe.DefaultConfig())
	if err != nil {
		return err
	}
	fingerprint := nl.Fingerprint()

	budget := opt.maxCycles
	if opt.restore != "" {
		snap, err := os.ReadFile(opt.restore)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		if err := nl.Fabric.Restore(snap, fingerprint); err != nil {
			return fmt.Errorf("restore %s: %w", opt.restore, err)
		}
		fmt.Fprintf(opt.out, "restored %s at cycle %d\n", opt.restore, nl.Fabric.Cycle())
		if budget -= nl.Fabric.Cycle(); budget <= 0 {
			return fmt.Errorf("restore: snapshot cycle %d already exhausts -max %d", nl.Fabric.Cycle(), opt.maxCycles)
		}
	}
	if opt.checkpoint != "" {
		every := opt.ckptEvery
		if every <= 0 {
			every = 10_000
		}
		nl.Fabric.SetCheckpoint(every, func(int64) error {
			return writeSnapshot(opt.checkpoint, nl.Fabric, fingerprint)
		})
	}

	var rec *trace.Recorder
	if opt.traceN > 0 || opt.chromePath != "" {
		rec = trace.New(0)
		for _, p := range nl.PEs {
			rec.Attach(p)
		}
	}
	res, err := nl.Fabric.Run(budget)
	if err != nil {
		// Budget exhaustion with checkpointing on is the resumable case:
		// persist the exact stopping point so -restore loses nothing.
		if errors.Is(err, fabric.ErrTimeout) && opt.checkpoint != "" {
			if werr := writeSnapshot(opt.checkpoint, nl.Fabric, fingerprint); werr != nil {
				return fmt.Errorf("%w (and checkpoint failed: %v)", err, werr)
			}
			return fmt.Errorf("%w; resume with -restore %s", err, opt.checkpoint)
		}
		return err
	}
	fmt.Fprintf(opt.out, "completed in %d cycles\n", res.Cycles)
	if rec != nil && opt.traceN > 0 {
		end := opt.traceN
		if res.Cycles < end {
			end = res.Cycles
		}
		fmt.Fprintln(opt.out)
		rec.WriteTimeline(opt.out, 0, end)
		fmt.Fprintln(opt.out)
	}
	if rec != nil && opt.chromePath != "" {
		file, err := os.Create(opt.chromePath)
		if err != nil {
			return err
		}
		defer file.Close()
		if err := rec.WriteChromeJSON(file); err != nil {
			return err
		}
		fmt.Fprintf(opt.out, "wrote %s\n", opt.chromePath)
	}

	names := make([]string, 0, len(nl.Sinks))
	for name := range nl.Sinks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(opt.out, "sink %s:", name)
		for _, tok := range nl.Sinks[name].Tokens() {
			fmt.Fprintf(opt.out, " %s", tok)
		}
		fmt.Fprintln(opt.out)
	}
	if !opt.stats {
		return nil
	}
	fmt.Fprintln(opt.out, "\nelement utilization:")
	peNames := make([]string, 0, len(nl.PEs))
	for name := range nl.PEs {
		peNames = append(peNames, name)
	}
	sort.Strings(peNames)
	for _, name := range peNames {
		u := metrics.TIAUtilization(nl.PEs[name])
		fmt.Fprintf(opt.out, "  pe %-12s fired=%-6d occupancy=%4.0f%% input-stall=%4.0f%% output-stall=%4.0f%% idle=%4.0f%%\n",
			u.Name, u.Fired, 100*u.Occupancy, 100*u.InputStall, 100*u.OutputStall, 100*u.Idle)
	}
	pcNames := make([]string, 0, len(nl.PCPEs))
	for name := range nl.PCPEs {
		pcNames = append(pcNames, name)
	}
	sort.Strings(pcNames)
	for _, name := range pcNames {
		u := metrics.PCUtilization(nl.PCPEs[name])
		fmt.Fprintf(opt.out, "  pcpe %-10s fired=%-6d occupancy=%4.0f%% input-stall=%4.0f%% output-stall=%4.0f%% penalty=%4.0f%%\n",
			u.Name, u.Fired, 100*u.Occupancy, 100*u.InputStall, 100*u.OutputStall, 100*u.Penalty)
	}
	for name, m := range nl.Mems {
		fmt.Fprintf(opt.out, "  scratchpad %-6s reads=%d writes=%d\n", name, m.Reads(), m.Writes())
	}
	return nil
}
