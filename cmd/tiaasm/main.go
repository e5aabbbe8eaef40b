// Command tiaasm assembles and inspects fabric programs. It parses a
// netlist file, validates every program against the PE configuration, and
// prints the compiled form of each processing element — the triggered
// rules with their resolved triggers, or the sequential instructions.
//
// With -format, programs are printed in the canonical re-parseable
// dialect (the disassembler) instead of the debug rendering. With
// -fingerprint, only the assembled-form fingerprint is printed — the
// hash that keys the service's result cache and that checkpoints
// (tiasim -checkpoint, tiad snapshots) are bound to, so it identifies
// which snapshots a netlist revision can still restore.
//
// With -compile-report, each triggered PE is analyzed by the compiled
// stepping backend (internal/compile) and its specialization summary is
// printed — how many triggers stay live, how many are statically dead,
// which predicate literals and operands were proven constant. This
// shows what every simulation of the netlist (tiasim, tiad) actually
// runs.
//
// Usage:
//
//	tiaasm [-format] [-fingerprint] [-compile-report] fabric.tia
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"tia/internal/asm"
	"tia/internal/compile"
	"tia/internal/isa"
	"tia/internal/pcpe"
)

func main() {
	format := flag.Bool("format", false, "print canonical re-parseable assembly")
	fingerprint := flag.Bool("fingerprint", false, "print only the assembled-form fingerprint (snapshot/cache key)")
	compileReport := flag.Bool("compile-report", false, "print each triggered PE's compiled-plan specialization summary")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tiaasm [-format] [-fingerprint] [-compile-report] fabric.tia")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *format, *fingerprint, *compileReport); err != nil {
		fmt.Fprintln(os.Stderr, "tiaasm:", err)
		os.Exit(1)
	}
}

// compileReport prints each triggered PE's compiled-plan summary, in
// name order. The analysis runs against the PE's initial architectural
// state — the same state a compiled simulation starts from.
func compileReport(nl *asm.Netlist) {
	names := make([]string, 0, len(nl.PEs))
	for name := range nl.PEs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := nl.PEs[name]
		cfg := p.Config()
		regs := make([]isa.Word, cfg.NumRegs)
		for i := range regs {
			regs[i] = p.Reg(i)
		}
		var preds uint64
		for i := 0; i < cfg.NumPreds; i++ {
			if p.Pred(i) {
				preds |= 1 << uint(i)
			}
		}
		plan := compile.Analyze(cfg, p.Program(), regs, preds)
		fmt.Printf("pe %-12s %s\n", name, plan.Describe())
	}
	if len(nl.PCPEs) > 0 {
		fmt.Printf("(%d pcpe skipped: the compiled backend specializes triggered pools only)\n", len(nl.PCPEs))
	}
}

func run(path string, format, fingerprint, report bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	nl, err := asm.ParseNetlist(string(src), isa.DefaultConfig(), pcpe.DefaultConfig())
	if err != nil {
		return err
	}
	if fingerprint {
		fmt.Println(nl.Fingerprint())
		return nil
	}
	if report {
		compileReport(nl)
		return nil
	}
	peNames := make([]string, 0, len(nl.PEs))
	for name := range nl.PEs {
		peNames = append(peNames, name)
	}
	sort.Strings(peNames)
	for _, name := range peNames {
		p := nl.PEs[name]
		fmt.Printf("pe %s (%d triggered instructions):\n", name, p.StaticInstructions())
		if format {
			fmt.Print(asm.FormatTIA(p.Program()))
			continue
		}
		for _, inst := range p.Program() {
			fmt.Printf("  %s\n", inst.String())
		}
	}
	pcNames := make([]string, 0, len(nl.PCPEs))
	for name := range nl.PCPEs {
		pcNames = append(pcNames, name)
	}
	sort.Strings(pcNames)
	for _, name := range pcNames {
		p := nl.PCPEs[name]
		fmt.Printf("pcpe %s (%d instructions):\n", name, p.StaticInstructions())
		if format {
			fmt.Print(asm.FormatPC(p.Program()))
			continue
		}
		for _, inst := range p.Program() {
			fmt.Printf("  %s\n", inst.String())
		}
	}
	fmt.Printf("ok: %d pe, %d pcpe, %d sources, %d sinks, %d scratchpads, %d channels\n",
		len(nl.PEs), len(nl.PCPEs), len(nl.Sources), len(nl.Sinks), len(nl.Mems),
		len(nl.Fabric.Channels()))
	return nil
}
