package asm

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tia/internal/isa"
	"tia/internal/pcpe"
)

// FuzzParseTIA checks the triggered-dialect parser never panics and that
// anything it accepts also validates and re-parses after formatting.
func FuzzParseTIA(f *testing.F) {
	f.Add(tiaMergeText)
	f.Add("in a\nout o\nx: when a : mov o, a ; deq a")
	f.Add("reg r = 0x10\npred p = 1\ny: when p : add r, r, #-1 ; clr p")
	f.Add("when always : nop")
	f.Add(": when : :")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ParseTIA("fuzz", src)
		if err != nil {
			return
		}
		cfg := isa.DefaultConfig()
		if err := cfg.ValidateProgram(prog.Insts); err != nil {
			// The parser may accept programs that exceed architectural
			// limits (too many instructions / high positional indices);
			// Build must reject those, never panic.
			if _, berr := prog.Build(cfg); berr == nil {
				t.Fatalf("Build accepted invalid program: %v", err)
			}
			return
		}
		text := FormatTIA(prog.Insts)
		if _, err := ParseTIA("fuzz2", text); err != nil {
			t.Fatalf("formatter produced unparseable text: %v\n%s", err, text)
		}
	})
}

// FuzzParsePC checks the sequential-dialect parser never panics.
func FuzzParsePC(f *testing.F) {
	f.Add(pcMergeText)
	f.Add("loop: jmp loop")
	f.Add("in a\nout o\nl: mov o, a.pop\njmp l")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ParsePC("fuzz", src)
		if err != nil {
			return
		}
		_, _ = prog.Build(pcpe.DefaultConfig())
	})
}

// FuzzParseNetlist checks the netlist layer never panics. The shipped
// example netlists seed the corpus: they exercise every declaration kind
// (sources, sinks, scratchpads, both PE dialects, wires) through real,
// runnable programs. Its cosmetic arm prepends a comment line and
// appends blanks to every line: neither TokenHash nor, for a source that
// parses, Fingerprint may change.
func FuzzParseNetlist(f *testing.F) {
	f.Add(mergeNetlist)
	f.Add(scratchpadNetlist)
	f.Add("source s : 1 2 3\nsink k count 3\nwire s.0 -> k.0")
	examples, err := os.ReadDir("../../examples/netlists")
	if err != nil {
		f.Fatalf("example netlists: %v", err)
	}
	for _, e := range examples {
		if !strings.HasSuffix(e.Name(), ".tia") {
			continue
		}
		src, err := os.ReadFile(filepath.Join("../../examples/netlists", e.Name()))
		if err != nil {
			f.Fatalf("read %s: %v", e.Name(), err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		cosmetic := "// cosmetic\n" + strings.ReplaceAll(src, "\n", " \t\n") + " \t"
		if TokenHash(cosmetic) != TokenHash(src) {
			t.Fatalf("comment and trailing blanks changed the token hash of %q", src)
		}
		nl, err := ParseNetlist(src, isa.DefaultConfig(), pcpe.DefaultConfig())
		if err != nil {
			return
		}
		twin, err := ParseNetlist(cosmetic, isa.DefaultConfig(), pcpe.DefaultConfig())
		if err != nil {
			t.Fatalf("comment and trailing blanks broke a parsing source: %v\n%q", err, src)
		}
		if twin.Fingerprint() != nl.Fingerprint() {
			t.Fatalf("comment and trailing blanks changed the fingerprint of %q", src)
		}
		// Anything that parses must be runnable (possibly to deadlock or
		// timeout, both of which are errors, not panics).
		_, _ = nl.Fabric.Run(200)
	})
}
