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

// tokenHashRef is TokenHash's specification, as it was first written:
// split the lines, strip each one's comment, and rejoin its
// strings.Fields with single spaces.
func tokenHashRef(src string) string {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if toks := strings.Fields(stripComment(line)); len(toks) > 0 {
			b.WriteString(strings.Join(toks, " "))
			b.WriteByte('\n')
		}
	}
	return hashString(b.String())
}

// respace rebuilds src from its tokens alone: each line's tokens are
// indented and joined by separators taken in turn from a list, with a
// comment after every other line and a comment line or a blank line
// between lines. TokenHash sees no difference. Sources of even length
// get ASCII blanks only; odd ones Unicode spaces too, which the PE
// dialects' mnemonic split does not treat as blanks.
func respace(src string) string {
	seps := []string{" ", "\t", "   ", " \t "}
	if len(src)%2 == 1 {
		seps = append(seps, "\u00a0", "\v", "\f", "\u2003")
	}
	var b strings.Builder
	n := 0
	for i, line := range strings.Split(src, "\n") {
		toks := strings.Fields(stripComment(line))
		b.WriteString(seps[i%len(seps)])
		for j, tok := range toks {
			if j > 0 {
				b.WriteString(seps[n%len(seps)])
				n++
			}
			b.WriteString(tok)
		}
		switch i % 3 {
		case 0:
			b.WriteString("  // respaced\n")
		case 1:
			b.WriteString("\n\n")
		default:
			b.WriteString("\n// between lines\n")
		}
	}
	return b.String()
}

// FuzzParseNetlist checks the netlist layer never panics. The shipped
// example netlists seed the corpus: they exercise every declaration kind
// (sources, sinks, scratchpads, both PE dialects, wires) through real,
// runnable programs. TokenHash must agree with its specification
// (tokenHashRef). Its cosmetic arm prepends a comment line and appends
// blanks to every line: neither TokenHash nor, for a source that
// parses, Fingerprint may change. Its respaced arm keeps only the
// tokens: two sources with equal TokenHash that both parse must have
// equal Fingerprint, because a worker answers a netlist job from the
// result of an earlier job with the same TokenHash without parsing it.
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
		if got, want := TokenHash(src), tokenHashRef(src); got != want {
			t.Fatalf("TokenHash %s, its specification %s, for %q", got, want, src)
		}
		cosmetic := "// cosmetic\n" + strings.ReplaceAll(src, "\n", " \t\n") + " \t"
		if TokenHash(cosmetic) != TokenHash(src) {
			t.Fatalf("comment and trailing blanks changed the token hash of %q", src)
		}
		respaced := respace(src)
		if TokenHash(respaced) != TokenHash(src) {
			t.Fatalf("respacing changed the token hash of %q", src)
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
		if re, err := ParseNetlist(respaced, isa.DefaultConfig(), pcpe.DefaultConfig()); err == nil && re.Fingerprint() != nl.Fingerprint() {
			t.Fatalf("equal token hashes, different fingerprints:\n%q\n%q", src, respaced)
		}
		// Anything that parses must be runnable (possibly to deadlock or
		// timeout, both of which are errors, not panics).
		_, _ = nl.Fabric.Run(200)
	})
}
