package asm

import (
	"fmt"
	"testing"

	"tia/internal/isa"
	"tia/internal/pcpe"
)

const fpBase = `
source a : 1 3 5 eod
sink out
pe fwd
in a
out o
pred done
move: when !done a.tag==0 : mov o, a ; deq a
fin:  when !done a.tag==eod : halt o#eod ; set done
end
wire a.0 -> fwd.a
wire fwd.o -> out.0
`

// fpCosmetic is the same fabric with comments, respaced instructions
// and reordered declarations/wires.
const fpCosmetic = `
// same program, different text
sink out
source a : 1  3  5  eod

pe fwd
in a
out o
pred done
move: when !done a.tag==0   : mov   o, a ; deq a   // forward
fin:  when !done a.tag==eod : halt o#eod ; set done
end

wire fwd.o -> out.0
wire a.0 -> fwd.a
`

// fpChanged alters program behaviour (an extra instruction).
const fpChanged = `
source a : 1 3 5 eod
sink out
pe fwd
in a
out o
pred done
move: when !done a.tag==0 : mov o, a ; deq a
skip: when !done a.tag==2 : nop ; deq a
fin:  when !done a.tag==eod : halt o#eod ; set done
end
wire a.0 -> fwd.a
wire fwd.o -> out.0
`

func mustParse(t *testing.T, src string) *Netlist {
	t.Helper()
	nl, err := ParseNetlist(src, isa.DefaultConfig(), pcpe.DefaultConfig())
	if err != nil {
		t.Fatalf("ParseNetlist: %v", err)
	}
	return nl
}

// TestFingerprintCosmeticInvariance: the fingerprint is computed over
// the assembled form, so comment/whitespace/ordering edits must not
// change it, while behavioural edits must.
func TestFingerprintCosmeticInvariance(t *testing.T) {
	base := mustParse(t, fpBase).Fingerprint()
	if got := mustParse(t, fpCosmetic).Fingerprint(); got != base {
		t.Errorf("cosmetic edit changed fingerprint:\n%s\n%s", base, got)
	}
	if got := mustParse(t, fpChanged).Fingerprint(); got == base {
		t.Error("behavioural edit did not change fingerprint")
	}
}

// TestFingerprintStable: parsing the same source twice fingerprints
// identically (the records do not depend on map iteration order).
func TestFingerprintStable(t *testing.T) {
	a := mustParse(t, fpBase).Fingerprint()
	for i := 0; i < 5; i++ {
		if b := mustParse(t, fpBase).Fingerprint(); b != a {
			t.Fatalf("fingerprint unstable across parses: %s vs %s", a, b)
		}
	}
}

// TestFingerprintCoversInitializers: register/predicate initializers are
// assembled state that FormatTIA does not render, so the fingerprint
// records must carry them explicitly. Netlists whose PE programs differ
// only in a `reg r = v` or `pred p = 1` declaration simulate differently
// and must not collide in the content-addressed result cache.
func TestFingerprintCoversInitializers(t *testing.T) {
	const tmpl = `
source a : 1 3 5 eod
sink out
pe fwd
in a
out o
%s
%s
add: when !done a.tag==0 : add o, a, bias ; deq a
fin: when !done a.tag==eod : halt o#eod ; set done
end
wire a.0 -> fwd.a
wire fwd.o -> out.0
`
	parse := func(regDecl, predDecl string) string {
		return mustParse(t, "\n"+fmt.Sprintf(tmpl, regDecl, predDecl)).Fingerprint()
	}
	base := parse("reg bias = 2", "pred done")
	if got := parse("reg bias = 7", "pred done"); got == base {
		t.Error("register initializer change did not change the fingerprint")
	}
	if got := parse("reg bias = 2", "pred done = 1"); got == base {
		t.Error("predicate initializer change did not change the fingerprint")
	}
	if got := parse("reg bias = 2", "pred done"); got != base {
		t.Error("fingerprint with initializers not deterministic")
	}
}

// TestHashTIAProgramDistinguishes: different programs hash differently.
func TestHashTIAProgramDistinguishes(t *testing.T) {
	p1 := mustParse(t, fpBase).PEs["fwd"].Program()
	p2 := mustParse(t, fpChanged).PEs["fwd"].Program()
	h1, h2 := HashTIAProgram(p1), HashTIAProgram(p2)
	if h1 == h2 {
		t.Error("distinct programs share a hash")
	}
	if h1 != HashTIAProgram(p1) {
		t.Error("hash not deterministic")
	}
}
