package asm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"unicode"

	"tia/internal/isa"
)

// Stable hashing of assembled programs and netlists. Hashes are computed
// over the *assembled* form (formatted instructions, resolved port
// indices, effective channel parameters), never over raw source text, so
// two sources that assemble to the same fabric — differing only in
// comments, whitespace, declaration order or sugared syntax — hash
// identically. The serving layer (internal/service) keys its
// content-addressed caches on these.

// HashTIAProgram returns a stable hex digest of a triggered program.
func HashTIAProgram(prog []isa.Instruction) string {
	return hashString(FormatTIA(prog))
}

// Fingerprint returns a stable hex digest of the assembled netlist:
// every source token stream, sink completion condition, scratchpad
// image, PE program (with its effective configuration) and wire (with
// its effective capacity and latency). Declaration order does not
// affect the digest.
func (n *Netlist) Fingerprint() string {
	recs := make([]string, len(n.fpRecs))
	copy(recs, n.fpRecs)
	sort.Strings(recs)
	return hashString(strings.Join(recs, "\x00"))
}

// TokenHash returns a stable hex digest of netlist source text at the
// lexer level: each line loses its // comment, its tokens (split as
// strings.Fields splits) are rejoined with single spaces, and blank
// lines are dropped. Comments, blank lines and indentation therefore do
// not affect it; anything else does, including label renames and
// declaration order, which Fingerprint ignores. It needs no parse, so it
// also hashes sources that do not assemble. The fleet routes netlist
// jobs on it, and a worker looks a netlist job's result up by it before
// the parse.
func TokenHash(src string) string {
	buf := make([]byte, 0, len(src))
	for rest := src; rest != ""; {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		line = stripComment(line)
		lineStart, tokStart := len(buf), -1
		for i, r := range line {
			switch {
			case !unicode.IsSpace(r):
				if tokStart < 0 {
					tokStart = i
				}
			case tokStart >= 0:
				buf = appendToken(buf, lineStart, line[tokStart:i])
				tokStart = -1
			}
		}
		if tokStart >= 0 {
			buf = appendToken(buf, lineStart, line[tokStart:])
		}
		if len(buf) > lineStart {
			buf = append(buf, '\n')
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// appendToken appends tok to a line of tokens that began at lineStart,
// after a single space unless it is the line's first.
func appendToken(buf []byte, lineStart int, tok string) []byte {
	if len(buf) > lineStart {
		buf = append(buf, ' ')
	}
	return append(buf, tok...)
}

func hashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// initRecord renders register/predicate initializers in canonical
// (index-sorted) form. Initializers are assembled state, not rendered by
// FormatTIA/FormatPC, so the fingerprint records must carry them
// explicitly: two programs with identical instructions but different
// `reg r = v` / `pred p = 1` declarations simulate differently and must
// not collide in the content-addressed caches.
func initRecord(regs map[int]isa.Word, preds map[int]bool) string {
	idx := make([]int, 0, len(regs))
	for i := range regs {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var b strings.Builder
	for _, i := range idx {
		fmt.Fprintf(&b, " reg%d=%d", i, regs[i])
	}
	idx = idx[:0]
	for i := range preds {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		v := 0
		if preds[i] {
			v = 1
		}
		fmt.Fprintf(&b, " pred%d=%d", i, v)
	}
	return b.String()
}
