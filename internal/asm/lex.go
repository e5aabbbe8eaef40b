// Package asm provides textual front-ends for programming the fabric:
//
//   - a triggered-instruction dialect ("pe" blocks) that compiles to
//     isa.Instruction programs,
//   - a sequential dialect ("pcpe" blocks) for the PC-style baseline,
//   - a netlist layer (sources, sinks, scratchpads, wires) that builds a
//     complete runnable fabric from one text file.
//
// The concrete syntax is line-oriented; see the package tests and the
// files under examples/ for working programs.
package asm

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"tia/internal/isa"
)

// srcError annotates an error with its 1-based source line.
func srcError(line int, format string, args ...any) error {
	return fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...))
}

// stripComment removes a // comment and surrounding space.
func stripComment(s string) string {
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

// parseWord parses a decimal (possibly negative) or 0x-prefixed integer
// into a 32-bit word with two's-complement wraparound.
func parseWord(s string) (isa.Word, error) {
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	if v > 0xFFFFFFFF {
		return 0, fmt.Errorf("number %q exceeds 32 bits", s)
	}
	w := isa.Word(v)
	if neg {
		w = -w
	}
	return w, nil
}

// parseTag parses a tag literal, accepting "eod" for the conventional
// end-of-data tag.
func parseTag(s string) (isa.Tag, error) {
	if s == "eod" {
		return isa.TagEOD, nil
	}
	v, err := strconv.ParseUint(s, 10, 8)
	if err != nil {
		return 0, fmt.Errorf("bad tag %q", s)
	}
	return isa.Tag(v), nil
}

// indexWord returns the index of the first kw in s that a blank (any
// Unicode space, as strings.Fields splits on) follows, or -1. A keyword
// ends at any blank, so sources equal under TokenHash find it at the
// same token.
func indexWord(s, kw string) int {
	for off := 0; ; {
		i := strings.Index(s[off:], kw)
		if i < 0 {
			return -1
		}
		i += off
		if r, _ := utf8.DecodeRuneInString(s[i+len(kw):]); unicode.IsSpace(r) {
			return i
		}
		off = i + 1
	}
}

// splitOperands splits a comma-separated operand list, tolerating empty
// input (no operands).
func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// ident reports whether s is a plausible identifier (letter or underscore
// followed by letters, digits, underscores).
func ident(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
