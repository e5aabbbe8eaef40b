package core

import (
	"encoding/json"
	"io"
)

// Results is the machine-readable form of a full suite run, for plotting
// or regression tracking outside this repository.
type Results struct {
	Rows    []*Row  `json:"rows"`
	Summary Summary `json:"summary"`
	// Requirements lists per-kernel PE resource needs (E6).
	Requirements []Requirements `json:"requirements,omitempty"`
	// MergeBracket is E2's plain-baseline comparison point.
	MergeBracket *MergeBracket `json:"mergeBracket,omitempty"`
	// Partial marks results truncated by a timeout: Rows holds only the
	// workloads that finished and Summary covers just those.
	Partial bool `json:"partial,omitempty"`
}

// WriteJSON emits the suite results as indented JSON.
func WriteJSON(w io.Writer, res *Results) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
