// Package metrics derives the paper's reported quantities from raw
// simulation counters: critical-path static/dynamic instruction counts,
// PE utilization breakdowns, and geometric means across the suite.
package metrics

import (
	"math"

	"tia/internal/pcpe"
	"tia/internal/pe"
)

// CriticalPath holds the instruction counts of a workload's rate-limiting
// PE, the quantity the paper reduces by 62% (static) and 64% (dynamic).
type CriticalPath struct {
	Static  int
	Dynamic int64
}

// TIACriticalPath extracts the counts from a triggered PE after a run.
func TIACriticalPath(p *pe.PE) CriticalPath {
	return CriticalPath{Static: p.StaticInstructions(), Dynamic: p.DynamicInstructions()}
}

// PCCriticalPath extracts the counts from a baseline PE after a run.
func PCCriticalPath(p *pcpe.PE) CriticalPath {
	return CriticalPath{Static: p.StaticInstructions(), Dynamic: p.DynamicInstructions()}
}

// Reduction returns the fractional reduction from base to improved
// (0.62 means "62% fewer"). Zero bases yield zero.
func Reduction(base, improved float64) float64 {
	if base == 0 {
		return 0
	}
	return 1 - improved/base
}

// Utilization summarizes how a PE spent its cycles: occupancy and the
// stall shares sum to 1.
type Utilization struct {
	Name        string
	Fired       int64
	Cycles      int64
	Occupancy   float64 // fired / cycles
	InputStall  float64
	OutputStall float64
	Idle        float64
	Penalty     float64 `json:",omitempty"` // PC PEs: taken-branch penalty share
}

// TIAUtilization computes the breakdown for a triggered PE.
func TIAUtilization(p *pe.PE) Utilization {
	s := p.Stats()
	u := Utilization{Name: p.Name(), Fired: s.Fired, Cycles: s.Cycles}
	if s.Cycles > 0 {
		c := float64(s.Cycles)
		u.Occupancy = float64(s.Fired) / c
		u.InputStall = float64(s.InputStall) / c
		u.OutputStall = float64(s.OutputStall) / c
		u.Idle = float64(s.IdleCycles) / c
	}
	return u
}

// PCUtilization computes the breakdown for a baseline PE.
func PCUtilization(p *pcpe.PE) Utilization {
	s := p.Stats()
	u := Utilization{Name: p.Name(), Fired: s.Fired, Cycles: s.Cycles}
	if s.Cycles > 0 {
		c := float64(s.Cycles)
		u.Occupancy = float64(s.Fired) / c
		u.InputStall = float64(s.InputStall) / c
		u.OutputStall = float64(s.OutputStall) / c
		u.Penalty = float64(s.PenaltyStall) / c
	}
	return u
}

// Geomean returns the geometric mean of positive values; zero if any
// value is non-positive or the slice is empty.
func Geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}
