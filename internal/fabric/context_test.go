package fabric

import (
	"context"
	"errors"
	"testing"
	"time"

	"tia/internal/isa"
)

// spinnerFabric never completes and never quiesces: the PE increments a
// register every cycle, feeding a sink that still wants its EOD.
func spinnerFabric(t *testing.T) *Fabric {
	t.Helper()
	f := New(DefaultConfig())
	prog := []isa.Instruction{{
		Label: "spin",
		Op:    isa.OpAdd,
		Srcs:  [2]isa.Src{isa.Reg(0), isa.Imm(1)},
		Dsts:  []isa.Dst{isa.DReg(0), isa.DOut(0, isa.TagData)},
	}}
	p := mustPE(t, "spin", prog)
	snk := NewSink("snk")
	f.Add(p)
	f.Add(snk)
	f.Wire(p, 0, snk, 0)
	return f
}

// TestRunContextPreCancelled: an already-cancelled context stops the
// run before any cycle is simulated.
func TestRunContextPreCancelled(t *testing.T) {
	f := spinnerFabric(t)
	f.cfg.CancelCheckInterval = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := f.RunContext(ctx, 1_000_000)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if res.Cycles != 0 {
		t.Errorf("pre-cancelled run simulated %d cycles, want 0", res.Cycles)
	}
}

// TestRunContextDeadlineMidFlight: a deadline expiring during the run
// stops it between cancellation checks, preserving the cycle count.
func TestRunContextDeadlineMidFlight(t *testing.T) {
	f := spinnerFabric(t)
	f.cfg.CancelCheckInterval = 64
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	res, err := f.RunContext(ctx, 2_000_000_000)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if res.Cycles <= 0 || res.Cycles >= 2_000_000_000 {
		t.Errorf("cancelled run reports %d cycles, want mid-flight count", res.Cycles)
	}
}

// TestRunContextBackgroundMatchesRun: a background context changes
// nothing about a normal run's result.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	build := func() *Fabric {
		f := New(DefaultConfig())
		src := NewWordSource("src", []isa.Word{10, 20, 30}, true)
		p := mustPE(t, "fwd", forwarderProg())
		snk := NewSink("snk")
		f.Add(src)
		f.Add(p)
		f.Add(snk)
		f.Wire(src, 0, p, 0)
		f.Wire(p, 0, snk, 0)
		return f
	}
	plain, err := build().Run(1000)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ctxRes, err := build().RunContext(context.Background(), 1000)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if plain != ctxRes {
		t.Errorf("RunContext result %+v differs from Run result %+v", ctxRes, plain)
	}
}
