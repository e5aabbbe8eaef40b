package fabric

import (
	"testing"

	"tia/internal/isa"
	"tia/internal/mem"
	"tia/internal/pcpe"
	"tia/internal/pe"
)

// Every element kind connects through the one InPort/OutPort contract.
var (
	_ InPort  = (*pe.PE)(nil)
	_ OutPort = (*pe.PE)(nil)
	_ InPort  = (*pcpe.PE)(nil)
	_ OutPort = (*pcpe.PE)(nil)
	_ InPort  = (*mem.Scratchpad)(nil)
	_ OutPort = (*mem.Scratchpad)(nil)
	_ InPort  = (*Sink)(nil)
	_ OutPort = (*Source)(nil)
)

// wireFunc wires src's output outIdx to dst's input inIdx on one fabric.
type wireFunc func(src OutPort, outIdx int, dst InPort, inIdx int) error

// TestConnectErrors pins, for every element kind and both port
// directions, the error TryWireOpt returns for an out-of-range index and
// for a port connected twice, and checks that Wire panics with the same
// text.
func TestConnectErrors(t *testing.T) {
	newPE := func() *pe.PE { return mustPE(t, "e", pe.MergeProgram()) }
	newPCPE := func() *pcpe.PE {
		p, err := pcpe.New("e", pcpe.DefaultConfig(), pcpe.MergeProgram())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	newSource := func() *Source { return NewWordSource("e", []isa.Word{1}, true) }
	outs := []struct {
		kind       string
		mk         func() OutPort
		bad, twice string
	}{
		{"pe", func() OutPort { return newPE() }, "pe e: output index 99 out of range", "pe e: output 0 connected twice"},
		{"pcpe", func() OutPort { return newPCPE() }, "pcpe e: output index 99 out of range", "pcpe e: output 0 connected twice"},
		{"scratchpad", func() OutPort { return mem.New("e", 4) }, "scratchpad e: output index 99 out of range", "scratchpad e: port connected twice"},
		{"source", func() OutPort { return newSource() }, "source e: output index 99 out of range", "source e: output connected twice"},
	}
	ins := []struct {
		kind       string
		mk         func() InPort
		bad, twice string
	}{
		{"pe", func() InPort { return newPE() }, "pe e: input index 99 out of range", "pe e: input 0 connected twice"},
		{"pcpe", func() InPort { return newPCPE() }, "pcpe e: input index 99 out of range", "pcpe e: input 0 connected twice"},
		{"scratchpad", func() InPort { return mem.New("e", 4) }, "scratchpad e: input index 99 out of range", "scratchpad e: port connected twice"},
		{"sink", func() InPort { return NewSink("e") }, "sink e: input index 99 out of range", "sink e: input connected twice"},
	}
	type wireCase struct {
		name, want string
		run        func(wire wireFunc) error
	}
	var cases []wireCase
	for _, o := range outs {
		o := o
		cases = append(cases,
			wireCase{o.kind + "/out-of-range-output", o.bad, func(wire wireFunc) error {
				return wire(o.mk(), 99, NewSink("s"), 0)
			}},
			wireCase{o.kind + "/output-twice", o.twice, func(wire wireFunc) error {
				src := o.mk()
				if err := wire(src, 0, NewSink("s1"), 0); err != nil {
					return err
				}
				return wire(src, 0, NewSink("s2"), 0)
			}})
	}
	for _, i := range ins {
		i := i
		cases = append(cases,
			wireCase{i.kind + "/out-of-range-input", i.bad, func(wire wireFunc) error {
				return wire(newSource(), 0, i.mk(), 99)
			}},
			wireCase{i.kind + "/input-twice", i.twice, func(wire wireFunc) error {
				dst := i.mk()
				if err := wire(NewWordSource("s1", nil, true), 0, dst, 0); err != nil {
					return err
				}
				return wire(NewWordSource("s2", nil, true), 0, dst, 0)
			}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := New(DefaultConfig())
			err := c.run(func(src OutPort, outIdx int, dst InPort, inIdx int) error {
				_, err := f.TryWireOpt(src, outIdx, dst, inIdx, 2, 0)
				return err
			})
			if err == nil || err.Error() != c.want {
				t.Errorf("TryWireOpt error %v, want %q", err, c.want)
			}

			f = New(DefaultConfig())
			defer func() {
				if r := recover(); r != c.want {
					t.Errorf("Wire panicked with %v, want %q", r, c.want)
				}
			}()
			c.run(func(src OutPort, outIdx int, dst InPort, inIdx int) error {
				f.Wire(src, outIdx, dst, inIdx)
				return nil
			})
		})
	}
}
