package mem

import (
	"errors"
	"testing"

	"tia/internal/channel"
	"tia/internal/fabric"
	"tia/internal/isa"
	"tia/internal/snapshot"
)

// tick steps the scratchpad and commits its channels.
func tick(m *Scratchpad, chans ...*channel.Channel) {
	m.Step(0)
	for _, c := range chans {
		c.Tick()
	}
}

func wiredScratchpad(words int) (*Scratchpad, *channel.Channel, *channel.Channel, *channel.Channel, *channel.Channel) {
	m := New("sp", words)
	ra := channel.New("ra", 4, 0)
	wa := channel.New("wa", 4, 0)
	wd := channel.New("wd", 4, 0)
	rd := channel.New("rd", 4, 0)
	m.ConnectIn(PortReadAddr, ra)
	m.ConnectIn(PortWriteAddr, wa)
	m.ConnectIn(PortWriteData, wd)
	m.ConnectOut(PortReadData, rd)
	return m, ra, wa, wd, rd
}

func TestReadPreservesTag(t *testing.T) {
	m, ra, wa, wd, rd := wiredScratchpad(8)
	m.Load([]isa.Word{100, 200, 300})
	ra.Send(channel.Token{Data: 2, Tag: 5})
	tick(m, ra, wa, wd, rd) // request becomes visible
	tick(m, ra, wa, wd, rd) // serviced
	tok, ok := rd.Peek()
	if !ok || tok.Data != 300 || tok.Tag != 5 {
		t.Fatalf("read response = %v,%v want 300#5", tok, ok)
	}
	if m.Reads() != 1 {
		t.Errorf("Reads = %d, want 1", m.Reads())
	}
}

func TestWriteWaitsForBothTokens(t *testing.T) {
	m, ra, wa, wd, rd := wiredScratchpad(8)
	wa.Send(channel.Data(3))
	tick(m, ra, wa, wd, rd)
	tick(m, ra, wa, wd, rd)
	if m.Writes() != 0 {
		t.Fatal("write committed without data token")
	}
	wd.Send(channel.Data(77))
	tick(m, ra, wa, wd, rd)
	tick(m, ra, wa, wd, rd)
	if m.Writes() != 1 || m.Word(3) != 77 {
		t.Fatalf("write not committed: writes=%d mem[3]=%d", m.Writes(), m.Word(3))
	}
}

func TestReadAndWriteSameCycle(t *testing.T) {
	m, ra, wa, wd, rd := wiredScratchpad(8)
	m.Load([]isa.Word{9})
	ra.Send(channel.Data(0))
	wa.Send(channel.Data(1))
	wd.Send(channel.Data(42))
	tick(m, ra, wa, wd, rd)
	tick(m, ra, wa, wd, rd)
	if m.Reads() != 1 || m.Writes() != 1 {
		t.Fatalf("reads=%d writes=%d, want 1/1", m.Reads(), m.Writes())
	}
}

func TestOutOfRangeAccessFaults(t *testing.T) {
	m, ra, wa, wd, rd := wiredScratchpad(4)
	ra.Send(channel.Data(99))
	tick(m, ra, wa, wd, rd)
	tick(m, ra, wa, wd, rd)
	if m.Err() == nil {
		t.Fatal("out-of-range read not reported")
	}
	m2, ra2, wa2, wd2, rd2 := wiredScratchpad(4)
	wa2.Send(channel.Data(100))
	wd2.Send(channel.Data(1))
	tick(m2, ra2, wa2, wd2, rd2)
	tick(m2, ra2, wa2, wd2, rd2)
	if m2.Err() == nil {
		t.Fatal("out-of-range write not reported")
	}
}

func TestBackpressureStallsReads(t *testing.T) {
	m := New("sp", 4)
	ra := channel.New("ra", 4, 0)
	rd := channel.New("rd", 1, 0)
	m.ConnectIn(PortReadAddr, ra)
	m.ConnectOut(PortReadData, rd)
	ra.Send(channel.Data(0))
	ra.Send(channel.Data(1))
	ra.Tick()
	rd.Tick()
	// First read fills the depth-1 response channel; second must wait.
	for i := 0; i < 5; i++ {
		m.Step(0)
		ra.Tick()
		rd.Tick()
	}
	if m.Reads() != 1 {
		t.Fatalf("Reads = %d despite full response channel, want 1", m.Reads())
	}
}

func TestCheckConnections(t *testing.T) {
	m := New("sp", 4)
	m.ConnectIn(PortReadAddr, channel.New("ra", 2, 0))
	if err := m.CheckConnections(); err == nil {
		t.Fatal("read port without response accepted")
	}
	m2 := New("sp2", 4)
	m2.ConnectIn(PortWriteAddr, channel.New("wa", 2, 0))
	if err := m2.CheckConnections(); err == nil {
		t.Fatal("write addr without data accepted")
	}
}

// TestResetRestoresImage: restoring the state captured after Load, as
// Fabric.Reset does, puts the loaded image back and zeroes the counters.
func TestResetRestoresImage(t *testing.T) {
	m, ra, wa, wd, rd := wiredScratchpad(4)
	m.Load([]isa.Word{1, 2, 3, 4})
	var loaded snapshot.Encoder
	m.SnapshotState(&loaded)
	wa.Send(channel.Data(0))
	wd.Send(channel.Data(99))
	tick(m, ra, wa, wd, rd)
	tick(m, ra, wa, wd, rd)
	if m.Word(0) != 99 {
		t.Fatal("write missing")
	}
	if err := m.RestoreState(snapshot.NewDecoder(loaded.Data())); err != nil {
		t.Fatal(err)
	}
	if m.Word(0) != 1 || m.Reads() != 0 || m.Writes() != 0 {
		t.Fatal("restore did not put back the loaded image and counters")
	}
}

// Integration: a scratchpad inside a fabric answering a stream of reads.
func TestScratchpadInFabric(t *testing.T) {
	f := fabric.New(fabric.DefaultConfig())
	m := New("table", 8)
	m.Load([]isa.Word{10, 11, 12, 13, 14, 15, 16, 17})
	src := fabric.NewWordSource("addrs", []isa.Word{7, 0, 3}, false)
	snk := fabric.NewCountingSink("snk", 3)
	f.Add(src)
	f.Add(m)
	f.Add(snk)
	f.Wire(src, 0, m, PortReadAddr)
	f.Wire(m, PortReadData, snk, 0)
	res, err := f.Run(100)
	if err != nil || !res.Completed {
		t.Fatalf("Run = %+v, %v", res, err)
	}
	got := snk.Words()
	want := []isa.Word{17, 10, 13}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("responses %v, want %v", got, want)
		}
	}
}

func TestFabricSurfacesScratchpadFault(t *testing.T) {
	f := fabric.New(fabric.DefaultConfig())
	m := New("table", 2)
	src := fabric.NewWordSource("addrs", []isa.Word{9}, false)
	snk := fabric.NewCountingSink("snk", 1)
	f.Add(src)
	f.Add(m)
	f.Add(snk)
	f.Wire(src, 0, m, PortReadAddr)
	f.Wire(m, PortReadData, snk, 0)
	_, err := f.Run(100)
	if err == nil || errors.Is(err, fabric.ErrTimeout) {
		t.Fatalf("want scratchpad fault error, got %v", err)
	}
}

func TestWriteAck(t *testing.T) {
	m := New("sp", 4)
	wa := channel.New("wa", 4, 0)
	wd := channel.New("wd", 4, 0)
	ack := channel.New("ack", 1, 0)
	m.ConnectIn(PortWriteAddr, wa)
	m.ConnectIn(PortWriteData, wd)
	m.ConnectOut(PortWriteAck, ack)
	wa.Send(channel.Data(0))
	wd.Send(channel.Data(7))
	wa.Send(channel.Data(1))
	wd.Send(channel.Data(8))
	for i := 0; i < 4; i++ {
		m.Step(0)
		wa.Tick()
		wd.Tick()
		ack.Tick()
	}
	// Depth-1 ack channel not drained: only the first write commits.
	if m.Writes() != 1 {
		t.Fatalf("writes = %d despite full ack channel, want 1", m.Writes())
	}
	tok, ok := ack.Peek()
	if !ok || tok.Data != 1 {
		t.Fatalf("ack = %v,%v want 1", tok, ok)
	}
	ack.Deq()
	for i := 0; i < 4; i++ {
		m.Step(0)
		wa.Tick()
		wd.Tick()
		ack.Tick()
	}
	if m.Writes() != 2 {
		t.Fatalf("writes = %d after draining ack, want 2", m.Writes())
	}
	if m.Word(0) != 7 || m.Word(1) != 8 {
		t.Fatalf("memory = %d,%d want 7,8", m.Word(0), m.Word(1))
	}
}

func TestReadLatencyPipelined(t *testing.T) {
	for _, lat := range []int{0, 1, 3} {
		m := New("sp", 8)
		m.Load([]isa.Word{10, 11, 12, 13})
		m.SetReadLatency(lat)
		ra := channel.New("ra", 8, 0)
		rd := channel.New("rd", 8, 0)
		m.ConnectIn(PortReadAddr, ra)
		m.ConnectOut(PortReadData, rd)
		// Issue three back-to-back requests.
		ra.Send(channel.Data(0))
		ra.Send(channel.Data(1))
		ra.Send(channel.Data(2))
		ra.Tick()
		rd.Tick()
		firstAt := -1
		var got []isa.Word
		for cyc := 0; cyc < 20 && len(got) < 3; cyc++ {
			m.Step(0)
			ra.Tick()
			rd.Tick()
			if tok, ok := rd.Peek(); ok {
				if firstAt < 0 {
					firstAt = cyc
				}
				got = append(got, tok.Data)
				rd.Deq()
			}
		}
		if len(got) != 3 || got[0] != 10 || got[1] != 11 || got[2] != 12 {
			t.Fatalf("lat=%d: responses %v", lat, got)
		}
		// First response appears exactly `lat` cycles later than at
		// latency 0, and the pipeline still delivers one per cycle.
		if firstAt != lat {
			t.Errorf("lat=%d: first response at cycle %d, want %d", lat, firstAt, lat)
		}
	}
}

func TestReadLatencyPreservesTagOrder(t *testing.T) {
	m := New("sp", 4)
	m.Load([]isa.Word{7, 8})
	m.SetReadLatency(2)
	ra := channel.New("ra", 4, 0)
	rd := channel.New("rd", 4, 0)
	m.ConnectIn(PortReadAddr, ra)
	m.ConnectOut(PortReadData, rd)
	ra.Send(channel.Token{Data: 0, Tag: 2})
	ra.Send(channel.Token{Data: 1, Tag: 3})
	ra.Tick()
	rd.Tick()
	var toks []channel.Token
	for cyc := 0; cyc < 20 && len(toks) < 2; cyc++ {
		m.Step(0)
		ra.Tick()
		rd.Tick()
		if tok, ok := rd.Peek(); ok {
			toks = append(toks, tok)
			rd.Deq()
		}
	}
	if len(toks) != 2 || toks[0].Tag != 2 || toks[1].Tag != 3 || toks[0].Data != 7 || toks[1].Data != 8 {
		t.Fatalf("responses %v", toks)
	}
}
