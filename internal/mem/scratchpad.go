// Package mem implements the scratchpad memory elements embedded in a
// spatial fabric. Workloads keep lookup tables (S-boxes, twiddle factors,
// CSR arrays, failure functions) and bulk data in scratchpads and access
// them through latency-insensitive request/response channels, exactly as
// PEs access the memory elements of the paper's fabric.
package mem

import (
	"fmt"

	"tia/internal/channel"
	"tia/internal/isa"
)

// Port indices of a Scratchpad.
const (
	// PortReadAddr is input 0: each token's data is an address to read;
	// the response on PortReadData carries the same tag as the request,
	// so requesters can label and demultiplex responses.
	PortReadAddr = 0
	// PortWriteAddr is input 1: the address of a write. Writes commit
	// when both an address and a data token are available.
	PortWriteAddr = 1
	// PortWriteData is input 2: the data of a write.
	PortWriteData = 2
	// PortReadData is output 0: read responses, in request order.
	PortReadData = 0
	// PortWriteAck is output 1 (optional): one token {1, TagData} per
	// committed write, in commit order. Requesters use it to sequence
	// reads after writes (read-after-write hazards) and to build stage
	// barriers; when unconnected, writes are unacknowledged.
	PortWriteAck = 1
)

// Scratchpad is a word-addressed memory element servicing at most one read
// and one write per cycle.
type Scratchpad struct {
	name string
	data []isa.Word

	rdAddr *channel.Channel
	wrAddr *channel.Channel
	wrData *channel.Channel
	rdResp *channel.Channel
	wrAck  *channel.Channel

	// readLatency adds pipeline stages to read accesses (0 = respond the
	// cycle the request is serviced, the default). One request still
	// enters the array per cycle: a banked SRAM pipeline, not a slower
	// serial one.
	readLatency int
	rdPipe      []pendingRead

	reads, writes int64
	err           error

	init []isa.Word
}

// New returns a scratchpad holding `words` zeroed words, panicking on a
// non-positive size (use NewChecked on untrusted paths).
func New(name string, words int) *Scratchpad {
	m, err := NewChecked(name, words)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// NewChecked is New with an invalid size reported as an error.
func NewChecked(name string, words int) (*Scratchpad, error) {
	if words <= 0 {
		return nil, fmt.Errorf("scratchpad %s: size %d", name, words)
	}
	return &Scratchpad{name: name, data: make([]isa.Word, words), init: make([]isa.Word, words)}, nil
}

// Load copies contents into the scratchpad starting at address 0 and
// records it as the initial image, which snapshots encode their memory
// as a delta against (see SnapshotState). It panics on an oversize
// image (use TryLoad on untrusted paths).
func (m *Scratchpad) Load(contents []isa.Word) {
	if err := m.TryLoad(contents); err != nil {
		panic(err.Error())
	}
}

// TryLoad is Load with an oversize image reported as an error.
func (m *Scratchpad) TryLoad(contents []isa.Word) error {
	if len(contents) > len(m.data) {
		return fmt.Errorf("scratchpad %s: load of %d words into %d-word memory", m.name, len(contents), len(m.data))
	}
	copy(m.data, contents)
	copy(m.init, contents)
	return nil
}

type pendingRead struct {
	tok       channel.Token
	remaining int
}

// SetReadLatency adds n pipeline stages to every read access. Requests
// are still accepted at one per cycle; responses come out n cycles later
// (and in order). Latency-insensitive requesters need no changes.
func (m *Scratchpad) SetReadLatency(n int) {
	if n < 0 {
		n = 0
	}
	m.readLatency = n
}

// ReadLatency returns the configured extra read pipeline depth.
func (m *Scratchpad) ReadLatency() int { return m.readLatency }

// Name implements fabric.Element.
func (m *Scratchpad) Name() string { return m.name }

// Size returns the scratchpad capacity in words.
func (m *Scratchpad) Size() int { return len(m.data) }

// Word returns the current contents of address a (for tests and debug).
func (m *Scratchpad) Word(a int) isa.Word { return m.data[a] }

// ConnectIn implements fabric.InPort: it reports a bad index or a
// double connection as an error.
func (m *Scratchpad) ConnectIn(idx int, ch *channel.Channel) error {
	switch idx {
	case PortReadAddr:
		return m.connect(&m.rdAddr, ch)
	case PortWriteAddr:
		return m.connect(&m.wrAddr, ch)
	case PortWriteData:
		return m.connect(&m.wrData, ch)
	default:
		return fmt.Errorf("scratchpad %s: input index %d out of range", m.name, idx)
	}
}

// ConnectOut implements fabric.OutPort: it reports a bad index or a
// double connection as an error.
func (m *Scratchpad) ConnectOut(idx int, ch *channel.Channel) error {
	switch idx {
	case PortReadData:
		return m.connect(&m.rdResp, ch)
	case PortWriteAck:
		return m.connect(&m.wrAck, ch)
	default:
		return fmt.Errorf("scratchpad %s: output index %d out of range", m.name, idx)
	}
}

func (m *Scratchpad) connect(slot **channel.Channel, ch *channel.Channel) error {
	if *slot != nil {
		return fmt.Errorf("scratchpad %s: port connected twice", m.name)
	}
	*slot = ch
	return nil
}

// CheckConnections requires a response channel whenever reads are wired.
func (m *Scratchpad) CheckConnections() error {
	if m.rdAddr != nil && m.rdResp == nil {
		return fmt.Errorf("scratchpad %s: read port wired without response channel", m.name)
	}
	if (m.wrAddr == nil) != (m.wrData == nil) {
		return fmt.Errorf("scratchpad %s: write port needs both address and data channels", m.name)
	}
	return nil
}

// Step implements fabric.Element: service at most one read and one write.
func (m *Scratchpad) Step(int64) bool {
	if m.err != nil {
		return false
	}
	worked := false
	// Drain the read pipeline's head into the response channel.
	if len(m.rdPipe) > 0 && m.rdPipe[0].remaining == 0 && m.rdResp.CanAccept() {
		m.rdResp.Send(m.rdPipe[0].tok)
		// Shift rather than re-slice: the pipeline is at most
		// readLatency+1 entries, and keeping the base stable lets the
		// backing array be reused forever (no per-op allocation).
		copy(m.rdPipe, m.rdPipe[1:])
		m.rdPipe = m.rdPipe[:len(m.rdPipe)-1]
		worked = true
	}
	for i := range m.rdPipe {
		if m.rdPipe[i].remaining > 0 {
			m.rdPipe[i].remaining--
			worked = true // tokens advancing through the pipeline
		}
	}
	if m.rdAddr != nil {
		req, ok := m.rdAddr.Peek()
		// With zero latency, respond directly (subject to response
		// space); with pipelining, accept one request per cycle while
		// the pipeline has room.
		switch {
		case ok && m.readLatency == 0 && len(m.rdPipe) == 0 && m.rdResp.CanAccept():
			a := int(req.Data)
			if a < 0 || a >= len(m.data) {
				m.err = fmt.Errorf("read of address %d in %d-word scratchpad", a, len(m.data))
				return true
			}
			m.rdAddr.Deq()
			m.rdResp.Send(channel.Token{Data: m.data[a], Tag: req.Tag})
			m.reads++
			worked = true
		case ok && m.readLatency > 0 && len(m.rdPipe) <= m.readLatency:
			a := int(req.Data)
			if a < 0 || a >= len(m.data) {
				m.err = fmt.Errorf("read of address %d in %d-word scratchpad", a, len(m.data))
				return true
			}
			m.rdAddr.Deq()
			m.rdPipe = append(m.rdPipe, pendingRead{
				tok:       channel.Token{Data: m.data[a], Tag: req.Tag},
				remaining: m.readLatency - 1,
			})
			m.reads++
			worked = true
		}
	}
	if m.wrAddr != nil {
		addr, okA := m.wrAddr.Peek()
		val, okD := m.wrData.Peek()
		if okA && okD && (m.wrAck == nil || m.wrAck.CanAccept()) {
			a := int(addr.Data)
			if a < 0 || a >= len(m.data) {
				m.err = fmt.Errorf("write of address %d in %d-word scratchpad", a, len(m.data))
				return true
			}
			m.wrAddr.Deq()
			m.wrData.Deq()
			m.data[a] = val.Data
			if m.wrAck != nil {
				m.wrAck.Send(channel.Data(1))
			}
			m.writes++
			worked = true
		}
	}
	return worked
}

// Done implements fabric.Element; a scratchpad is passive and never done.
func (m *Scratchpad) Done() bool { return false }

// Err surfaces out-of-range accesses to the fabric run loop.
func (m *Scratchpad) Err() error { return m.err }

// Reads and Writes return the cumulative serviced request counts.
func (m *Scratchpad) Reads() int64  { return m.reads }
func (m *Scratchpad) Writes() int64 { return m.writes }
