package fabric

import (
	"fmt"

	"tia/internal/channel"
	"tia/internal/isa"
)

// Source feeds a predefined token stream into the fabric, one token per
// cycle, respecting the output channel's flow control. It models the
// ingress DMA engine / memory streamer at a fabric boundary.
type Source struct {
	name string
	out  *channel.Channel
	toks []channel.Token
	pos  int
}

// NewSource returns a source that will emit toks in order on output 0.
func NewSource(name string, toks []channel.Token) *Source {
	return &Source{name: name, toks: toks}
}

// NewWordSource returns a source emitting the words as data tokens,
// followed by an EOD token when eod is true.
func NewWordSource(name string, words []isa.Word, eod bool) *Source {
	toks := make([]channel.Token, 0, len(words)+1)
	for _, w := range words {
		toks = append(toks, channel.Data(w))
	}
	if eod {
		toks = append(toks, channel.EOD())
	}
	return NewSource(name, toks)
}

// Name implements Element.
func (s *Source) Name() string { return s.name }

// ConnectOut implements OutPort; only index 0 exists.
func (s *Source) ConnectOut(idx int, ch *channel.Channel) error {
	if idx != 0 {
		return fmt.Errorf("source %s: output index %d out of range", s.name, idx)
	}
	if s.out != nil {
		return fmt.Errorf("source %s: output connected twice", s.name)
	}
	s.out = ch
	return nil
}

// CheckConnections implements the fabric's connection check.
func (s *Source) CheckConnections() error {
	if s.out == nil && len(s.toks) > 0 {
		return fmt.Errorf("source %s: output unconnected", s.name)
	}
	return nil
}

// Step implements Element: emit the next token if the channel has room.
func (s *Source) Step(int64) bool {
	if s.pos >= len(s.toks) || !s.out.CanAccept() {
		return false
	}
	s.out.Send(s.toks[s.pos])
	s.pos++
	return true
}

// Done implements Element.
func (s *Source) Done() bool { return s.pos >= len(s.toks) }

// Remaining returns how many tokens have not yet been emitted.
func (s *Source) Remaining() int { return len(s.toks) - s.pos }
