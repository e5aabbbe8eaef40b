package fabric

import (
	"fmt"

	"tia/internal/channel"
	"tia/internal/isa"
)

// Sink drains tokens from a channel at the fabric boundary and records
// them. A sink completes when it has seen the number of EOD tokens it was
// told to expect (default 1), or — if constructed with an expected token
// count — when that many tokens have arrived.
type Sink struct {
	name      string
	in        *channel.Channel
	toks      []channel.Token
	wantEODs  int
	seenEODs  int
	wantToks  int // 0 means "complete on EODs"
	completed bool
}

// NewSink returns a sink that completes after one EOD token.
func NewSink(name string) *Sink { return &Sink{name: name, wantEODs: 1} }

// NewCountingSink returns a sink that completes after n tokens of any tag.
func NewCountingSink(name string, n int) *Sink {
	return &Sink{name: name, wantToks: n}
}

// NewMultiEODSink returns a sink that completes after n EOD tokens, for
// outputs that interleave several EOD-terminated streams.
func NewMultiEODSink(name string, n int) *Sink {
	return &Sink{name: name, wantEODs: n}
}

// Name implements Element.
func (s *Sink) Name() string { return s.name }

// ConnectIn implements InPort; only index 0 exists.
func (s *Sink) ConnectIn(idx int, ch *channel.Channel) error {
	if idx != 0 {
		return fmt.Errorf("sink %s: input index %d out of range", s.name, idx)
	}
	if s.in != nil {
		return fmt.Errorf("sink %s: input connected twice", s.name)
	}
	s.in = ch
	return nil
}

// CheckConnections implements the fabric's connection check.
func (s *Sink) CheckConnections() error {
	if s.in == nil {
		return fmt.Errorf("sink %s: input unconnected", s.name)
	}
	return nil
}

// Step implements Element: consume one token per cycle.
func (s *Sink) Step(int64) bool {
	if s.completed {
		return false
	}
	tok, ok := s.in.Peek()
	if !ok {
		return false
	}
	s.in.Deq()
	s.toks = append(s.toks, tok)
	if tok.Tag == isa.TagEOD {
		s.seenEODs++
	}
	if s.wantToks > 0 {
		s.completed = len(s.toks) >= s.wantToks
	} else {
		s.completed = s.seenEODs >= s.wantEODs
	}
	return true
}

// Done implements Element.
func (s *Sink) Done() bool { return s.completed }

// Completed reports whether the sink's termination condition was met.
func (s *Sink) Completed() bool { return s.completed }

// Tokens returns every token received, including EODs. The slice
// aliases the sink's record and is valid until the fabric's next Reset
// or Restore, which refill the record in place.
func (s *Sink) Tokens() []channel.Token { return s.toks }

// Words returns the data payloads of the non-EOD tokens received.
func (s *Sink) Words() []isa.Word {
	var out []isa.Word
	for _, t := range s.toks {
		if t.Tag != isa.TagEOD {
			out = append(out, t.Data)
		}
	}
	return out
}
