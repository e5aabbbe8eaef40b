// Package channel implements the latency-insensitive communication links
// that connect elements of a spatial fabric.
//
// A Channel is a point-to-point link carrying tagged tokens. It has a
// receiver-side FIFO of fixed capacity, a configurable wire latency, and
// credit-based flow control: a sender may only enqueue when credits remain
// (capacity minus everything queued, in flight, or staged this cycle).
//
// Channels are simulated with a two-phase protocol so that the order in
// which fabric elements are stepped within a cycle cannot change results:
// during a cycle, elements observe only committed state (Peek, CanAccept)
// and stage their effects (Send, Deq); Tick commits all staged effects and
// advances in-flight tokens by one cycle. A token sent during cycle t
// becomes visible to the receiver at cycle t+1+latency.
package channel

import (
	"fmt"

	"tia/internal/isa"
)

// Token is the unit of communication: a data word plus a small tag.
type Token struct {
	Data isa.Word
	Tag  isa.Tag
}

// String renders the token as "data" or "data#tag" when tagged.
func (t Token) String() string {
	if t.Tag == isa.TagData {
		return fmt.Sprintf("%d", t.Data)
	}
	return fmt.Sprintf("%d#%d", t.Data, t.Tag)
}

// Data wraps a word in an ordinary data token.
func Data(w isa.Word) Token { return Token{Data: w, Tag: isa.TagData} }

// EOD returns the conventional end-of-data token.
func EOD() Token { return Token{Tag: isa.TagEOD} }

type flight struct {
	tok       Token
	remaining int
}

// DeliverAction is a FaultHook's verdict on a token arriving at the
// receiver FIFO.
type DeliverAction int

const (
	// Deliver enqueues the (possibly mutated) token normally.
	Deliver DeliverAction = iota
	// Drop discards the token; the sender's credit is still freed.
	Drop
	// Dup enqueues the token twice, if a spare credit exists (otherwise
	// it degrades to Deliver; duplication must not break flow control).
	Dup
)

// FaultHook lets a fault-injection layer (internal/faults) perturb one
// channel. All three methods are consulted from Tick, i.e. in the commit
// phase, so perturbations are invisible to same-cycle observers and the
// two-phase determinism argument still holds. A hook must be a pure
// function of its own state and the per-channel event sequence (sends,
// deliveries), never of cross-channel tick order — the dense and
// event-driven steppers tick channels in different orders.
type FaultHook interface {
	// SendDelay returns extra wire latency, in cycles, for a token
	// entering the wire. Ordering is preserved regardless (the wire
	// delivers in FIFO order), so a delayed token also delays its
	// successors.
	SendDelay(tok Token) int
	// Stalled reports that the wire is frozen this tick: nothing ages and
	// nothing is delivered. Staged sends still move onto the wire.
	Stalled() bool
	// Deliver inspects a token leaving the wire for the receiver FIFO and
	// may mutate, drop or duplicate it.
	Deliver(tok Token) (Token, DeliverAction)
}

// Channel is one latency-insensitive link. The zero value is unusable; use
// New.
//
// Credit-based flow control bounds every buffer by the FIFO capacity
// (queued + in flight + staged <= capacity), so the receiver FIFO and the
// wire are fixed-size rings allocated once at New: steady-state simulation
// does not allocate.
type Channel struct {
	name     string
	capacity int
	latency  int

	queue      []Token // ring: receiver FIFO, len == capacity
	qHead      int
	qLen       int
	inflight   []flight // ring: tokens on the wire, len == capacity
	ifHead     int
	ifLen      int
	stagedSend []Token // this cycle's sends, cap == capacity
	stagedDeq  bool
	// unlisted marks the channel as off list, the tick list of the
	// fabric run it belongs to (nil outside one); id is its index there.
	unlisted bool
	list     *TickList
	id       int
	hook     FaultHook // nil in normal operation

	// Stats, cumulative since construction.
	sent      int64
	delivered int64
	consumed  int64
	maxOcc    int
}

// New returns a channel with the given FIFO capacity (>= 1) and extra wire
// latency (>= 0 cycles beyond the mandatory one-cycle registered hop).
// It panics on invalid parameters; construction paths fed by untrusted
// input should use NewChecked instead.
func New(name string, capacity, latency int) *Channel {
	c, err := NewChecked(name, capacity, latency)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// NewChecked is New with invalid parameters reported as an error instead
// of a panic.
func NewChecked(name string, capacity, latency int) (*Channel, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("channel %s: capacity %d < 1", name, capacity)
	}
	if latency < 0 {
		return nil, fmt.Errorf("channel %s: negative latency %d", name, latency)
	}
	c := &Channel{name: name, capacity: capacity, latency: latency}
	c.queue = make([]Token, capacity)
	if latency > 0 {
		c.inflight = make([]flight, capacity)
	}
	c.stagedSend = make([]Token, 0, capacity)
	return c, nil
}

// Name returns the channel's debug name.
func (c *Channel) Name() string { return c.name }

// Cap returns the receiver FIFO capacity.
func (c *Channel) Cap() int { return c.capacity }

// Latency returns the extra wire latency in cycles.
func (c *Channel) Latency() int { return c.latency }

// Len returns the number of committed tokens visible to the receiver.
func (c *Channel) Len() int { return c.qLen }

// InFlight returns the number of tokens on the wire, not yet visible.
func (c *Channel) InFlight() int { return c.ifLen }

// CanAccept reports whether the sender holds a credit: the FIFO has room
// for everything already queued, in flight, and staged this cycle.
func (c *Channel) CanAccept() bool {
	return c.qLen+c.ifLen+len(c.stagedSend) < c.capacity
}

// Send stages a token for transmission this cycle. The caller must have
// checked CanAccept; violating flow control is a simulator bug and panics.
func (c *Channel) Send(tok Token) {
	if !c.CanAccept() {
		panic(fmt.Sprintf("channel %s: send without credit", c.name))
	}
	c.stagedSend = append(c.stagedSend, tok)
	c.sent++
	c.relist()
}

// Ready reports whether a committed token is visible to the receiver —
// Peek's boolean without copying the token. Compiled step closures (see
// internal/pe) use it for their channel-status scans.
func (c *Channel) Ready() bool { return c.qLen > 0 }

// HeadTag returns the committed head token's tag. The caller must have
// observed Ready; the tag of an empty channel is unspecified.
func (c *Channel) HeadTag() isa.Tag {
	return c.queue[c.qHead].Tag
}

// Peek returns the committed head token without consuming it.
func (c *Channel) Peek() (Token, bool) {
	if c.qLen == 0 {
		return Token{}, false
	}
	return c.queue[c.qHead], true
}

// Deq stages consumption of the head token this cycle. At most one dequeue
// per channel per cycle is legal (one receiver); a second is a simulator
// bug and panics, as is dequeuing an empty channel.
func (c *Channel) Deq() {
	if c.qLen == 0 {
		panic(fmt.Sprintf("channel %s: dequeue of empty channel", c.name))
	}
	if c.stagedDeq {
		panic(fmt.Sprintf("channel %s: double dequeue in one cycle", c.name))
	}
	c.stagedDeq = true
	c.consumed++
	c.relist()
}

// relist puts a channel that just staged an effect back on its tick
// list, if it had left it.
func (c *Channel) relist() {
	if c.unlisted {
		c.unlisted = false
		c.list.buf[c.list.off+c.list.n] = c.id
		c.list.n++
	}
}

// TickList is the list of channels a fabric commits this cycle. It is
// one buffer of two halves, the current list and the next one, which
// swap by offset, so keeping it costs no pointer writes per cycle. A
// channel attached to it is on the current list until Unlist, and puts
// itself back the first time it stages a Send or Deq after that: the
// current list holds each attached channel at most once.
type TickList struct {
	buf          []int
	half, off, n int
}

// Reset empties the list and sizes it for n channels.
func (l *TickList) Reset(n int) {
	if cap(l.buf) < 2*n {
		l.buf = make([]int, 2*n)
	}
	l.buf, l.half, l.off, l.n = l.buf[:2*n], n, 0, 0
}

// Current returns the channel indices on the list this cycle.
func (l *TickList) Current() []int { return l.buf[l.off : l.off+l.n] }

// Next returns the empty other half, to be filled and passed to Flip.
func (l *TickList) Next() []int {
	o := l.half - l.off
	return l.buf[o : o : o+l.half]
}

// Flip makes the first k entries of Next the current list.
func (l *TickList) Flip(k int) { l.off, l.n = l.half-l.off, k }

// Attach puts the channel on l as index id.
func (c *Channel) Attach(l *TickList, id int) {
	c.list, c.id, c.unlisted = l, id, false
	l.buf[l.off+l.n] = id
	l.n++
}

// Unlist marks an attached channel as off its list; the caller leaves
// it out of the next list.
func (c *Channel) Unlist() { c.unlisted = true }

// Tick commits the cycle: applies the staged dequeue, moves staged sends
// onto the wire, and delivers arrivals. Call exactly once per fabric cycle.
//
// It reports whether committed state visible to an endpoint changed: a
// dequeue was applied (the head changed and a sender credit was freed) or
// tokens were delivered (the receiver gained a head). Tokens merely
// advancing along the wire are invisible — Peek, CanAccept and Len all
// count in-flight and queued tokens the same way — so they do not count
// as a change. The fabric's event-driven stepper wakes a channel's
// endpoints exactly when Tick reports a change.
func (c *Channel) Tick() bool {
	if c.hook != nil {
		return c.tickFaulty()
	}
	changed := false
	if c.stagedDeq {
		c.qHead++
		if c.qHead == c.capacity {
			c.qHead = 0
		}
		c.qLen--
		c.stagedDeq = false
		changed = true
	}
	if c.latency == 0 {
		// Zero-latency fast path: a token staged this cycle arrives this
		// tick (visible next cycle), so the wire ring is never touched.
		if len(c.stagedSend) > 0 {
			for _, tok := range c.stagedSend {
				c.enqueue(tok)
			}
			c.delivered += int64(len(c.stagedSend))
			c.stagedSend = c.stagedSend[:0]
			changed = true
		}
	} else {
		for _, tok := range c.stagedSend {
			i := c.ifHead + c.ifLen
			if i >= c.capacity {
				i -= c.capacity
			}
			c.inflight[i] = flight{tok: tok, remaining: c.latency}
			c.ifLen++
		}
		c.stagedSend = c.stagedSend[:0]
		// Deliver in-flight tokens in order; tokens never reorder, so only
		// a prefix of the wire ring can arrive.
		for c.ifLen > 0 && c.inflight[c.ifHead].remaining == 0 {
			c.enqueue(c.inflight[c.ifHead].tok)
			c.delivered++
			c.ifHead++
			if c.ifHead == c.capacity {
				c.ifHead = 0
			}
			c.ifLen--
			changed = true
		}
		i := c.ifHead
		for k := 0; k < c.ifLen; k++ {
			c.inflight[i].remaining--
			i++
			if i == c.capacity {
				i = 0
			}
		}
	}
	if c.qLen > c.maxOcc {
		c.maxOcc = c.qLen
	}
	return changed
}

// Commit is the fused per-cycle commit used by the fabric's event-driven
// steppers: one call performs Tick and classifies the post-commit state,
// saving two method calls (Idle, Quiet) per active channel per cycle.
// busy is !Idle (tokens exist somewhere); quiet means nothing is staged
// or in flight, so a further Tick would be a no-op.
func (c *Channel) Commit() (changed, busy, quiet bool) {
	changed = c.Tick()
	quiet = c.ifLen == 0 && len(c.stagedSend) == 0 && !c.stagedDeq
	busy = !quiet || c.qLen != 0
	return changed, busy, quiet
}

// SetFaultHook attaches (or, with nil, detaches) a fault hook. Attaching
// switches Tick to the wired path even on zero-latency channels (so
// jitter and stalls have a wire to act on); with a hook that injects
// nothing, that path is observationally identical to the fast path — a
// zero-latency token staged this cycle still arrives this tick — which
// the zero-rate differential tests assert.
func (c *Channel) SetFaultHook(h FaultHook) {
	if h != nil && c.inflight == nil {
		c.inflight = make([]flight, c.capacity)
	}
	c.hook = h
}

// tickFaulty is Tick with a fault hook attached: every staged token goes
// onto the wire with hook-chosen extra latency, the wire freezes while
// the hook reports a stall, and every arriving token passes through the
// hook's Deliver (mutate / drop / duplicate). Token order is never
// changed: only a remaining==0 prefix of the wire can arrive, so a
// delayed token delays its successors too.
func (c *Channel) tickFaulty() bool {
	changed := false
	if c.stagedDeq {
		c.qHead++
		if c.qHead == c.capacity {
			c.qHead = 0
		}
		c.qLen--
		c.stagedDeq = false
		changed = true
	}
	for _, tok := range c.stagedSend {
		i := c.ifHead + c.ifLen
		if i >= c.capacity {
			i -= c.capacity
		}
		extra := c.hook.SendDelay(tok)
		if extra < 0 {
			extra = 0
		}
		c.inflight[i] = flight{tok: tok, remaining: c.latency + extra}
		c.ifLen++
	}
	c.stagedSend = c.stagedSend[:0]
	if !c.hook.Stalled() {
		for c.ifLen > 0 && c.inflight[c.ifHead].remaining == 0 {
			tok := c.inflight[c.ifHead].tok
			c.ifHead++
			if c.ifHead == c.capacity {
				c.ifHead = 0
			}
			c.ifLen--
			// A token leaving the wire always changes committed state:
			// either the receiver gains a token or (on a drop) the sender
			// gains a credit.
			changed = true
			out, act := c.hook.Deliver(tok)
			switch act {
			case Drop:
			case Dup:
				c.enqueue(out)
				c.delivered++
				if c.qLen+c.ifLen+len(c.stagedSend) < c.capacity {
					c.enqueue(out)
					c.delivered++
				}
			default:
				c.enqueue(out)
				c.delivered++
			}
		}
		i := c.ifHead
		for k := 0; k < c.ifLen; k++ {
			if c.inflight[i].remaining > 0 {
				c.inflight[i].remaining--
			}
			i++
			if i == c.capacity {
				i = 0
			}
		}
	}
	if c.qLen > c.maxOcc {
		c.maxOcc = c.qLen
	}
	return changed
}

// enqueue appends a token to the receiver FIFO ring. Flow control
// guarantees room.
func (c *Channel) enqueue(tok Token) {
	i := c.qHead + c.qLen
	if i >= c.capacity {
		i -= c.capacity
	}
	c.queue[i] = tok
	c.qLen++
}

// Quiet reports that ticking the channel would be a no-op: nothing is
// staged and nothing is in flight. A quiet channel may still hold queued
// tokens (so it is not necessarily Idle); its committed state simply
// cannot change until an endpoint stages a new send or dequeue, and
// that staging puts it back on its TickList.
func (c *Channel) Quiet() bool {
	return c.ifLen == 0 && len(c.stagedSend) == 0 && !c.stagedDeq
}

// Idle reports whether the channel holds no tokens anywhere (queued, in
// flight, or staged). Fabric quiescence detection uses this.
func (c *Channel) Idle() bool {
	return c.qLen == 0 && c.ifLen == 0 && len(c.stagedSend) == 0 && !c.stagedDeq
}

// Stats is a snapshot of the channel's cumulative counters.
type Stats struct {
	Sent         int64 // tokens staged by the sender
	Delivered    int64 // tokens that reached the receiver FIFO
	Consumed     int64 // tokens dequeued by the receiver
	MaxOccupancy int   // high-water mark of the receiver FIFO
}

// Stats returns a snapshot of the channel's counters.
func (c *Channel) Stats() Stats {
	return Stats{Sent: c.sent, Delivered: c.delivered, Consumed: c.consumed, MaxOccupancy: c.maxOcc}
}
