package channel

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tia/internal/isa"
	"tia/internal/snapshot"
)

func TestSendVisibleNextCycle(t *testing.T) {
	c := New("c", 4, 0)
	c.Send(Data(7))
	if _, ok := c.Peek(); ok {
		t.Fatal("token visible in send cycle")
	}
	c.Tick()
	tok, ok := c.Peek()
	if !ok || tok.Data != 7 {
		t.Fatalf("Peek after Tick = %v,%v want 7,true", tok, ok)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	for lat := 0; lat <= 3; lat++ {
		c := New("c", 8, lat)
		c.Send(Data(1))
		ticks := 0
		for {
			c.Tick()
			ticks++
			if _, ok := c.Peek(); ok {
				break
			}
			if ticks > 10 {
				t.Fatalf("latency %d: never delivered", lat)
			}
		}
		if ticks != 1+lat {
			t.Errorf("latency %d: delivered after %d ticks, want %d", lat, ticks, 1+lat)
		}
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	c := New("c", 16, 2)
	var want []isa.Word
	for i := 0; i < 10; i++ {
		if i < 5 {
			c.Send(Data(isa.Word(i)))
			want = append(want, isa.Word(i))
		}
		c.Tick()
	}
	var got []isa.Word
	for {
		tok, ok := c.Peek()
		if !ok {
			break
		}
		got = append(got, tok.Data)
		c.Deq()
		c.Tick()
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("token %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCreditFlowControl(t *testing.T) {
	c := New("c", 2, 3)
	if !c.CanAccept() {
		t.Fatal("fresh channel refuses token")
	}
	c.Send(Data(1))
	c.Send(Data(2))
	if c.CanAccept() {
		t.Fatal("accepted beyond capacity (inflight must count)")
	}
	// Even after many ticks without consumption, no credit returns.
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	if c.CanAccept() {
		t.Fatal("credit returned without consumption")
	}
	c.Deq()
	if c.CanAccept() {
		t.Fatal("credit returned before commit")
	}
	c.Tick()
	if !c.CanAccept() {
		t.Fatal("credit not returned after consume+commit")
	}
}

func TestPanicsOnProtocolViolations(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("send without credit", func() {
		c := New("c", 1, 0)
		c.Send(Data(1))
		c.Send(Data(2))
	})
	expectPanic("deq empty", func() {
		c := New("c", 1, 0)
		c.Deq()
	})
	expectPanic("double deq", func() {
		c := New("c", 2, 0)
		c.Send(Data(1))
		c.Tick()
		c.Deq()
		c.Deq()
	})
	expectPanic("zero capacity", func() { New("c", 0, 0) })
	expectPanic("negative latency", func() { New("c", 1, -1) })
}

// TestIdleAndReset: a channel restored to its fresh state (what
// Fabric.Reset does) is empty again and has zeroed statistics.
func TestIdleAndReset(t *testing.T) {
	c := New("c", 4, 1)
	if !c.Idle() {
		t.Fatal("fresh channel not idle")
	}
	var fresh snapshot.Encoder
	c.SnapshotState(&fresh)
	c.Send(Data(9))
	if c.Idle() {
		t.Fatal("idle with staged send")
	}
	c.Tick()
	if c.Idle() {
		t.Fatal("idle with inflight token")
	}
	c.Tick()
	if c.Idle() {
		t.Fatal("idle with queued token")
	}
	if err := c.RestoreState(snapshot.NewDecoder(fresh.Data())); err != nil {
		t.Fatal(err)
	}
	if !c.Idle() || c.Len() != 0 {
		t.Fatal("restore of the fresh state did not empty channel")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("restore of the fresh state kept stats: %+v", s)
	}
}

func TestStatsCounters(t *testing.T) {
	c := New("c", 4, 0)
	c.Send(Data(1))
	c.Send(Data(2))
	c.Tick()
	c.Deq()
	c.Tick()
	s := c.Stats()
	if s.Sent != 2 || s.Delivered != 2 || s.Consumed != 1 {
		t.Errorf("stats = %+v, want sent=2 delivered=2 consumed=1", s)
	}
	if s.MaxOccupancy != 2 {
		t.Errorf("MaxOccupancy = %d, want 2", s.MaxOccupancy)
	}
}

// Property: under a random schedule of sends and consumes, the receiver
// observes exactly the sent sequence, in order, regardless of capacity and
// latency, and flow control is never violated.
func TestRandomScheduleDeliversInOrder(t *testing.T) {
	f := func(capSeed, latSeed uint8, seed int64) bool {
		capacity := 1 + int(capSeed%8)
		latency := int(latSeed % 5)
		rng := rand.New(rand.NewSource(seed))
		c := New("c", capacity, latency)
		const n = 50
		sent, got := []isa.Word{}, []isa.Word{}
		next := isa.Word(0)
		for cycle := 0; cycle < 2000 && len(got) < n; cycle++ {
			if len(sent) < n && rng.Intn(2) == 0 && c.CanAccept() {
				c.Send(Data(next))
				sent = append(sent, next)
				next++
			}
			if tok, ok := c.Peek(); ok && rng.Intn(3) != 0 {
				got = append(got, tok.Data)
				c.Deq()
			}
			c.Tick()
		}
		if len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != sent[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: occupancy (queued + inflight + staged) never exceeds capacity.
func TestOccupancyBoundedProperty(t *testing.T) {
	f := func(capSeed, latSeed uint8, seed int64) bool {
		capacity := 1 + int(capSeed%6)
		latency := int(latSeed % 4)
		rng := rand.New(rand.NewSource(seed))
		c := New("c", capacity, latency)
		for cycle := 0; cycle < 500; cycle++ {
			for c.CanAccept() && rng.Intn(2) == 0 {
				c.Send(Data(isa.Word(cycle)))
			}
			if _, ok := c.Peek(); ok && rng.Intn(2) == 0 {
				c.Deq()
			}
			if c.Len()+c.InFlight() > capacity {
				return false
			}
			c.Tick()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTokenString(t *testing.T) {
	if s := Data(5).String(); s != "5" {
		t.Errorf("Data(5) = %q", s)
	}
	if s := EOD().String(); s != "0#1" {
		t.Errorf("EOD() = %q", s)
	}
}

// TestTickListRelists: a channel dropped from its tick list puts itself
// back the first time it stages a Send or Deq, exactly once, and a
// channel outside any list never touches one.
func TestTickListRelists(t *testing.T) {
	var l TickList
	l.Reset(2)
	a, b := New("a", 2, 0), New("b", 2, 0)
	a.Attach(&l, 0)
	b.Attach(&l, 1)
	check := func(step string, want ...int) {
		t.Helper()
		if got := l.Current(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: tick list %v, want %v", step, got, want)
		}
	}
	check("attached", 0, 1)
	// A commit phase that keeps a and drops b.
	next := append(l.Next(), 0)
	b.Unlist()
	l.Flip(len(next))
	check("b dropped", 0)
	b.Send(Data(1))
	check("b sent", 0, 1)
	b.Send(Data(2))
	check("b sent again", 0, 1)
	a.Send(Data(3))
	check("a sent while listed", 0, 1)
	// The next commit drops b again; a Deq relists it.
	b.Tick()
	next = append(l.Next(), 0)
	b.Unlist()
	l.Flip(len(next))
	check("b dropped again", 0)
	b.Deq()
	check("b dequeued", 0, 1)
	// Attaching again (a new run) lists an unlisted channel once.
	b.Tick()
	b.Unlist()
	l.Reset(2)
	a.Attach(&l, 0)
	b.Attach(&l, 1)
	b.Send(Data(5))
	check("reattached", 0, 1)

	c := New("c", 1, 0)
	c.Send(Data(4))
	c.Tick()
	c.Deq()
	if c.Tick(); !c.Idle() {
		t.Fatal("standalone channel did not drain")
	}
}
