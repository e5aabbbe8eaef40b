package channel

// Regression gates for channel buffer reuse: RestoreState must keep the
// capacity of every ring and staging buffer allocated by New. Fabric.Reset
// is a RestoreState of each channel's build-time state, so a channel that
// regrew stagedSend (or the rings) per restore would put an allocation
// inside every fabric reset loop — campaign sweeps, benchmarks, the
// service's fallback restart — and break the fabric-level
// zero-allocation gates (see internal/fabric/alloc_test.go).

import (
	"testing"

	"tia/internal/snapshot"
)

// churn drives the channel through a full staging cycle: fill to
// capacity, commit, drain one.
func churn(c *Channel) {
	for c.CanAccept() {
		c.Send(Data(7))
	}
	c.Tick()
	if _, ok := c.Peek(); ok {
		c.Deq()
		c.Tick()
	}
}

// TestResetReusesCapacity: restoring the fresh state through a reused
// decoder and refilling, as Fabric.Reset and the next run do, allocates
// nothing in steady state.
func TestResetReusesCapacity(t *testing.T) {
	for _, latency := range []int{0, 2} {
		c := New("c", 4, latency)
		var fresh snapshot.Encoder
		c.SnapshotState(&fresh)
		var d snapshot.Decoder
		churn(c) // warm
		avg := testing.AllocsPerRun(100, func() {
			d.Reset(fresh.Data())
			if err := c.RestoreState(&d); err != nil {
				t.Fatal(err)
			}
			churn(c)
		})
		if avg != 0 {
			t.Errorf("latency %d: restore+refill allocates %.1f times per run, want 0", latency, avg)
		}
	}
}

// TestRestoreReusesCapacity: RestoreState refills the buffers New
// allocated instead of replacing them. Identity of the backing arrays
// is checked directly (an in-package test can), because AllocsPerRun
// around a restore would also count the decoder's own setup.
func TestRestoreReusesCapacity(t *testing.T) {
	c := New("c", 4, 1)
	for c.CanAccept() {
		c.Send(Data(3))
	}
	c.Tick()
	var e snapshot.Encoder
	c.SnapshotState(&e)

	queue := &c.queue[0]
	inflight := &c.inflight[0]
	staged := &c.stagedSend[:1][0]
	if err := c.RestoreState(snapshot.NewDecoder(e.Data())); err != nil {
		t.Fatal(err)
	}
	if &c.queue[0] != queue {
		t.Error("RestoreState replaced the receiver FIFO ring")
	}
	if &c.inflight[0] != inflight {
		t.Error("RestoreState replaced the wire ring")
	}
	if &c.stagedSend[:1][0] != staged {
		t.Error("RestoreState replaced the staged-send buffer")
	}
	if cap(c.stagedSend) != c.capacity {
		t.Errorf("staged-send capacity %d after restore, want %d", cap(c.stagedSend), c.capacity)
	}
}
