package fabric

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"tia/internal/isa"
	"tia/internal/pe"
)

// forwardFabric is a source feeding a forwarding PE into a sink, with
// one unconnected spare channel when spare is set.
func forwardFabric(t *testing.T, spare bool) (*Fabric, *Source, *pe.PE, *Sink) {
	t.Helper()
	f := New(DefaultConfig())
	src := NewWordSource("src", []isa.Word{1, 2, 3, 4, 5, 6}, true)
	p := mustPE(t, "fwd", forwarderProg())
	snk := NewSink("snk")
	f.Add(src)
	f.Add(p)
	f.Add(snk)
	f.Wire(src, 0, p, 0)
	f.Wire(p, 0, snk, 0)
	if spare {
		f.NewChannel("spare", 1, 0)
	}
	return f, src, p, snk
}

// TestResetUndoesPartialRestore: a snapshot that passes the container's
// digest and fingerprint checks but fails in a late section leaves the
// elements restored and the channels not. Reset must still put the
// fabric back to its build-time state, because the state is captured
// before Restore decodes its first section; the service's fallback
// restart (restoreOrRestart) depends on it.
func TestResetUndoesPartialRestore(t *testing.T) {
	const fp = "forward"
	donor, _, _, _ := forwardFabric(t, true)
	if _, err := donor.Run(5); !errors.Is(err, ErrTimeout) {
		t.Fatalf("donor run: %v, want a timeout mid-stream", err)
	}
	snap, err := donor.Snapshot(fp)
	if err != nil {
		t.Fatal(err)
	}

	f, src, p, snk := forwardFabric(t, false)
	err = f.Restore(snap, fp)
	if err == nil || !strings.Contains(err.Error(), "channels") {
		t.Fatalf("restore of a snapshot with one more channel: %v, want a channel-count error", err)
	}
	if src.Remaining() == 7 {
		t.Fatal("restore failed before any element section; the test needs a late failure")
	}
	f.Reset()
	res, err := f.Run(1000)

	fresh, _, freshPE, freshSnk := forwardFabric(t, false)
	want, wantErr := fresh.Run(1000)
	if res != want || !errors.Is(err, wantErr) {
		t.Errorf("after partial restore + Reset: %+v, %v; fresh build %+v, %v", res, err, want, wantErr)
	}
	if !reflect.DeepEqual(snk.Tokens(), freshSnk.Tokens()) {
		t.Errorf("sink tokens %v, fresh build %v", snk.Tokens(), freshSnk.Tokens())
	}
	if !reflect.DeepEqual(p.Stats(), freshPE.Stats()) {
		t.Errorf("PE stats %+v, fresh build %+v", p.Stats(), freshPE.Stats())
	}
}

// TestResetPanics: Reset has nothing to restore, and says why, on a
// fabric holding an element that cannot be checkpointed and on one
// whose structure changed after it ran.
func TestResetPanics(t *testing.T) {
	expectPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Fatalf("%s: Reset did not panic", name)
			}
			if msg, _ := r.(string); !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q, want it to contain %q", name, msg, want)
			}
		}()
		fn()
	}

	f := New(DefaultConfig())
	f.Add(&brokenElem{at: 1 << 40})
	expectPanic("non-checkpointable element", "element broken (*fabric.brokenElem) does not support checkpointing", f.Reset)

	g, _, _, _ := forwardFabric(t, false)
	if _, err := g.Run(1000); err != nil {
		t.Fatal(err)
	}
	g.NewChannel("late", 1, 0)
	expectPanic("structure changed after a run", "structure changed after the fabric ran", g.Reset)
}
