package workloads

// The snapshot field audit. Fabric.Reset restores the state each element
// and channel encoded when the fabric was built, so a field that
// SnapshotState leaves out is neither checkpointed nor reset: it carries
// from one run into the next. TestSnapshotFieldAudit makes every field
// of every checkpointable state struct declare how it is kept, and
// TestResetRestoresEncodedState holds every kernel's elements and
// channels, after a run and a Reset, to a fresh build on each field
// declared encoded.

import (
	"fmt"
	"reflect"
	"testing"

	"tia/internal/channel"
	"tia/internal/fabric"
	"tia/internal/faults"
	"tia/internal/mem"
	"tia/internal/noc"
	"tia/internal/pcpe"
	"tia/internal/pe"
)

// fieldKind says how a field of a state struct survives a snapshot and
// a Reset.
type fieldKind int

const (
	// encoded: SnapshotState writes it and RestoreState puts it back.
	encoded fieldKind = iota
	// ring: ring-buffer storage, of which only the live window (bounded
	// by encoded head and length fields) is encoded; slots outside it
	// are not state.
	ring
	// rebuilt: derived state that prepare, CompileStep, BeginRun,
	// Attach/Rearm or RestoreState itself rebuild.
	rebuilt
	// config: set by construction, wiring or configuration calls. A
	// snapshot restores only onto the identical program (the
	// fingerprint), so it is never encoded.
	config
)

var (
	injectorType = reflect.TypeOf(faults.Injector{})
	chanSiteType = fieldElem(injectorType, "chans")
	elemSiteType = fieldElem(injectorType, "elemList")
)

// fieldElem is the element type of a slice-of-pointers field.
func fieldElem(t reflect.Type, name string) reflect.Type {
	f, ok := t.FieldByName(name)
	if !ok {
		panic(fmt.Sprintf("%v has no field %s", t, name))
	}
	return f.Type.Elem().Elem()
}

// snapshotFields classifies every field of every state struct whose
// SnapshotState a fabric snapshot, and so Fabric.Reset, relies on.
var snapshotFields = map[reflect.Type]map[string]fieldKind{
	reflect.TypeOf(pe.PE{}): {
		"name": config, "cfg": config, "prog": config,
		"regs": encoded, "predBits": encoded, "halted": encoded,
		"in": config, "out": config,
		"policy": config, "rrOffset": encoded, "issueWidth": config,
		"lastStall": encoded, "stats": encoded,
		"compileGen": rebuilt, "compiledFor": rebuilt, "compiledStep": rebuilt,
		"compiledRegs": rebuilt, "compiledPreds": rebuilt,
		"Trace": config,
	},
	reflect.TypeOf(pcpe.PE{}): {
		"name": config, "cfg": config, "prog": config,
		"regs": encoded, "pc": encoded, "halted": encoded,
		"penalty": encoded, "penaltyHot": encoded,
		"in": config, "out": config,
		"stats": encoded, "lastStall": encoded,
	},
	reflect.TypeOf(channel.Channel{}): {
		"name": config, "capacity": config, "latency": config,
		"queue": ring, "qHead": encoded, "qLen": encoded,
		"inflight": ring, "ifHead": encoded, "ifLen": encoded,
		"stagedSend": encoded, "stagedDeq": encoded,
		"unlisted": rebuilt, "list": rebuilt, "id": rebuilt,
		"hook": config,
		"sent": encoded, "delivered": encoded, "consumed": encoded, "maxOcc": encoded,
	},
	reflect.TypeOf(mem.Scratchpad{}): {
		"name": config, "data": encoded,
		"rdAddr": config, "wrAddr": config, "wrData": config, "rdResp": config, "wrAck": config,
		"readLatency": config, "rdPipe": encoded,
		"reads": encoded, "writes": encoded,
		"err":  rebuilt, // cleared by RestoreState: only fault-free runs are checkpointed
		"init": config,
	},
	reflect.TypeOf(fabric.Source{}): {
		"name": config, "out": config, "toks": config, "pos": encoded,
	},
	reflect.TypeOf(fabric.Sink{}): {
		"name": config, "in": config, "toks": encoded,
		"wantEODs": config, "seenEODs": encoded, "wantToks": config, "completed": encoded,
	},
	// The injector is not part of the state Reset restores (Rearm
	// re-arms it), but Snapshot and Restore carry it.
	injectorType: {
		"plan":   config,
		"cycle":  rebuilt, // BeginCycle
		"counts": encoded,
		"chans":  config, "elems": config, "elemList": config, // sites, built by Attach
		"edgeLo": rebuilt, "edgeHi": rebuilt, "frozen": rebuilt, // BeginCycle's window caches
	},
	chanSiteType: {
		"inj": config, "ch": config,
		"rng":    rebuilt, // a view of src
		"src":    encoded, // its draw count, replayed by RestoreState
		"hash":   config,
		"stalls": rebuilt, "widx": rebuilt, "stalledNow": rebuilt, // redrawn by Attach/Rearm, cursors by BeginCycle
	},
	elemSiteType: {
		"rng": rebuilt, "src": rebuilt, // drawn only by Attach/Rearm
		"hash":    config,
		"freezes": rebuilt, "widx": rebuilt, "frozenNow": rebuilt,
	},
}

// notCheckpointable lists element types without a snapshot. A fabric
// holding one cannot Snapshot, and its Reset panics.
var notCheckpointable = []reflect.Type{reflect.TypeOf(noc.Mesh{})}

var snapshotterType = reflect.TypeOf((*fabric.Snapshotter)(nil)).Elem()

// TestSnapshotFieldAudit: every field of every audited struct is
// classified, and no classification names a field that is gone. A new
// field fails here until it is classified, and one classified encoded
// must be added to SnapshotState and RestoreState.
func TestSnapshotFieldAudit(t *testing.T) {
	for typ, fields := range snapshotFields {
		seen := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			seen[name] = true
			if _, ok := fields[name]; !ok {
				t.Errorf("%v.%s is not classified: is it encoded by SnapshotState, rebuilt, or configuration?", typ, name)
			}
		}
		for name := range fields {
			if !seen[name] {
				t.Errorf("%v.%s is classified but no longer exists", typ, name)
			}
		}
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(pe.PE{}), reflect.TypeOf(pcpe.PE{}), reflect.TypeOf(channel.Channel{}),
		reflect.TypeOf(mem.Scratchpad{}), reflect.TypeOf(fabric.Source{}), reflect.TypeOf(fabric.Sink{}), injectorType} {
		if !reflect.PointerTo(typ).Implements(snapshotterType) {
			t.Errorf("%v is audited but does not implement fabric.Snapshotter", typ)
		}
	}
	for _, typ := range notCheckpointable {
		if reflect.PointerTo(typ).Implements(snapshotterType) {
			t.Errorf("%v now implements fabric.Snapshotter: classify its fields in snapshotFields", typ)
		}
	}
}

// TestResetRestoresEncodedState: for every kernel, in its triggered and
// PC forms, under the default scheduler and round-robin at issue width
// two, a run followed by Fabric.Reset leaves every encoded field of
// every element and channel equal to a fresh build's. A field dropped
// from a SnapshotState shows here even when no kernel's output depends
// on it, as the round-robin offset's does not.
func TestResetRestoresEncodedState(t *testing.T) {
	for _, spec := range All() {
		for _, sched := range []struct {
			name string
			p    Params
		}{
			{"priority", Params{Seed: 1}},
			{"rr-w2", Params{Seed: 1, Policy: pe.SchedRoundRobin, IssueWidth: 2}},
		} {
			for _, form := range []struct {
				name  string
				build func(Params) (*Instance, error)
			}{{"tia", spec.BuildTIA}, {"pc", spec.BuildPC}} {
				t.Run(spec.Name+"/"+form.name+"/"+sched.name, func(t *testing.T) {
					p := spec.Normalize(sched.p)
					reused, err := form.build(p)
					if err != nil {
						t.Fatal(err)
					}
					if res, err := reused.Fabric.Run(spec.MaxCycles(p)); err != nil || !res.Completed {
						t.Fatalf("run: %+v, %v", res, err)
					}
					reused.Fabric.Reset()
					fresh, err := form.build(p)
					if err != nil {
						t.Fatal(err)
					}
					got, want := reused.Fabric.Elements(), fresh.Fabric.Elements()
					for i := range want {
						compareEncoded(t, want[i].Name(), got[i], want[i])
					}
					gotCh, wantCh := reused.Fabric.Channels(), fresh.Fabric.Channels()
					for i := range wantCh {
						compareEncoded(t, wantCh[i].Name(), gotCh[i], wantCh[i])
					}
				})
			}
		}
	}
}

// compareEncoded compares the encoded fields of two elements or
// channels of the same type. fmt reads unexported fields by reflection.
func compareEncoded(t *testing.T, name string, got, want any) {
	t.Helper()
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	fields, ok := snapshotFields[w.Type()]
	if !ok {
		t.Errorf("%s: %v is not in the snapshot field audit", name, w.Type())
		return
	}
	for i := 0; i < w.NumField(); i++ {
		f := w.Type().Field(i).Name
		if fields[f] != encoded {
			continue
		}
		if gs, ws := fmt.Sprintf("%v", g.Field(i)), fmt.Sprintf("%v", w.Field(i)); gs != ws {
			t.Errorf("%s.%s after a run and Reset is %s, fresh build %s", name, f, gs, ws)
		}
	}
}
