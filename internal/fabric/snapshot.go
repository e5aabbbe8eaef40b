package fabric

import (
	"fmt"

	"tia/internal/channel"
	"tia/internal/isa"
	"tia/internal/snapshot"
)

// Snapshotter is implemented by elements (and fault injectors) whose
// architectural state can be checkpointed. SnapshotState must serialize
// everything RestoreState needs to make the element bit-identical to its
// state at the cycle boundary the snapshot was taken on; static
// configuration (programs, capacities, initial images) is not state — it
// is pinned by the fingerprint in the snapshot header instead.
type Snapshotter interface {
	SnapshotState(e *snapshot.Encoder)
	RestoreState(d *snapshot.Decoder) error
}

// SnapshotState serializes the source's stream position (the stream
// itself is static configuration).
func (s *Source) SnapshotState(e *snapshot.Encoder) {
	e.Int(s.pos)
}

// RestoreState rewinds or advances the source to the snapshot position.
func (s *Source) RestoreState(d *snapshot.Decoder) error {
	pos := d.Int()
	if err := d.Err(); err != nil {
		return fmt.Errorf("source %s: %w", s.name, err)
	}
	if pos < 0 || pos > len(s.toks) {
		return fmt.Errorf("source %s: snapshot position %d outside stream of %d tokens", s.name, pos, len(s.toks))
	}
	s.pos = pos
	return nil
}

// SnapshotState serializes the tokens received so far plus the
// completion tracking.
func (s *Sink) SnapshotState(e *snapshot.Encoder) {
	e.Int(len(s.toks))
	for _, tok := range s.toks {
		e.U64(uint64(tok.Data))
		e.U64(uint64(tok.Tag))
	}
	e.Int(s.seenEODs)
	e.Bool(s.completed)
}

// RestoreState rebuilds the sink's received-token record in place: the
// record keeps its capacity, so a rerun after Fabric.Reset appends
// without allocating.
func (s *Sink) RestoreState(d *snapshot.Decoder) error {
	n := d.Count()
	s.toks = s.toks[:0]
	for k := 0; k < n && d.Err() == nil; k++ {
		data := d.U64()
		tag := d.U64()
		s.toks = append(s.toks, channel.Token{Data: isa.Word(data), Tag: isa.Tag(tag)})
	}
	s.seenEODs = d.Int()
	s.completed = d.Bool()
	if err := d.Err(); err != nil {
		return fmt.Errorf("sink %s: %w", s.name, err)
	}
	return nil
}

// Snapshot captures the fabric's full architectural state at the current
// cycle boundary: every element, every channel, the fault injector if
// one is attached, and the quiescence idle streak (so a run restored
// mid-way through an idle window ends at the same cycle). The given
// assembled-form fingerprint is baked into the header so the snapshot
// can only be restored onto the identical program (see Restore).
//
// Snapshot is only meaningful at a cycle boundary — between Tick commit
// and the next cycle's element steps — which is where the run loops'
// checkpoint hooks and every Run return path leave the fabric.
func (f *Fabric) Snapshot(fingerprint string) ([]byte, error) {
	f.prepare()
	var body snapshot.Encoder
	var sub snapshot.Encoder
	section := func(name string, snap func(*snapshot.Encoder)) {
		sub = snapshot.Encoder{}
		snap(&sub)
		body.String(name)
		body.Bytes(sub.Data())
	}
	body.Int(len(f.elems))
	for _, e := range f.elems {
		sn, ok := e.(Snapshotter)
		if !ok {
			return nil, fmt.Errorf("fabric snapshot: element %s (%T) does not support checkpointing", e.Name(), e)
		}
		section(e.Name(), sn.SnapshotState)
	}
	body.Int(len(f.chans))
	for _, ch := range f.chans {
		section(ch.Name(), ch.SnapshotState)
	}
	switch inj := f.inj.(type) {
	case nil:
		body.Bool(false)
	case Snapshotter:
		body.Bool(true)
		section("fault-injector", inj.SnapshotState)
	default:
		return nil, fmt.Errorf("fabric snapshot: fault injector %T does not support checkpointing", f.inj)
	}
	body.Int(f.stepper.idleStreak)
	return snapshot.Encode(snapshot.Header{Fingerprint: fingerprint, Cycle: f.cycle}, body.Data()), nil
}

// Restore rebuilds the fabric's architectural state from a snapshot
// taken by Snapshot on the identical program: the caller must have built
// the same fabric (same elements and channels in the same order, same
// fault plan attached if one was active) and must pass the same
// fingerprint, which is checked against the snapshot header. After
// Restore, Run continues the simulation bit-identically to the original
// uninterrupted run — the differential tests in package workloads hold
// both wake policies to that. Version-1 snapshots predate the idle
// streak and restore with a streak of zero.
func (f *Fabric) Restore(data []byte, fingerprint string) error {
	h, d, err := snapshot.Decode(data)
	if err != nil {
		return fmt.Errorf("fabric restore: %w", err)
	}
	if h.Fingerprint != fingerprint {
		return fmt.Errorf("fabric restore: snapshot is for program %s, not %s", h.Fingerprint, fingerprint)
	}
	// The build state is captured before the first section changes
	// anything, so Reset can undo a Restore that fails part way.
	f.prepare()
	f.touched = true
	restore := func(name string, sn Snapshotter) error {
		got := d.String()
		blob := d.Bytes()
		if err := d.Err(); err != nil {
			return err
		}
		if got != name {
			return fmt.Errorf("section %q where %q expected (element order drift)", got, name)
		}
		return f.restoreSection(name, sn, blob)
	}
	ne := d.Count()
	if d.Err() == nil && ne != len(f.elems) {
		return fmt.Errorf("fabric restore: snapshot has %d elements, fabric has %d", ne, len(f.elems))
	}
	for _, e := range f.elems {
		sn, ok := e.(Snapshotter)
		if !ok {
			return fmt.Errorf("fabric restore: element %s (%T) does not support checkpointing", e.Name(), e)
		}
		if err := restore(e.Name(), sn); err != nil {
			return fmt.Errorf("fabric restore: %w", err)
		}
	}
	nc := d.Count()
	if d.Err() == nil && nc != len(f.chans) {
		return fmt.Errorf("fabric restore: snapshot has %d channels, fabric has %d", nc, len(f.chans))
	}
	for _, ch := range f.chans {
		if err := restore(ch.Name(), ch); err != nil {
			return fmt.Errorf("fabric restore: %w", err)
		}
	}
	injPresent := d.Bool()
	if err := d.Err(); err != nil {
		return fmt.Errorf("fabric restore: %w", err)
	}
	switch {
	case injPresent && f.inj == nil:
		return fmt.Errorf("fabric restore: snapshot has fault-injector state but no injector is attached")
	case !injPresent && f.inj != nil:
		return fmt.Errorf("fabric restore: fault injector attached but snapshot has no injector state")
	case injPresent:
		sn, ok := f.inj.(Snapshotter)
		if !ok {
			return fmt.Errorf("fabric restore: fault injector %T does not support checkpointing", f.inj)
		}
		if err := restore("fault-injector", sn); err != nil {
			return fmt.Errorf("fabric restore: %w", err)
		}
	}
	streak := 0
	if h.Version >= 2 {
		streak = d.Int()
		if err := d.Err(); err != nil {
			return fmt.Errorf("fabric restore: %w", err)
		}
		if streak < 0 {
			return fmt.Errorf("fabric restore: negative idle streak %d", streak)
		}
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("fabric restore: %d trailing bytes in body", d.Remaining())
	}
	f.cycle = h.Cycle
	f.stepper.idleStreak = streak
	return nil
}

// restoreSection decodes one element's or channel's section through the
// fabric's reused decoder.
func (f *Fabric) restoreSection(name string, sn Snapshotter, section []byte) error {
	f.dec.Reset(section)
	if err := sn.RestoreState(&f.dec); err != nil {
		return err
	}
	if f.dec.Remaining() != 0 {
		return fmt.Errorf("section %q: %d trailing bytes (format drift)", name, f.dec.Remaining())
	}
	return nil
}

// SetCheckpoint registers a checkpoint hook: fn runs at every cycle
// boundary where the absolute cycle count is a multiple of every (so a
// restored run checkpoints at the same cycles the original would have),
// and once more when a run stops on context cancellation. The cycle loop
// brings per-element statistics fully up to date before invoking fn — it
// backfills sleeping elements — so fn can call Snapshot and capture state
// bit-identical to dense stepping. A non-nil
// error from fn aborts the run. Pass every <= 0 or fn == nil to disable.
func (f *Fabric) SetCheckpoint(every int64, fn func(cycle int64) error) {
	if every <= 0 || fn == nil {
		f.ckptEvery, f.ckptFn = 0, nil
		return
	}
	f.ckptEvery, f.ckptFn = every, fn
}
