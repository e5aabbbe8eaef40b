// The cycle loop. Stepper.Step simulates exactly one cycle and is the
// only cycle loop in the package: RunContext is BeginRun followed by
// Finish, and incremental callers — the differential tests that hold
// one-cycle-at-a-time stepping to RunContext — drive the identical
// code path one cycle at a time.
//
// Two wake policies share the loop:
//
//   - event-driven (the default): an element whose Step did no work goes
//     to sleep until one of its attached channels commits a change, and
//     a channel leaves the tick list once it is Quiet;
//   - dense (SetDenseStepping): no element ever sleeps and no channel
//     ever leaves the tick list. This is the reference the differential
//     tests hold the event-driven policy to.
//
// Either policy steps each element through one dispatch table (see
// refreshSteps): compiled step closures by default, every element's
// generic Step under SetInterpreted.
//
// Invariants of the event-driven policy (see DESIGN.md):
//
//   - An element is asleep only if its last Step returned false and no
//     attached channel has committed a change since. Step is pure for
//     unchanged inputs, so every skipped cycle would have been a no-work
//     cycle with the same outcome; SkipCycles backfills the counters.
//   - A channel is outside the tick list only if it is Quiet (nothing
//     staged, nothing in flight), in which case Tick would be a no-op.
//     Staging (Send or Deq) puts a channel off the list back on it (see
//     channel.TickList), so the invariant holds again before the next
//     tick phase without the loop visiting a worked element's channels.

package fabric

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"tia/internal/channel"
)

// Stepper drives one simulation run cycle by cycle. Obtain one from
// Fabric.BeginRun; it is pooled on the Fabric (a fabric has at most one
// run in flight, incremental or not), so steady-state Step loops
// allocate nothing. After Step reports the run finished, Result holds
// the same Result/error RunContext would have returned.
type Stepper struct {
	f      *Fabric
	st     *runState
	cc     cancelCheck
	budget int64 // cycles this run may simulate (RunContext's maxCycles)
	n      int64 // cycles simulated so far by this Stepper
	dense  bool  // wake policy: nothing sleeps, every channel ticks
	// idleStreak counts consecutive idle cycles toward QuiescenceWindow.
	// It is fabric state, not run state: it carries into the next run
	// (as the cycle count does), is captured by Snapshot and seeded by
	// Restore, and is cleared by Reset.
	idleStreak int
	done       bool
	res        Result
	err        error
}

// BeginRun validates the fabric and readies its pooled Stepper for an
// incremental run of at most maxCycles cycles, under the wake policy
// SetDenseStepping and the dispatch SetInterpreted selected. Starting a
// new run (BeginRun or RunContext) abandons any unfinished previous one.
func (f *Fabric) BeginRun(ctx context.Context, maxCycles int64) (*Stepper, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	f.prepare()
	f.touched = true
	f.refreshSteps()
	s := &f.stepper
	*s = Stepper{
		f:          f,
		st:         f.initRunState(),
		cc:         f.newCancelCheck(ctx),
		budget:     maxCycles,
		dense:      f.dense,
		idleStreak: s.idleStreak,
	}
	return s, nil
}

func (s *Stepper) finish(res Result, err error) bool {
	s.f.backfillSleepers(s.st)
	s.done, s.res, s.err = true, res, err
	return true
}

// Done reports that the run has finished (in any way: completion,
// deadlock, timeout, cancellation, element fault, checkpoint error).
func (s *Stepper) Done() bool { return s.done }

// Result returns the finished run's outcome; valid once Done reports
// true, identical to what RunContext would have returned.
func (s *Stepper) Result() (Result, error) { return s.res, s.err }

// Step simulates one cycle and reports whether the run finished: budget
// and cancel checks, fault BeginCycle, the element walk, channel commit,
// then the epilogue (element faults, completion, checkpoint,
// quiescence).
func (s *Stepper) Step() bool {
	if s.done {
		return true
	}
	f, st := s.f, s.st
	if s.n >= s.budget {
		return s.finish(Result{Cycles: f.cycle}, fmt.Errorf("after %d cycles: %w", f.cycle, ErrTimeout))
	}
	s.n++
	if err := s.cc.expired(); err != nil {
		if f.ckptFn != nil {
			f.checkpointSleepers(st)
			err = errors.Join(err, f.ckptFn(f.cycle))
		}
		return s.finish(Result{Cycles: f.cycle}, fmt.Errorf("cycle %d: %w", f.cycle, err))
	}
	cur := f.cycle
	mayFreeze := false
	if f.inj != nil {
		f.inj.BeginCycle(cur)
		// Frozen implies an active freeze window (see FaultInjector), so
		// the per-element Frozen call is skipped whole cycles at a time.
		mayFreeze = f.inj.Active()
	}
	elems, prep := f.elems, &f.prep
	worked, hinted, erred := false, false, -1
	// Walking awake's set bits in element order keeps the scan over a
	// mostly-sleeping fabric to a word per 64 elements.
	for w, word := range st.awake {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			i := w<<6 | b
			r := &prep.run[i]
			if mayFreeze && f.inj.Frozen(elems[i]) {
				// Frozen: skip the step but stay awake, so stepping
				// resumes the cycle the freeze ends even if no channel
				// changes in between. The cycle is accounted immediately
				// (an asleep frozen element is instead covered by its
				// wake-time backfill, exactly as under dense stepping).
				if r.skip != nil {
					r.skip.SkipCycles(1)
				}
				continue
			}
			if r.step(cur) {
				worked = true
				if r.sink != nil && !st.sinkDone[i] && r.sink.Completed() {
					st.sinkDone[i] = true
					st.sinksLeft--
				}
			} else if r.hint != nil && r.hint.NeedsStep() {
				// Read under both wake policies, so the quiescence rule in
				// epilogue sees the same hints dense and event-driven.
				hinted = true
			} else if !s.dense {
				st.awake[w] &^= 1 << b
				st.asleepSince[i] = cur
			}
			if r.faulty != nil && erred < 0 && r.faulty.Err() != nil {
				erred = i
			}
		}
	}

	loud := s.commitChannels(cur)
	return s.epilogue(worked || hinted, loud, erred)
}

// epilogue is the end-of-cycle bookkeeping: advance time, surface the
// fault of erred, the first element in element order whose Err turned
// non-nil in its step this cycle (-1 for none), detect completion,
// track quiescence and checkpoint. The idle streak is updated before
// the checkpoint hook runs, so a snapshot taken there holds the streak
// the next cycle starts from.
//
// A cycle counts toward QuiescenceWindow when nothing is working (no
// element worked or set its NeedsStep hint, as a PC PE draining a
// branch penalty does), no freeze window is open, and either no channel
// holds a token (busyCount == 0) or, while sinks are still pending, no
// channel is loud: none changed or kept a token staged or in flight.
// The latter is a fixed point. Tokens may sit in FIFOs whose consumers
// never fire (a dropped partner strands them), but the next cycle would
// repeat this one exactly, so waiting longer only burns the budget. A
// fabric without sinks still needs every channel Idle: quiescence is
// how it completes, and a stranded token is not a finished run.
func (s *Stepper) epilogue(working, loud bool, erred int) bool {
	f, st := s.f, s.st
	f.cycle++
	if erred >= 0 {
		return s.finish(Result{Cycles: f.cycle}, fmt.Errorf("cycle %d: element %s: %w", f.cycle, f.elems[erred].Name(), f.prep.run[erred].faulty.Err()))
	}
	if len(f.sinks) > 0 && st.sinksLeft == 0 {
		return s.finish(Result{Cycles: f.cycle, Completed: true}, nil)
	}
	if !working && (f.inj == nil || !f.inj.Active()) &&
		(st.busyCount == 0 || st.sinksLeft > 0 && !loud) {
		s.idleStreak++
	} else {
		s.idleStreak = 0
	}
	if f.ckptFn != nil && f.cycle%f.ckptEvery == 0 {
		f.checkpointSleepers(st)
		if err := f.ckptFn(f.cycle); err != nil {
			return s.finish(Result{Cycles: f.cycle}, fmt.Errorf("cycle %d: checkpoint: %w", f.cycle, err))
		}
	}
	if s.idleStreak >= f.cfg.QuiescenceWindow {
		res := Result{Cycles: f.cycle, Quiesced: true}
		if len(f.sinks) == 0 {
			res.Completed = true
			return s.finish(res, nil)
		}
		return s.finish(res, fmt.Errorf("cycle %d: %w: %s", f.cycle, ErrDeadlock, f.diagnoseDeadlock()))
	}
	return false
}

// Finish runs the remaining cycles to the run's end and returns its
// outcome. This is how RunContext runs a whole run.
func (s *Stepper) Finish() (Result, error) {
	for !s.Step() {
	}
	return s.res, s.err
}

// cancelCheck polls ctx every Fabric.cancelEvery calls. It returns a
// non-nil error exactly when the run should stop.
type cancelCheck struct {
	done     <-chan struct{}
	ctx      context.Context
	interval int
	left     int
}

func (f *Fabric) newCancelCheck(ctx context.Context) cancelCheck {
	return cancelCheck{
		done:     ctx.Done(),
		ctx:      ctx,
		interval: f.cancelEvery,
		left:     f.cancelEvery,
	}
}

func (c *cancelCheck) expired() error {
	if c.done == nil {
		return nil
	}
	c.left--
	if c.left > 0 {
		return nil
	}
	c.left = c.interval
	select {
	case <-c.done:
		return fmt.Errorf("%w: %w", ErrCancelled, c.ctx.Err())
	default:
		return nil
	}
}

// runState is the Stepper's per-run bookkeeping. It lives on the Fabric
// and is re-initialized (capacity reused) each run.
type runState struct {
	awake       []uint64 // bit i&63 of word i>>6: element i is awake
	asleepSince []int64
	ticks       channel.TickList
	isBusy      []bool // channel is not Idle (for quiescence detection)
	busyCount   int
	sinkDone    []bool
	sinksLeft   int
}

// boolScratch returns s resized to n with every entry false, reusing
// capacity when it suffices.
func boolScratch(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// int64Scratch is boolScratch for []int64.
func int64Scratch(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// initRunState readies the pooled scratch state for a fresh run: every
// element awake, every channel in the tick list, sink completion
// tallied. Reuses prior capacity so repeat runs allocate nothing.
func (f *Fabric) initRunState() *runState {
	st := &f.rs
	ne, nc := len(f.elems), len(f.chans)
	st.awake = st.awake[:0]
	for i := 0; i < ne; i += 64 {
		st.awake = append(st.awake, ^uint64(0)>>max(0, 64-(ne-i)))
	}
	st.asleepSince = int64Scratch(st.asleepSince, ne)
	st.ticks.Reset(nc)
	st.isBusy = boolScratch(st.isBusy, nc)
	st.busyCount = 0
	st.sinkDone = boolScratch(st.sinkDone, ne)
	st.sinksLeft = 0
	for ci, ch := range f.chans {
		ch.Attach(&st.ticks, ci)
		if !ch.Idle() {
			st.isBusy[ci] = true
			st.busyCount++
		}
	}
	for i := range f.prep.run {
		s := f.prep.run[i].sink
		if s == nil {
			continue
		}
		if s.Completed() {
			st.sinkDone[i] = true
		} else {
			st.sinksLeft++
		}
	}
	return st
}

// backfillSleepers accounts the skipped cycles of every still-sleeping
// element before the run returns, so statistics match dense stepping on
// every exit path.
func (f *Fabric) backfillSleepers(st *runState) {
	last := f.cycle - 1
	for i := range f.elems {
		if st.isAwake(i) {
			continue
		}
		if sk := f.prep.run[i].skip; sk != nil {
			sk.SkipCycles(last - st.asleepSince[i])
		}
	}
}

// checkpointSleepers brings every sleeping element's statistics up to
// date (the same accounting its wake-time backfill would do) before the
// checkpoint hook snapshots, then re-bases asleepSince so the cycles are
// not double-counted when the element eventually wakes. Dense and
// event-driven snapshots are bit-identical because of this rebase.
func (f *Fabric) checkpointSleepers(st *runState) {
	last := f.cycle - 1
	for i := range f.elems {
		if st.isAwake(i) {
			continue
		}
		if sk := f.prep.run[i].skip; sk != nil {
			sk.SkipCycles(last - st.asleepSince[i])
		}
		st.asleepSince[i] = last
	}
}

// commitChannels runs the tick phase over the tick list: commit every
// listed channel, wake the endpoints of channels that changed, maintain
// the busy census, and, under the event-driven policy, drop channels
// that went quiet (known endpoints only — unknown-endpoint channels are
// ticked forever, conservatively). Per-channel effects are independent,
// so the list's order (channels rejoin in staging order) never
// influences results. It reports whether any channel changed or still
// holds a staged or in-flight token; a channel outside the tick list is
// quiet by the invariant.
func (s *Stepper) commitChannels(cur int64) (loud bool) {
	f, st := s.f, s.st
	chans, prep := f.chans, &f.prep
	next := st.ticks.Next()
	for _, ci := range st.ticks.Current() {
		ch := chans[ci]
		ends := prep.ends[ci]
		changed, busy, quiet := ch.Commit()
		loud = loud || changed || !quiet
		if changed {
			if ends[0] < 0 || ends[1] < 0 {
				// Unknown endpoint: wake everything attached anywhere.
				for ei := range f.elems {
					f.wake(st, ei, cur)
				}
			} else {
				f.wake(st, ends[0], cur)
				f.wake(st, ends[1], cur)
			}
		}
		if busy != st.isBusy[ci] {
			st.isBusy[ci] = busy
			if busy {
				st.busyCount++
			} else {
				st.busyCount--
			}
		}
		if quiet && !s.dense && ends[0] >= 0 && ends[1] >= 0 {
			ch.Unlist()
		} else {
			next = append(next, ci)
		}
	}
	st.ticks.Flip(len(next))
	return loud
}

// wake marks an element runnable again, backfilling the cycles it slept
// through.
func (f *Fabric) wake(st *runState, ei int, cur int64) {
	if st.isAwake(ei) {
		return
	}
	st.awake[ei>>6] |= 1 << (ei & 63)
	if sk := f.prep.run[ei].skip; sk != nil {
		sk.SkipCycles(cur - st.asleepSince[ei])
	}
}

func (st *runState) isAwake(i int) bool { return st.awake[i>>6]&(1<<(i&63)) != 0 }
