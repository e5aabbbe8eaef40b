// Package fabric assembles processing elements, memories, sources and
// sinks into a spatial array connected by latency-insensitive channels,
// and drives the whole graph with a deterministic cycle-stepped simulator.
//
// Within a cycle every element observes only channel state committed at
// the end of the previous cycle and stages its effects; the fabric then
// commits all channels. Element step order therefore cannot affect
// results, and simulations are bit-reproducible.
//
// One cycle loop, Stepper.Step, drives every run. By default it is
// event-driven: an element that did no work goes to sleep and is only
// stepped again when one of its attached channels commits a change
// (spatial fabrics are mostly idle, so most elements sleep most cycles),
// and only channels with staged or in-flight tokens are ticked. The
// two-phase channel protocol is what makes the skip sound — see
// DESIGN.md's "Simulator fast path" section. SetDenseStepping switches
// the same loop to a dense wake policy that steps every element and
// ticks every channel each cycle; it is the reference the differential
// tests hold the event-driven policy to, bit for bit.
//
// Elements are stepped through a per-run dispatch table. Triggered PEs
// contribute a step closure specialized to their static program (see
// internal/pe and internal/compile); every other element contributes
// its bound Step method. SetInterpreted puts the generic Step of every
// element in the table instead: the interpreter is the oracle the
// differential tests hold compiled dispatch to.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"tia/internal/channel"
	"tia/internal/snapshot"
)

// Element is anything the fabric steps once per cycle: triggered PEs,
// PC-style PEs, scratchpads, sources and sinks.
type Element interface {
	// Name identifies the element in errors and statistics.
	Name() string
	// Step runs one cycle against committed channel state, staging any
	// channel effects. It returns true if the element did work (fired an
	// instruction, moved a token, serviced a request).
	//
	// The event-driven stepper relies on two properties of Step: a call
	// that returns false must stage no channel effects, and it must be a
	// pure function of the element's state and the committed channel
	// state (so re-running it with neither changed returns false again).
	// An element whose state advances even when it reports no work (e.g.
	// a draining branch-penalty counter) must implement NeedsStep.
	Step(cycle int64) bool
	// Done reports that the element will never do work again.
	Done() bool
}

// InPort is implemented by elements with indexed input channels.
// ConnectIn attaches ch as input idx; it returns an error, and attaches
// nothing, when idx is out of range or the input is already connected.
type InPort interface {
	ConnectIn(idx int, ch *channel.Channel) error
}

// OutPort is implemented by elements with indexed output channels.
// ConnectOut is ConnectIn's output-side counterpart, with the same
// errors.
type OutPort interface {
	ConnectOut(idx int, ch *channel.Channel) error
}

// connectionChecker lets elements veto simulation when their program
// references unconnected channels.
type connectionChecker interface {
	CheckConnections() error
}

// faulty lets elements surface program errors (e.g. out-of-range
// scratchpad addresses) that should abort the run. The cycle loop reads
// Err right after the element's own step, so Err may turn non-nil only
// in a Step call.
type faulty interface {
	Err() error
}

// skipAware elements are told how many cycles the event-driven stepper
// skipped them for, so per-cycle statistics stay bit-identical with
// dense stepping.
type skipAware interface {
	SkipCycles(n int64)
}

// wakeHinter elements can demand to be stepped even after a no-work
// cycle with no channel changes (e.g. a PC-style PE draining a
// taken-branch penalty, or a mesh with buffered flits).
type wakeHinter interface {
	NeedsStep() bool
}

// stateDumper lets elements contribute a one-line state summary to
// deadlock reports.
type stateDumper interface {
	DumpState() string
}

// FaultInjector is the fabric-side interface of a fault-injection layer
// (see internal/faults). The fabric drives it once per cycle, before
// elements step, and consults it per element; a nil injector adds no
// per-cycle work beyond one comparison.
//
// Injector decisions must be pure functions of the cycle number and
// per-site event sequences — never of element or channel iteration order
// — so that dense and event-driven stepping stay bit-identical under the
// same fault plan.
type FaultInjector interface {
	// BeginCycle announces the cycle about to be simulated.
	BeginCycle(cycle int64)
	// Frozen reports that the element must not be stepped this cycle.
	// Frozen elements accrue SkipCycles so statistics stay comparable.
	// Frozen may return true only in cycles where Active reports true —
	// the cycle loop hoists that check per cycle and skips the per-element
	// calls entirely outside freeze windows.
	Frozen(e Element) bool
	// Active reports that some freeze window covers this cycle. While
	// true, quiescence detection is suppressed: a fully-frozen fabric is
	// waiting, not deadlocked.
	Active() bool
}

// Config holds fabric-wide defaults.
type Config struct {
	// ChannelCapacity is the default receiver-FIFO depth for Wire.
	ChannelCapacity int
	// ChannelLatency is the default extra wire latency for Wire.
	ChannelLatency int
	// QuiescenceWindow is how many consecutive cycles of no work and no
	// in-flight tokens the simulator requires before declaring the
	// fabric quiescent.
	QuiescenceWindow int
}

// DefaultConfig returns the defaults used throughout the workload suite:
// depth-4 channels with no extra wire latency.
func DefaultConfig() Config {
	return Config{ChannelCapacity: 4, ChannelLatency: 0, QuiescenceWindow: 4}
}

// Fabric is a spatial array under construction or simulation.
type Fabric struct {
	cfg   Config
	elems []Element
	chans []*channel.Channel
	sinks []*Sink
	names map[string]bool
	place map[Element]point
	binds []bind
	cycle int64
	dense bool
	// cancelEvery is how many cycles a run simulates between
	// context-cancellation checks (1024; tests lower it).
	cancelEvery int
	// interpreted dispatches every element through its generic Step
	// (SetInterpreted); the zero value dispatches compiled.
	interpreted bool
	inj         FaultInjector

	ckptEvery int64
	ckptFn    func(cycle int64) error

	prep prepared
	// built is every element's and channel's SnapshotState, which Reset
	// restores; builtEnds holds each one's end offset, and builtErr why
	// there is nothing to restore. prepare captures them until the first
	// BeginRun or Restore sets touched.
	built     []byte
	builtEnds []int
	builtErr  error
	touched   bool
	dec       snapshot.Decoder
	// rs is the stepper's per-run scratch state, reused across Runs so a
	// reset-and-rerun loop (core's verification reuse, campaign sweeps,
	// the service) allocates nothing per run after the first.
	rs runState
	// stepper is the pooled cycle loop handed out by BeginRun and used by
	// RunContext; like rs, one per fabric because a fabric has at most
	// one run in flight.
	stepper Stepper
}

// bind records a channel's endpoint elements, declared by Wire or
// BindChannel; nil endpoints mean "unknown" and are handled
// conservatively by the event-driven stepper.
type bind struct {
	ch               *channel.Channel
	sender, receiver Element
}

// prepared caches everything the run loop would otherwise re-derive per
// cycle: interface assertions and channel endpoints. Built once per Run
// by prepare().
type prepared struct {
	valid bool

	dumpers []dumperElem
	ends    [][2]int // per channel: sender/receiver element index, -1 unknown

	// run is the dispatch table, indexed by element; refreshSteps sets
	// each step per run. compilers and bound cache the interface
	// assertions and bound Step methods it draws from.
	run       []elemRun
	compilers []stepCompiler
	bound     []func(cycle int64) bool
}

// elemRun is one element's row of the dispatch table, everything the
// cycle loop reads of it in one cache line. step is the element's
// compiled step closure, or its bound Step method for elements that do
// not compile and under SetInterpreted; an interface field is nil when
// the element does not implement it, and sink is nil for non-sinks.
type elemRun struct {
	step   func(cycle int64) bool
	skip   skipAware
	hint   wakeHinter
	faulty faulty
	sink   *Sink
}

type dumperElem struct {
	d    stateDumper
	name string
}

type point struct{ x, y int }

// New returns an empty fabric with the given defaults.
func New(cfg Config) *Fabric {
	if cfg.ChannelCapacity < 1 {
		cfg.ChannelCapacity = 4
	}
	if cfg.QuiescenceWindow < 1 {
		cfg.QuiescenceWindow = 4
	}
	return &Fabric{cfg: cfg, cancelEvery: 1024, names: map[string]bool{}, place: map[Element]point{}}
}

// Config returns the fabric's defaults.
func (f *Fabric) Config() Config { return f.cfg }

// stepCompiler is the optional element interface behind compiled
// dispatch: CompileStep returns a step function with Step's exact
// observable semantics, specialized to the element's current program
// and state. Implementations cache internally and must return a fresh
// closure only when something invalidated the old one; the fabric
// re-queries once per run, never mid-run.
type stepCompiler interface {
	CompileStep() func(cycle int64) bool
}

// SetFaultInjector attaches (or, with nil, detaches) a fault-injection
// layer. See FaultInjector; internal/faults provides the implementation.
func (f *Fabric) SetFaultInjector(inj FaultInjector) { f.inj = inj }

// SetDenseStepping switches the cycle loop to the dense wake policy: no
// element sleeps and no channel leaves the tick list, so every element
// is stepped and every channel ticked each cycle. Results are
// bit-identical with the default event-driven policy (the differential
// tests in package workloads assert it); dense stepping exists as that
// test's baseline and as a debugging aid. It applies from the next
// BeginRun or RunContext.
func (f *Fabric) SetDenseStepping(on bool) { f.dense = on }

// SetInterpreted switches element dispatch from compiled step closures
// to every element's generic Step. Results are bit-identical (the
// differential tests in packages fabric, workloads and gen assert it);
// the interpreter exists as those tests' oracle. It applies from the
// next BeginRun or RunContext.
func (f *Fabric) SetInterpreted(on bool) { f.interpreted = on }

// Add registers an element. Names must be unique; Add panics on a
// duplicate (use TryAdd on untrusted construction paths).
func (f *Fabric) Add(e Element) {
	if err := f.TryAdd(e); err != nil {
		panic(err.Error())
	}
}

// TryAdd is Add with the duplicate-name case reported as an error
// instead of a panic.
func (f *Fabric) TryAdd(e Element) error {
	if f.names[e.Name()] {
		return fmt.Errorf("fabric: duplicate element name %q", e.Name())
	}
	f.names[e.Name()] = true
	f.elems = append(f.elems, e)
	if s, ok := e.(*Sink); ok {
		f.sinks = append(f.sinks, s)
	}
	f.prep.valid = false
	return nil
}

// Elements returns the registered elements in registration order.
func (f *Fabric) Elements() []Element { return f.elems }

// Channels returns all registered channels.
func (f *Fabric) Channels() []*channel.Channel { return f.chans }

// Place assigns the element a grid coordinate. When both endpoints of a
// Wire call are placed, the wire's latency defaults to the Manhattan
// distance minus one (the first hop is the mandatory registered hop).
func (f *Fabric) Place(e Element, x, y int) {
	f.place[e] = point{x, y}
}

// NewChannel creates a channel registered for fabric ticking but not
// attached to anything; callers wire it manually (e.g. to drive a PE from
// a test). Its endpoints are unknown to the event-driven stepper, which
// therefore ticks it every cycle and wakes every element when it changes;
// use BindChannel to declare endpoints when they exist.
func (f *Fabric) NewChannel(name string, capacity, latency int) *channel.Channel {
	ch := channel.New(name, capacity, latency)
	f.chans = append(f.chans, ch)
	f.prep.valid = false
	return ch
}

// AdoptChannel registers an externally created channel (e.g. the endpoint
// of a NoC flow) for fabric ticking. See NewChannel about endpoints.
func (f *Fabric) AdoptChannel(ch *channel.Channel) {
	f.chans = append(f.chans, ch)
	f.prep.valid = false
}

// BindChannel declares a registered channel's endpoint elements for the
// event-driven stepper: when the channel commits a change, exactly these
// elements are woken. Pass nil for an endpoint that is not a fabric
// element; the stepper then falls back to waking everything for that
// channel.
func (f *Fabric) BindChannel(ch *channel.Channel, sender, receiver Element) {
	f.binds = append(f.binds, bind{ch: ch, sender: sender, receiver: receiver})
	f.prep.valid = false
}

// Wire connects src's output port outIdx to dst's input port inIdx with a
// channel using fabric defaults (and placement-derived latency if both
// elements are placed). It returns the channel and panics where TryWire
// would return an error: it is for trusted kernel construction code.
func (f *Fabric) Wire(src OutPort, outIdx int, dst InPort, inIdx int) *channel.Channel {
	return mustWire(f.TryWire(src, outIdx, dst, inIdx))
}

// WireOpt is Wire with explicit channel capacity and latency.
func (f *Fabric) WireOpt(src OutPort, outIdx int, dst InPort, inIdx int, capacity, latency int) *channel.Channel {
	return mustWire(f.TryWireOpt(src, outIdx, dst, inIdx, capacity, latency))
}

func mustWire(ch *channel.Channel, err error) *channel.Channel {
	if err != nil {
		panic(err.Error())
	}
	return ch
}

// TryWire is Wire with connection failures reported as errors instead of
// panics. See TryWireOpt.
func (f *Fabric) TryWire(src OutPort, outIdx int, dst InPort, inIdx int) (*channel.Channel, error) {
	lat := f.cfg.ChannelLatency
	se, seOK := src.(Element)
	de, deOK := dst.(Element)
	if seOK && deOK {
		if sp, ok1 := f.place[se]; ok1 {
			if dp, ok2 := f.place[de]; ok2 {
				d := abs(sp.x-dp.x) + abs(sp.y-dp.y)
				if d > 0 {
					lat = f.cfg.ChannelLatency + d - 1
				}
			}
		}
	}
	return f.TryWireOpt(src, outIdx, dst, inIdx, f.cfg.ChannelCapacity, lat)
}

// TryWireOpt is WireOpt with invalid channel parameters, bad port
// indices, and double-connections reported as errors instead of panics.
// This is the wiring entry point for untrusted construction paths (the
// netlist builder); on error the fabric may hold a half-connected
// channel and must be discarded.
func (f *Fabric) TryWireOpt(src OutPort, outIdx int, dst InPort, inIdx int, capacity, latency int) (*channel.Channel, error) {
	name := fmt.Sprintf("%s.out%d->%s.in%d", elemName(src), outIdx, elemName(dst), inIdx)
	ch, err := channel.NewChecked(name, capacity, latency)
	if err != nil {
		return nil, err
	}
	if err := src.ConnectOut(outIdx, ch); err != nil {
		return nil, err
	}
	if err := dst.ConnectIn(inIdx, ch); err != nil {
		return nil, err
	}
	f.chans = append(f.chans, ch)
	se, _ := src.(Element)
	de, _ := dst.(Element)
	f.binds = append(f.binds, bind{ch: ch, sender: se, receiver: de})
	f.prep.valid = false
	return ch, nil
}

func elemName(v any) string {
	if e, ok := v.(Element); ok {
		return e.Name()
	}
	return "?"
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Validate checks that every element's program references only connected
// channels.
func (f *Fabric) Validate() error {
	for _, e := range f.elems {
		if c, ok := e.(connectionChecker); ok {
			if err := c.CheckConnections(); err != nil {
				return err
			}
		}
	}
	return nil
}

// prepare builds the run caches: hoisted interface assertions and
// channel endpoint tables. Idempotent until the fabric's structure
// changes.
func (f *Fabric) prepare() {
	if f.prep.valid {
		return
	}
	p := &f.prep
	n := len(f.elems)
	elemIdx := make(map[Element]int, n)
	for i, e := range f.elems {
		elemIdx[e] = i
	}
	chanIdx := make(map[*channel.Channel]int, len(f.chans))
	for i, ch := range f.chans {
		chanIdx[ch] = i
	}

	p.dumpers = p.dumpers[:0]
	p.run = make([]elemRun, n)
	p.compilers = make([]stepCompiler, n)
	p.bound = make([]func(cycle int64) bool, n)
	for i, e := range f.elems {
		r := &p.run[i]
		p.bound[i] = e.Step
		if sc, ok := e.(stepCompiler); ok {
			p.compilers[i] = sc
		}
		r.faulty, _ = e.(faulty)
		r.skip, _ = e.(skipAware)
		r.hint, _ = e.(wakeHinter)
		r.sink, _ = e.(*Sink)
		if d, ok := e.(stateDumper); ok {
			p.dumpers = append(p.dumpers, dumperElem{d: d, name: e.Name()})
		}
	}

	p.ends = make([][2]int, len(f.chans))
	for i := range p.ends {
		p.ends[i] = [2]int{-1, -1}
	}
	for _, b := range f.binds {
		ci, ok := chanIdx[b.ch]
		if !ok {
			continue // bound but not fabric-ticked; nothing to wake
		}
		if b.sender != nil {
			if si, ok := elemIdx[b.sender]; ok {
				p.ends[ci][0] = si
			}
		}
		if b.receiver != nil {
			if ri, ok := elemIdx[b.receiver]; ok {
				p.ends[ci][1] = ri
			}
		}
	}
	p.valid = true
	f.captureBuildState()
}

// captureBuildState encodes the state Reset restores. prepare calls it
// until the fabric first runs or restores, so the capture matches the
// structure and precedes any change to the state.
func (f *Fabric) captureBuildState() {
	f.built, f.builtEnds, f.builtErr = nil, f.builtEnds[:0], nil
	if f.touched {
		f.builtErr = errors.New("fabric reset: the structure changed after the fabric ran, so its build-time state is gone")
		return
	}
	var enc snapshot.Encoder
	for _, e := range f.elems {
		sn, ok := e.(Snapshotter)
		if !ok {
			f.builtErr = fmt.Errorf("fabric reset: element %s (%T) does not support checkpointing", e.Name(), e)
			return
		}
		sn.SnapshotState(&enc)
		f.builtEnds = append(f.builtEnds, enc.Len())
	}
	for _, ch := range f.chans {
		ch.SnapshotState(&enc)
		f.builtEnds = append(f.builtEnds, enc.Len())
	}
	f.built = enc.Data()
}

// Result summarizes a simulation run.
type Result struct {
	// Cycles is the number of cycles simulated.
	Cycles int64
	// Completed reports that every sink finished.
	Completed bool
	// Quiesced reports that the fabric went idle (with or without the
	// sinks finishing; Completed distinguishes success from deadlock).
	Quiesced bool
}

// ErrDeadlock is returned (wrapped) when the fabric goes idle before all
// sinks complete.
var ErrDeadlock = errors.New("fabric deadlocked")

// ErrTimeout is returned (wrapped) when maxCycles elapse first.
var ErrTimeout = errors.New("cycle limit exceeded")

// ErrCancelled is returned (wrapped) when RunContext's context is
// cancelled or its deadline expires mid-simulation.
var ErrCancelled = errors.New("run cancelled")

// Run simulates until every sink completes, the fabric quiesces, or
// maxCycles elapse. Deadlock (quiescence with unfinished sinks) and
// timeout are errors; so is any element fault.
func (f *Fabric) Run(maxCycles int64) (Result, error) {
	return f.RunContext(context.Background(), maxCycles)
}

// RunContext is Run under a context: every 1024 cycles the simulator
// polls ctx and, if it is done, stops and returns the cycles simulated
// so far with an error wrapping ErrCancelled (and the context's own
// cause, so errors.Is distinguishes cancellation from deadline expiry). A context that is never cancelled adds no per-cycle
// work beyond one nil comparison.
func (f *Fabric) RunContext(ctx context.Context, maxCycles int64) (Result, error) {
	s, err := f.BeginRun(ctx, maxCycles)
	if err != nil {
		return Result{}, err
	}
	return s.Finish()
}

// refreshSteps fills the dispatch table. Called once per run, after
// prepare: compiling elements are re-queried every time (their
// CompileStep caches internally and hands back a new closure only when
// program or folded-against state changed), so a stale closure is never
// entered.
func (f *Fabric) refreshSteps() {
	p := &f.prep
	for i, sc := range p.compilers {
		if sc != nil && !f.interpreted {
			p.run[i].step = sc.CompileStep()
		} else {
			p.run[i].step = p.bound[i]
		}
	}
}

// describeStall summarizes which sinks are unfinished, which channels
// still hold tokens, and what each dumpable element is waiting on, to
// make deadlock reports actionable. Sinks, channels and element dumps
// are each sorted by name, so the report is deterministic and diffable;
// the channel dump is capped so reports on large fabrics stay readable.
func (f *Fabric) describeStall() string {
	const maxChans = 32
	var b strings.Builder
	var stalled []*Sink
	for _, s := range f.sinks {
		if !s.Completed() {
			stalled = append(stalled, s)
		}
	}
	sort.Slice(stalled, func(i, j int) bool { return stalled[i].Name() < stalled[j].Name() })
	for _, s := range stalled {
		fmt.Fprintf(&b, " sink %s received %d tokens;", s.Name(), len(s.Tokens()))
	}
	var busy []*channel.Channel
	for _, ch := range f.chans {
		if ch.Len() > 0 {
			busy = append(busy, ch)
		}
	}
	sort.Slice(busy, func(i, j int) bool { return busy[i].Name() < busy[j].Name() })
	for i, ch := range busy {
		if i == maxChans {
			fmt.Fprintf(&b, " (+%d more channels with tokens)", len(busy)-maxChans)
			break
		}
		fmt.Fprintf(&b, " channel %s holds %d tokens;", ch.Name(), ch.Len())
	}
	f.prepare()
	dumpers := append([]dumperElem(nil), f.prep.dumpers...)
	sort.Slice(dumpers, func(i, j int) bool { return dumpers[i].name < dumpers[j].name })
	for _, d := range dumpers {
		b.WriteString(" [")
		b.WriteString(d.d.DumpState())
		b.WriteString("]")
	}
	if b.Len() == 0 {
		return "no tokens anywhere (starvation)"
	}
	return b.String()
}

// Cycle returns the current simulation time.
func (f *Fabric) Cycle() int64 { return f.cycle }

// Reset restores the state every element and channel had when the
// fabric was first prepared (by its first run, Snapshot, Restore or
// Reset), so the fabric runs again from cycle zero with no idle
// history. Each decodes its own section through RestoreState: Reset
// puts back exactly what a snapshot encodes. The fault injector is not part of that state;
// Rearm re-arms it. Reset panics if an element cannot be checkpointed
// or the structure changed after the fabric ran.
func (f *Fabric) Reset() {
	f.prepare()
	if f.builtErr != nil {
		panic(f.builtErr.Error())
	}
	k, start := 0, 0
	restore := func(name string, sn Snapshotter) {
		end := f.builtEnds[k]
		if err := f.restoreSection(name, sn, f.built[start:end]); err != nil {
			panic("fabric reset: " + err.Error())
		}
		k, start = k+1, end
	}
	for _, e := range f.elems {
		restore(e.Name(), e.(Snapshotter))
	}
	for _, ch := range f.chans {
		restore(ch.Name(), ch)
	}
	f.cycle = 0
	f.stepper.idleStreak = 0
}
