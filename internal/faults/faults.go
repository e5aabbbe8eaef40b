// Package faults is a deterministic, seeded fault-injection layer for
// the spatial-fabric simulator. It perturbs a fully-built fabric through
// two narrow seams — channel fault hooks (channel.FaultHook) and the
// fabric's per-cycle injector (fabric.FaultInjector) — and can inject:
//
//   - timing faults: extra per-token wire latency jitter, transient
//     channel stalls (the wire freezes for a window of cycles), and
//     element freezes (an element is not stepped for a window of cycles);
//   - data faults: single-bit flips, dropped tokens and duplicated
//     tokens, applied as tokens leave the wire for the receiver FIFO.
//
// Every campaign is exactly reproducible: all randomness derives from the
// plan seed mixed with the site name, each site owns its generator, and
// draws are consumed only at per-site events (a token entering or leaving
// the wire) or precomputed at attach time (stall and freeze windows).
// Decisions therefore never depend on element or channel iteration
// order, which is what keeps dense and event-driven stepping bit-
// identical under the same plan — the differential tests assert it.
//
// The paper's latency-insensitivity claim becomes testable here: timing
// faults may change cycle counts but must never change results, while
// data faults feed the masked / detected / SDC / hang taxonomy (see
// internal/core's resilience campaigns).
package faults

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"

	"tia/internal/channel"
	"tia/internal/fabric"
)

// DefaultHorizon bounds stall/freeze window starts when Plan.To is
// unset. Campaign drivers normally set To to the fault-free cycle count
// so windows land inside the run.
const DefaultHorizon = 1 << 16

// Plan describes one reproducible fault campaign configuration. The zero
// value (plus a seed) injects nothing; such a plan wraps every site with
// hooks that provably do not perturb the simulation.
type Plan struct {
	// Seed drives every random draw. Campaigns vary it per run.
	Seed int64
	// Sites is a substring filter on channel and element names; ""
	// matches every site.
	Sites string
	// From and To bound the active cycle window [From, To). To <= 0
	// means unbounded for per-token faults and From+DefaultHorizon for
	// window draws.
	From, To int64

	// JitterRate is the per-token probability of extra wire latency,
	// uniform in [1, JitterMax].
	JitterRate float64
	JitterMax  int
	// Stalls is the number of wire-freeze windows drawn per matched
	// channel, each lasting [1, StallMax] cycles.
	Stalls   int
	StallMax int
	// Freezes is the number of no-step windows drawn per matched
	// element, each lasting [1, FreezeMax] cycles.
	Freezes   int
	FreezeMax int

	// FlipRate is the per-delivered-token probability of a single-bit
	// flip in the data word (tags are never corrupted, so EOD framing
	// survives; drop an EOD to attack framing instead).
	FlipRate float64
	// DropRate is the per-delivered-token probability the token vanishes.
	DropRate float64
	// DupRate is the per-delivered-token probability the token is
	// enqueued twice (when a credit is spare; see channel.Dup).
	DupRate float64
}

// Timing reports whether the plan injects only timing faults (the class
// under which results must be byte-identical to a fault-free run).
func (p Plan) Timing() bool {
	return p.FlipRate == 0 && p.DropRate == 0 && p.DupRate == 0
}

// Validate rejects malformed plans.
func (p Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"JitterRate", p.JitterRate}, {"FlipRate", p.FlipRate},
		{"DropRate", p.DropRate}, {"DupRate", p.DupRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faults: %s %g outside [0,1]", r.name, r.v)
		}
	}
	if p.JitterRate > 0 && p.JitterMax < 1 {
		return fmt.Errorf("faults: JitterRate %g needs JitterMax >= 1", p.JitterRate)
	}
	if p.Stalls < 0 || p.Freezes < 0 {
		return fmt.Errorf("faults: negative window counts")
	}
	if p.Stalls > 0 && p.StallMax < 1 {
		return fmt.Errorf("faults: Stalls %d needs StallMax >= 1", p.Stalls)
	}
	if p.Freezes > 0 && p.FreezeMax < 1 {
		return fmt.Errorf("faults: Freezes %d needs FreezeMax >= 1", p.Freezes)
	}
	if p.To > 0 && p.To <= p.From {
		return fmt.Errorf("faults: empty cycle window [%d,%d)", p.From, p.To)
	}
	return nil
}

// Counts are the aggregate injection statistics of one attached run.
type Counts struct {
	Jittered     int64 // tokens given extra wire latency
	StallCycles  int64 // channel-cycles spent stalled with the wire non-empty
	FreezeCycles int64 // element-cycles spent frozen
	Flips        int64 // tokens with a data bit flipped
	Drops        int64 // tokens dropped
	Dups         int64 // tokens duplicated (the extra copy enqueued)
	DupsElided   int64 // duplications suppressed for lack of a credit
}

// Total is the number of discrete fault events injected.
func (c Counts) Total() int64 {
	return c.Jittered + c.StallCycles + c.FreezeCycles + c.Flips + c.Drops + c.Dups
}

// window is one [start, start+dur) perturbation interval.
type window struct {
	start, end int64
}

// drawWindows samples n windows with the given maximum duration inside
// [from, to), sorted by start.
func drawWindows(r *rand.Rand, n int, maxDur int, from, to int64) []window {
	return drawWindowsInto(nil, r, n, maxDur, from, to)
}

// drawWindowsInto is drawWindows appending into ws (rewound to empty), so
// a Rearm can redraw a site's schedule without allocating once the slice
// has grown to the plan's window count. The draw sequence is identical to
// drawWindows.
func drawWindowsInto(ws []window, r *rand.Rand, n int, maxDur int, from, to int64) []window {
	ws = ws[:0]
	span := to - from
	if n <= 0 || span <= 0 {
		return ws
	}
	for i := 0; i < n; i++ {
		start := from + r.Int63n(span)
		dur := int64(1 + r.Intn(maxDur))
		ws = append(ws, window{start: start, end: start + dur})
	}
	// slices.SortFunc, unlike sort.Slice, sorts without allocating.
	// Windows that compare equal are equal, so the order is the same.
	slices.SortFunc(ws, func(a, b window) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return cmp.Compare(a.end, b.end)
	})
	return ws
}

// covers reports whether any window contains cycle; idx advances
// monotonically with the cycle, so the amortized cost is O(1).
func covers(ws []window, idx *int, cycle int64) bool {
	for *idx < len(ws) && ws[*idx].end <= cycle {
		*idx++
	}
	for i := *idx; i < len(ws) && ws[i].start <= cycle; i++ {
		if cycle < ws[i].end {
			return true
		}
	}
	return false
}

// nextEdge lowers next to the first cycle after cycle at which covers'
// answer for ws can change: the end of a window that covers cycle, or
// the start of the first window that begins later. idx must be the
// cursor covers left at cycle; every window before it has ended.
func nextEdge(ws []window, idx int, cycle, next int64) int64 {
	for _, w := range ws[idx:] {
		if w.start > cycle {
			return min(next, w.start)
		}
		if w.end > cycle {
			next = min(next, w.end)
		}
	}
	return next
}

// chanSite is one channel's fault state; it implements channel.FaultHook.
type chanSite struct {
	inj    *Injector
	ch     *channel.Channel
	rng    *rand.Rand
	src    *countedSource // rng's underlying source, for checkpointing
	hash   int64          // fnv of the site string, cached for Rearm reseeding
	stalls []window
	widx   int
	// stalledNow caches the per-cycle stall decision (set by BeginCycle).
	stalledNow bool
}

// SendDelay implements channel.FaultHook.
func (s *chanSite) SendDelay(channel.Token) int {
	p := &s.inj.plan
	if p.JitterRate == 0 || !s.inj.inWindow() {
		return 0
	}
	if s.rng.Float64() >= p.JitterRate {
		return 0
	}
	s.inj.counts.Jittered++
	return 1 + s.rng.Intn(p.JitterMax)
}

// Stalled implements channel.FaultHook.
func (s *chanSite) Stalled() bool {
	if s.stalledNow && !s.ch.Quiet() {
		s.inj.counts.StallCycles++
	}
	return s.stalledNow
}

// Deliver implements channel.FaultHook.
func (s *chanSite) Deliver(tok channel.Token) (channel.Token, channel.DeliverAction) {
	p := &s.inj.plan
	if !s.inj.inWindow() {
		return tok, channel.Deliver
	}
	if p.DropRate > 0 && s.rng.Float64() < p.DropRate {
		s.inj.counts.Drops++
		return tok, channel.Drop
	}
	if p.DupRate > 0 && s.rng.Float64() < p.DupRate {
		if s.ch.Len()+s.ch.InFlight() < s.ch.Cap() {
			s.inj.counts.Dups++
		} else {
			s.inj.counts.DupsElided++
		}
		return tok, channel.Dup
	}
	if p.FlipRate > 0 && s.rng.Float64() < p.FlipRate {
		s.inj.counts.Flips++
		tok.Data ^= 1 << uint(s.rng.Intn(32))
	}
	return tok, channel.Deliver
}

// elemSite is one element's freeze schedule.
type elemSite struct {
	rng       *rand.Rand
	src       *countedSource
	hash      int64
	freezes   []window
	widx      int
	frozenNow bool
}

// Injector is a compiled, attached fault plan. It implements
// fabric.FaultInjector; channel hooks are installed by Attach. An
// Injector is single-run state: build a fresh fabric and a fresh
// Injector per campaign run — or, on a batch lane that reuses the
// instance, Reset the fabric and Rearm the same injector for the next
// seed; Fabric.Reset leaves the injector alone.
type Injector struct {
	plan   Plan
	cycle  int64
	counts Counts
	chans  []*chanSite
	elems  map[fabric.Element]*elemSite
	// elemList mirrors elems for the per-cycle walk: slice iteration is
	// both cheaper and deterministic (per-site decisions are order-free,
	// but the cache-friendly walk is what BeginCycle's cost budget wants).
	elemList []*elemSite
	// [edgeLo, edgeHi) is the span of cycles over which no site's stall
	// or freeze decision changes, and frozen is the number of elements
	// frozen throughout it (nonzero exactly when the injector is
	// Active). edgeLo is the cycle of the last site walk, whose window
	// cursors are valid from there on. An empty span (edgeHi <= edgeLo)
	// forces a walk on the next BeginCycle.
	edgeLo, edgeHi int64
	frozen         int64
}

// New validates and compiles a plan.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan, elems: map[fabric.Element]*elemSite{}}, nil
}

// Attach wraps every matching channel and element of the fabric and
// registers the injector for per-cycle callbacks. Call after the fabric
// is fully wired; channels created later are not covered.
func Attach(f *fabric.Fabric, plan Plan) (*Injector, error) {
	inj, err := New(plan)
	if err != nil {
		return nil, err
	}
	from, to := plan.From, plan.To
	if to <= 0 {
		to = from + DefaultHorizon
	}
	for _, ch := range f.Channels() {
		if !inj.matches(ch.Name()) {
			continue
		}
		site := &chanSite{inj: inj, ch: ch}
		site.rng, site.src, site.hash = siteRand(plan.Seed, "ch:"+ch.Name())
		site.stalls = drawWindows(site.rng, plan.Stalls, plan.StallMax, from, to)
		// Attach-time window draws are replayed by re-attaching the same
		// plan, so checkpoints count only the run-time draws after them.
		site.src.draws = 0
		ch.SetFaultHook(site)
		inj.chans = append(inj.chans, site)
	}
	for _, e := range f.Elements() {
		if !inj.matches(e.Name()) {
			continue
		}
		r, src, hash := siteRand(plan.Seed, "elem:"+e.Name())
		ws := drawWindows(r, plan.Freezes, plan.FreezeMax, from, to)
		if len(ws) == 0 && plan.Freezes == 0 {
			continue // no element-level faults planned; skip the map entry
		}
		es := &elemSite{rng: r, src: src, hash: hash, freezes: ws}
		inj.elems[e] = es
		inj.elemList = append(inj.elemList, es)
	}
	f.SetFaultInjector(inj)
	return inj, nil
}

// Rearm re-seeds an attached injector in place for the next run of a
// campaign: every site's generator is re-seeded and its window schedule
// redrawn exactly as a fresh Attach of the new plan would, but the site
// wiring, name hashes and window storage are reused, so a batch lane
// arms the next seed without allocating or re-scanning the fabric. The
// caller must Reset the fabric (its elements and channels) between runs;
// outcomes are then bit-identical to a fresh Attach on a freshly built
// fabric (the differential test in this package asserts it).
//
// The new plan must keep the site population of the attached one: the
// same Sites filter, and element freezes planned (Freezes > 0) in both
// or neither — those decided which sites exist at Attach time. Anything
// else (seed, window bounds, rates, counts) may change per run.
func (inj *Injector) Rearm(plan Plan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	if plan.Sites != inj.plan.Sites {
		return fmt.Errorf("faults: Rearm changes Sites filter %q -> %q; re-Attach instead", inj.plan.Sites, plan.Sites)
	}
	if (plan.Freezes > 0) != (inj.plan.Freezes > 0) {
		return fmt.Errorf("faults: Rearm toggles element freezes (%d -> %d); re-Attach instead", inj.plan.Freezes, plan.Freezes)
	}
	inj.plan = plan
	inj.cycle = 0
	inj.counts = Counts{}
	inj.frozen = 0
	from, to := plan.From, plan.To
	if to <= 0 {
		to = from + DefaultHorizon
	}
	for _, s := range inj.chans {
		s.src.Seed(plan.Seed ^ s.hash)
		s.stalls = drawWindowsInto(s.stalls, s.rng, plan.Stalls, plan.StallMax, from, to)
		s.src.draws = 0
		s.stalledNow = false
	}
	for _, es := range inj.elemList {
		es.src.Seed(plan.Seed ^ es.hash)
		es.freezes = drawWindowsInto(es.freezes, es.rng, plan.Freezes, plan.FreezeMax, from, to)
		es.frozenNow = false
	}
	inj.rewind()
	return nil
}

func (inj *Injector) matches(name string) bool {
	return inj.plan.Sites == "" || strings.Contains(name, inj.plan.Sites)
}

// inWindow reports whether the current cycle is inside the plan's active
// window.
func (inj *Injector) inWindow() bool {
	if inj.cycle < inj.plan.From {
		return false
	}
	return inj.plan.To <= 0 || inj.cycle < inj.plan.To
}

// BeginCycle implements fabric.FaultInjector: refresh every site's
// per-cycle stall/freeze state from the precomputed windows. A decision
// can change only where some window starts or ends, so the site walk
// runs only at such an edge (or when the cycle jumps back before the
// last walk); inside the span between edges every cached decision
// holds and BeginCycle only accounts the frozen elements' cycles. A
// plan without windows (every pure data plan) walks once per run. In
// CPU profiles of batched campaigns, a walk on every cycle, one
// covers() call per site, took about 12% of the total.
func (inj *Injector) BeginCycle(cycle int64) {
	inj.cycle = cycle
	if cycle >= inj.edgeLo && cycle < inj.edgeHi {
		inj.counts.FreezeCycles += inj.frozen
		return
	}
	if cycle < inj.edgeLo {
		inj.rewind()
	}
	next := int64(math.MaxInt64)
	for _, s := range inj.chans {
		s.stalledNow = covers(s.stalls, &s.widx, cycle)
		next = nextEdge(s.stalls, s.widx, cycle, next)
	}
	inj.frozen = 0
	for _, es := range inj.elemList {
		es.frozenNow = covers(es.freezes, &es.widx, cycle)
		next = nextEdge(es.freezes, es.widx, cycle, next)
		if es.frozenNow {
			inj.frozen++
		}
	}
	inj.counts.FreezeCycles += inj.frozen
	inj.edgeLo, inj.edgeHi = cycle, next
}

// rewind empties the edge span and moves every window cursor back to
// the first window, so the next BeginCycle walks from scratch.
func (inj *Injector) rewind() {
	inj.edgeLo, inj.edgeHi = 0, 0
	for _, s := range inj.chans {
		s.widx = 0
	}
	for _, es := range inj.elemList {
		es.widx = 0
	}
}

// Frozen implements fabric.FaultInjector. A frozen element implies an
// active freeze window (BeginCycle sets both), so the cycle loop hoists
// the Active check per cycle and skips the per-element lookup entirely
// when no window covers the cycle.
func (inj *Injector) Frozen(e fabric.Element) bool {
	if inj.frozen == 0 {
		return false
	}
	es, ok := inj.elems[e]
	return ok && es.frozenNow
}

// Active implements fabric.FaultInjector.
func (inj *Injector) Active() bool { return inj.frozen > 0 }

// Counts returns the injection statistics accumulated so far.
func (inj *Injector) Counts() Counts { return inj.counts }

// countedSource wraps a rand source and counts state advances, so a
// checkpoint can record the generator's position and a restore can
// replay it exactly (math/rand sources expose no serializable state).
// Go's rngSource defines Int63 as a masked Uint64, so every method is
// exactly one state advance and counting calls counts advances.
//
// Seeding is lazy: Seed (and construction via siteRand) records the
// seed but defers the expensive generator-state initialization until
// the first draw. Campaign profiles motivated this — math/rand's seed
// routine fills a 607-word feedback array per site, and in a data-fault
// campaign most sites never draw at all (no windows at attach, and only
// channels that actually deliver tokens before Plan.To consume draws).
// The draw sequence is unchanged: the first draw observes exactly the
// state an eager seed would have produced.
type countedSource struct {
	src     rand.Source64
	draws   int64
	pending int64 // seed to apply before the next draw, when unseeded
	seeded  bool
}

func (c *countedSource) ensure() {
	if !c.seeded {
		c.seeded = true
		if c.src == nil {
			c.src = rand.NewSource(c.pending).(rand.Source64)
		} else {
			c.src.Seed(c.pending)
		}
	}
}

func (c *countedSource) Int63() int64    { c.ensure(); c.draws++; return c.src.Int63() }
func (c *countedSource) Uint64() uint64  { c.ensure(); c.draws++; return c.src.Uint64() }
func (c *countedSource) Seed(seed int64) { c.pending, c.seeded, c.draws = seed, false, 0 }

// burn advances the source n states without counting them (used by
// restore to replay a checkpointed generator position).
func (c *countedSource) burn(n int64) {
	c.ensure()
	for i := int64(0); i < n; i++ {
		c.src.Uint64()
	}
}

// siteRand derives a site-local deterministic generator from the plan
// seed and the site name. The returned source is the generator's own, so
// callers can checkpoint its position; the returned hash is the site
// name's, so Rearm can re-seed for a new plan seed without re-hashing.
// Wrapping does not change the draw sequence: countedSource delegates
// verbatim, and rand.Rand uses a Source64 the same way it uses the bare
// source.
func siteRand(seed int64, site string) (*rand.Rand, *countedSource, int64) {
	h := fnv.New64a()
	h.Write([]byte(site))
	hash := int64(h.Sum64())
	src := &countedSource{pending: seed ^ hash}
	return rand.New(src), src, hash
}
