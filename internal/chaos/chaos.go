// Package chaos is the seeded, deterministic network-fault harness for
// the fleet layer — the distributed-systems twin of internal/faults.
// Where faults perturbs the fabric (channel stalls, bit flips, element
// freezes) and asserts the paper's latency-insensitivity property,
// chaos perturbs the HTTP paths between a coordinator and its workers —
// latency jitter, connection resets, asymmetric partitions, slow-loris
// bodies, truncated and corrupted responses, timed crash-restart of
// workers — and the fleet soak asserts the serving layer's analogous
// contract: every accepted job reaches exactly one terminal state and
// every completed result is byte-identical to a chaos-free run.
//
// Determinism is the whole point, and it is built the same way
// internal/faults builds it:
//
//   - every fault decision is a pure function of (plan seed, site name,
//     traffic class, per-site request index) via an FNV-derived PRNG —
//     no shared generator whose draw order concurrency could perturb;
//   - partition windows are drawn up front per site in request-index
//     space, mirroring the attach-time stall/freeze window draws of
//     internal/faults (cycle-window scheduling, with "cycle" replaced
//     by "nth request of this class at this site");
//   - only traffic whose request count is itself deterministic is
//     faulted. Submissions are driven by the caller's job sequence;
//     snapshot/status/health polls are driven by wall-clock tickers, so
//     their counts vary run to run. Snapshot responses may be corrupted
//     (each decision still seed-pure per index) and trigger the crash
//     schedule, but only submit-class events and the crash/restart
//     schedule form the DeterministicLog that same-seed reruns must
//     reproduce bit-identically.
package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// Class partitions fleet traffic by what drives it. Submit traffic is
// deterministic in count and order (the caller's job sequence); the
// poll classes are ticker-driven.
type Class string

const (
	// ClassSubmit is job and batch submission (POST /v1/jobs|/v1/batches).
	ClassSubmit Class = "submit"
	// ClassSnapshot is checkpoint fetching (GET /v1/jobs/{id}/snapshot).
	ClassSnapshot Class = "snapshot"
	// ClassStatus is job status polling (GET /v1/jobs/{id}).
	ClassStatus Class = "status"
	// ClassHealth is health probing (GET /healthz).
	ClassHealth Class = "health"
	// ClassCrash is the worker crash-restart schedule (not a request
	// class; used as the class of crash/restart events).
	ClassCrash Class = "crash"
	// ClassOther is everything else; never faulted.
	ClassOther Class = "other"
)

// DefaultPartitionHorizon bounds partition-window starts when the plan
// does not: windows land within the first 64 submit requests per site.
const DefaultPartitionHorizon = 64

// Plan is a seeded chaos schedule. The zero value injects nothing.
type Plan struct {
	// Seed bases every per-site generator. Two runs of the same plan
	// against the same (aliased) traffic inject the same faults.
	Seed int64
	// Sites is a substring filter on site names ("" = all sites).
	Sites string

	// Submit-class faults, each a per-request probability.
	// LatencyRate delays the request by a seeded uniform draw in
	// (0, LatencyMax].
	LatencyRate float64
	LatencyMax  time.Duration
	// ResetRate severs the connection before the request reaches the
	// worker (the worker never sees it).
	ResetRate float64
	// ResetAfterRate severs it after the worker processed the request
	// but before the response is delivered — the duplicate-risk fault:
	// the job ran, the submitter doesn't know.
	ResetAfterRate float64
	// TruncateRate cuts the response body short mid-read.
	TruncateRate float64
	// SlowLorisRate trickles the response body chunk by chunk with
	// SlowLorisDelay between chunks.
	SlowLorisRate  float64
	SlowLorisDelay time.Duration

	// Partitions draws this many unreachability windows per matched
	// site in submit-request-index space: while the nth submit to the
	// site falls inside a window, submits fail as resets — but the
	// ticker-driven classes still pass. That asymmetry (a worker that
	// answers health probes yet cannot take work) is the partition
	// shape that purely symmetric kill-testing never exercises.
	Partitions       int
	PartitionMax     int
	PartitionHorizon int64

	// CorruptSnapshotRate flips one seeded bit in a snapshot response
	// body. Snapshots are digest-protected end to end, so corruption
	// here must be detected and quarantined, never restored.
	CorruptSnapshotRate float64

	// CrashAtCycle kills a matched worker the first time one of its
	// snapshot responses verifies at a fabric cycle >= this value — a
	// deterministic mid-job crash trigger keyed to simulation progress
	// rather than wall clock. 0 disables.
	CrashAtCycle int64
	// RestartAfter revives a crashed worker after this much wall time;
	// 0 leaves it down.
	RestartAfter time.Duration
	// MaxCrashes bounds total crashes per run (0 = one per site).
	// Without restarts, an unbounded trigger would kill every worker a
	// migrating long job lands on — each fresh re-run crosses the
	// threshold again — and no fleet survives losing all its workers.
	MaxCrashes int
}

// Validate rejects malformed plans, mirroring faults.Plan.Validate.
func (p *Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"latency_rate", p.LatencyRate},
		{"reset_rate", p.ResetRate},
		{"reset_after_rate", p.ResetAfterRate},
		{"truncate_rate", p.TruncateRate},
		{"slow_loris_rate", p.SlowLorisRate},
		{"corrupt_snapshot_rate", p.CorruptSnapshotRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("chaos: %s %v outside [0,1]", r.name, r.v)
		}
	}
	if p.Partitions < 0 || p.PartitionMax < 0 {
		return fmt.Errorf("chaos: negative partition counts")
	}
	if p.Partitions > 0 && p.PartitionMax == 0 {
		return fmt.Errorf("chaos: partitions drawn with partition_max 0")
	}
	if p.PartitionHorizon < 0 {
		return fmt.Errorf("chaos: negative partition horizon")
	}
	if p.LatencyRate > 0 && p.LatencyMax <= 0 {
		return fmt.Errorf("chaos: latency_rate set with latency_max 0")
	}
	if p.CrashAtCycle < 0 || p.RestartAfter < 0 || p.MaxCrashes < 0 {
		return fmt.Errorf("chaos: negative crash schedule")
	}
	return nil
}

// active reports whether the plan injects anything at all.
func (p *Plan) active() bool {
	return p.LatencyRate > 0 || p.ResetRate > 0 || p.ResetAfterRate > 0 ||
		p.TruncateRate > 0 || p.SlowLorisRate > 0 || p.Partitions > 0 ||
		p.CorruptSnapshotRate > 0 || p.CrashAtCycle > 0
}

// Event is one injected fault, addressed by site, class and the
// per-site request index it hit — the replay identity of the fault.
type Event struct {
	Site   string
	Class  Class
	Seq    int64
	Kind   string
	Detail string
}

// String renders one fault-log line.
func (e Event) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("%s %s[%d] %s", e.Site, e.Class, e.Seq, e.Kind)
	}
	return fmt.Sprintf("%s %s[%d] %s %s", e.Site, e.Class, e.Seq, e.Kind, e.Detail)
}

// WorkerControl lets the harness execute its crash-restart schedule.
// Kill must behave like SIGKILL (stop serving, sever connections, no
// draining); Restart brings the worker back on the same URL. Both are
// called from harness goroutines, never from a request path.
type WorkerControl interface {
	Kill(url string)
	Restart(url string)
}

// Error is the transport-level failure an injected network fault
// surfaces as. It is deliberately not a typed service error: to the
// fleet client it is indistinguishable from a real broken connection.
type Error struct {
	Kind string
	Site string
	Seq  int64
}

func (e *Error) Error() string {
	return fmt.Sprintf("chaos: %s (site %s, submit %d)", e.Kind, e.Site, e.Seq)
}

// window is one [start, end) partition interval in request-index space.
type window struct {
	start, end int64
}

// site is one worker's per-run chaos state.
type site struct {
	name       string // alias (stable across runs) or raw URL
	url        string
	seq        map[Class]int64
	partitions []window
	partIdx    int
	crashed    bool
}

// Harness owns a plan's execution: per-site state, the fault log, and
// the crash-restart schedule.
type Harness struct {
	plan Plan

	mu      sync.Mutex
	sites   map[string]*site // keyed by raw URL ("scheme://host")
	aliases map[string]string
	events  []Event
	ctrl    WorkerControl
	timers  []*time.Timer
	kills   sync.WaitGroup
	crashes int

	// pending counts restarts armed but not yet done; restarted is
	// closed (and cleared) when it drops back to zero.
	pending   int
	restarted chan struct{}
}

// New builds a harness for a validated plan.
func New(p Plan) (*Harness, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.PartitionHorizon == 0 {
		p.PartitionHorizon = DefaultPartitionHorizon
	}
	return &Harness{
		plan:    p,
		sites:   make(map[string]*site),
		aliases: make(map[string]string),
	}, nil
}

// Plan returns the harness's (normalized) plan.
func (h *Harness) Plan() Plan { return h.plan }

// Bind attaches the worker controller the crash schedule drives.
func (h *Harness) Bind(ctrl WorkerControl) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ctrl = ctrl
}

// Alias names a worker URL for logging and seeding. Test-server URLs
// carry ephemeral ports, so two runs of the same fleet shape would
// otherwise hash (and log) under different site identities; aliasing
// each URL to a stable name ("w0", "w1", ...) makes the fault stream a
// pure function of the seed again.
func (h *Harness) Alias(url, name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.aliases[url] = name
	if s, ok := h.sites[url]; ok {
		s.name = name
	}
}

// Reset clears per-run state — request counters, the event log, crash
// flags — while keeping the plan and aliases, so the same harness can
// drive a same-seed replay. Pending restart timers are stopped and
// in-flight kills waited out first.
func (h *Harness) Reset() {
	h.stopTimers()
	h.kills.Wait()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sites = make(map[string]*site)
	h.events = nil
	h.crashes = 0
}

// Close stops the crash-restart schedule and waits for its goroutines.
func (h *Harness) Close() {
	h.stopTimers()
	h.kills.Wait()
}

func (h *Harness) stopTimers() {
	h.mu.Lock()
	timers := h.timers
	h.timers = nil
	h.mu.Unlock()
	for _, t := range timers {
		if t.Stop() {
			h.restartDone() // stopped before it fired: it never will
		}
	}
}

// restartDone retires one armed restart.
func (h *Harness) restartDone() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pending--
	if h.pending == 0 {
		close(h.restarted)
		h.restarted = nil
	}
}

// WaitRestarts blocks until every restart the crash schedule has armed
// has fired and its worker is back (or was cancelled by Reset or Close),
// or ctx is done. The restart timers run on wall time, so a workload can
// finish before they fire; callers that assert on the schedule's outcome
// wait here first.
func (h *Harness) WaitRestarts(ctx context.Context) error {
	for {
		h.mu.Lock()
		restarted := h.restarted
		h.mu.Unlock()
		if restarted == nil {
			return nil
		}
		select {
		case <-restarted:
		case <-ctx.Done():
			return fmt.Errorf("chaos: armed restarts still pending: %w", ctx.Err())
		}
	}
}

// Events returns a copy of every recorded fault event.
func (h *Harness) Events() []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Event(nil), h.events...)
}

// Log renders the full fault log, sorted by (site, class, seq, kind) —
// append order interleaves arbitrarily under concurrency, the sorted
// view does not.
func (h *Harness) Log() string {
	return renderLog(h.Events(), func(Event) bool { return true })
}

// DeterministicLog renders only the events a same-seed rerun of the
// same workload must reproduce bit-identically: submit-class faults and
// the crash/restart schedule. Ticker-driven classes (snapshot, status,
// health) are excluded because their request counts depend on wall
// clock, not on the seed — their individual decisions are still
// seed-pure per index, but which indices occur is timing's choice.
func (h *Harness) DeterministicLog() string {
	return renderLog(h.Events(), func(e Event) bool {
		return e.Class == ClassSubmit || e.Class == ClassCrash
	})
}

func renderLog(events []Event, keep func(Event) bool) string {
	kept := events[:0:0]
	for _, e := range events {
		if keep(e) {
			kept = append(kept, e)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Kind < b.Kind
	})
	var sb strings.Builder
	for _, e := range kept {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (h *Harness) record(e Event) {
	h.mu.Lock()
	h.events = append(h.events, e)
	h.mu.Unlock()
}

// siteFor returns (creating on first sight) a site's state and bumps
// its per-class request counter, returning the request's index. The
// partition windows are drawn at first sight from the site's own
// FNV-derived generator, so discovery order cannot change them.
func (h *Harness) siteFor(url string, class Class) (*site, int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.sites[url]
	if !ok {
		name := url
		if a, ok := h.aliases[url]; ok {
			name = a
		}
		s = &site{name: name, url: url, seq: make(map[Class]int64)}
		if h.plan.Partitions > 0 {
			r := derivedRand(h.plan.Seed, name+"|partition")
			s.partitions = drawWindows(r, h.plan.Partitions, h.plan.PartitionMax, h.plan.PartitionHorizon)
		}
		h.sites[url] = s
	}
	seq := s.seq[class]
	s.seq[class] = seq + 1
	return s, seq
}

// matches applies the plan's site filter to a site name.
func (h *Harness) matches(name string) bool {
	return h.plan.Sites == "" || strings.Contains(name, h.plan.Sites)
}

// partitioned reports whether a site's nth submit falls in a partition
// window; idx advances monotonically with seq (amortized O(1), the
// covers idiom from internal/faults).
func (h *Harness) partitioned(s *site, seq int64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	ws := s.partitions
	for s.partIdx < len(ws) && ws[s.partIdx].end <= seq {
		s.partIdx++
	}
	for i := s.partIdx; i < len(ws) && ws[i].start <= seq; i++ {
		if seq < ws[i].end {
			return true
		}
	}
	return false
}

// observeCycle feeds the crash schedule: the first verified snapshot at
// or past CrashAtCycle for a matched site kills that worker (async, so
// the triggering response is still delivered — the coordinator keeps
// the migration material it just fetched) and arms the restart timer.
func (h *Harness) observeCycle(s *site, cycle int64) {
	if h.plan.CrashAtCycle <= 0 || cycle < h.plan.CrashAtCycle {
		return
	}
	h.mu.Lock()
	if s.crashed || h.ctrl == nil {
		h.mu.Unlock()
		return
	}
	if h.plan.MaxCrashes > 0 && h.crashes >= h.plan.MaxCrashes {
		h.mu.Unlock()
		return
	}
	s.crashed = true
	h.crashes++
	ctrl := h.ctrl
	h.events = append(h.events, Event{Site: s.name, Class: ClassCrash, Seq: 0, Kind: "crash",
		Detail: fmt.Sprintf("at-cycle>=%d", h.plan.CrashAtCycle)})
	url := s.url
	h.kills.Add(1)
	if h.plan.RestartAfter > 0 {
		if h.pending == 0 {
			h.restarted = make(chan struct{})
		}
		h.pending++
		t := time.AfterFunc(h.plan.RestartAfter, func() {
			defer h.restartDone()
			h.record(Event{Site: s.name, Class: ClassCrash, Seq: 1, Kind: "restart"})
			ctrl.Restart(url)
		})
		h.timers = append(h.timers, t)
	}
	h.mu.Unlock()
	go func() {
		defer h.kills.Done()
		ctrl.Kill(url)
	}()
}

// derivedRand is the chaos twin of faults.siteRand: a generator seeded
// by the plan seed XOR the FNV-64a hash of a derivation label. Because
// each (site, class, request-index) gets its own generator, decisions
// are pure functions of the seed and the request's identity — goroutine
// interleaving cannot reorder anyone's draws.
func derivedRand(seed int64, label string) *rand.Rand {
	f := fnv.New64a()
	f.Write([]byte(label))
	return rand.New(rand.NewSource(seed ^ int64(f.Sum64())))
}

// drawWindows samples n windows of duration [1, maxDur] inside
// [0, horizon), sorted by start — faults.drawWindows transplanted from
// cycle space to request-index space.
func drawWindows(r *rand.Rand, n, maxDur int, horizon int64) []window {
	if n <= 0 || horizon <= 0 {
		return nil
	}
	ws := make([]window, 0, n)
	for i := 0; i < n; i++ {
		start := r.Int63n(horizon)
		dur := int64(1 + r.Intn(maxDur))
		ws = append(ws, window{start: start, end: start + dur})
	}
	sort.Slice(ws, func(i, j int) bool {
		if ws[i].start != ws[j].start {
			return ws[i].start < ws[j].start
		}
		return ws[i].end < ws[j].end
	})
	return ws
}
