package fleet

import (
	"context"
	"net/http"
	"sync"
	"time"

	"tia/internal/service"
)

// Circuit-breaker states. Closed is the healthy steady state; repeated
// failures open the breaker, which refuses the worker all routing for a
// cooldown; an expired cooldown half-opens it, admitting exactly one
// probe job whose outcome decides between closing and re-opening (with
// the cooldown doubled, capped). Breakers keep a coordinator from
// burning its per-job retry budgets re-discovering the same dead worker
// on every job, while the half-open probe keeps recovery automatic.
const (
	brClosed = iota
	brOpen
	brHalfOpen
)

// breakerConfig is the registry's failure-handling policy (resolved
// from fleet.Config in New).
type breakerConfig struct {
	// threshold is the consecutive-failure count that opens the breaker.
	threshold int
	// cooldown is the first open period; each re-open doubles it up to
	// maxCooldown.
	cooldown    time.Duration
	maxCooldown time.Duration
	// staleAfter bounds heartbeat age: a worker whose last successful
	// probe is further than this from "now" — in either direction, so a
	// future timestamp from a skewed clock is as disqualifying as an
	// ancient one — is not offered new jobs until a fresh probe lands.
	// 0 disables the check.
	staleAfter time.Duration
}

// worker is one registered tiad instance and what the coordinator knows
// about it.
type worker struct {
	// URL is the worker's base URL; it is also its ring identity.
	URL string
	// client speaks the job API. Each call is one round trip: the
	// router owns retry and failover, so a failure surfaces at once
	// instead of being retried against a dead worker.
	client *service.Client

	mu      sync.Mutex
	healthy bool
	// draining distinguishes "refusing new jobs" from "unreachable":
	// a draining worker still answers status and snapshot lookups.
	draining bool
	lastSeen time.Time
	lastErr  string
	// health is the last decoded /healthz body (display only).
	health service.Health

	// Circuit-breaker state (see the br* constants).
	brState  int
	failures int
	openedAt time.Time
	cooldown time.Duration
	// probing marks the single in-flight half-open probe slot.
	probing bool
}

// setHealth folds one probe outcome into the worker's state.
func (w *worker) setHealth(h *service.Health, err error, now time.Time, cfg breakerConfig) (opened bool) {
	if err != nil {
		return w.noteFailure(err.Error(), now, cfg)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.health = *h
	w.lastSeen = now
	w.lastErr = ""
	w.draining = h.Status == "draining"
	w.healthy = !w.draining
	w.closeBreakerLocked(cfg)
	return false
}

// reportUp records router-observed proof of life (any answered request,
// including typed rejections — a worker that can say "busy" is not
// dead) and closes the breaker.
func (w *worker) reportUp(now time.Time, cfg breakerConfig) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.healthy = !w.draining
	w.lastSeen = now
	w.lastErr = ""
	w.closeBreakerLocked(cfg)
}

func (w *worker) closeBreakerLocked(cfg breakerConfig) {
	w.brState = brClosed
	w.failures = 0
	w.cooldown = cfg.cooldown
	w.probing = false
}

// markDown records a router-observed transport failure without waiting
// for the next heartbeat.
func (w *worker) markDown(err error, now time.Time, cfg breakerConfig) (opened bool) {
	return w.noteFailure(err.Error(), now, cfg)
}

// noteFailure folds one failure into health and breaker state,
// reporting whether this failure opened (or re-opened) the breaker.
func (w *worker) noteFailure(msg string, now time.Time, cfg breakerConfig) (opened bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.healthy = false
	w.lastErr = msg
	w.failures++
	switch w.brState {
	case brHalfOpen:
		// The probe failed: re-open with a doubled cooldown.
		w.brState = brOpen
		w.openedAt = now
		w.probing = false
		w.cooldown = minDuration(w.cooldown*2, cfg.maxCooldown)
		return true
	case brClosed:
		if cfg.threshold > 0 && w.failures >= cfg.threshold {
			w.brState = brOpen
			w.openedAt = now
			if w.cooldown <= 0 {
				w.cooldown = cfg.cooldown
			}
			return true
		}
	}
	return false
}

func minDuration(a, b time.Duration) time.Duration {
	if b > 0 && a > b {
		return b
	}
	return a
}

// fresh reports whether the worker's heartbeat age is inside the
// staleness bound (clock skew counts in both directions).
func (w *worker) freshLocked(now time.Time, cfg breakerConfig) bool {
	if cfg.staleAfter <= 0 || w.lastSeen.IsZero() {
		return true
	}
	age := now.Sub(w.lastSeen)
	if age < 0 {
		age = -age
	}
	return age <= cfg.staleAfter
}

// admissible reports whether the router may offer this worker a job
// right now, without committing a half-open probe slot.
func (w *worker) admissible(now time.Time, cfg breakerConfig) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.freshLocked(now, cfg) {
		return false
	}
	switch w.brState {
	case brOpen:
		return now.Sub(w.openedAt) >= w.cooldown // cooldown expired: probe-eligible
	case brHalfOpen:
		return !w.probing
	default:
		return w.healthy
	}
}

// acquire commits an attempt slot: for a closed breaker it is a plain
// health check, for an expired-open/half-open breaker it claims the
// single probe slot (the claim is what makes "half-open admits one
// in-flight probe" true under concurrent routing). probe reports
// whether this attempt is the breaker's probe.
func (w *worker) acquire(now time.Time, cfg breakerConfig) (ok, probe bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.freshLocked(now, cfg) {
		return false, false
	}
	switch w.brState {
	case brOpen:
		if now.Sub(w.openedAt) < w.cooldown {
			return false, false
		}
		w.brState = brHalfOpen
		w.probing = true
		return true, true
	case brHalfOpen:
		if w.probing {
			return false, false
		}
		w.probing = true
		return true, true
	default:
		return w.healthy, false
	}
}

// WorkerInfo is one worker's row in GET /v1/fleet.
type WorkerInfo struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining,omitempty"`
	LastErr  string `json:"last_error,omitempty"`
	// Breaker is the circuit-breaker state: "closed", "open" or
	// "half-open".
	Breaker string `json:"breaker,omitempty"`
	// QueueDepth and Running mirror the worker's last /healthz body.
	QueueDepth int64 `json:"queue_depth"`
	Running    int64 `json:"running"`
}

// Registry holds the fleet's workers, probes their health, and runs a
// circuit breaker per worker. The clock is injectable so breaker
// cooldowns and heartbeat staleness are testable without sleeping.
type Registry struct {
	order   []string // registration order, for display
	workers map[string]*worker
	cfg     breakerConfig
	now     func() time.Time
	metrics *Metrics
}

// newRegistry builds workers (and their clients) for the given base
// URLs. hc is the shared transport; it must not carry an overall
// timeout, because job submissions stay open for the full simulation.
func newRegistry(urls []string, hc *http.Client, cfg breakerConfig, m *Metrics) *Registry {
	r := &Registry{
		workers: make(map[string]*worker, len(urls)),
		cfg:     cfg,
		now:     time.Now,
		metrics: m,
	}
	for _, u := range urls {
		if _, dup := r.workers[u]; dup {
			continue
		}
		r.order = append(r.order, u)
		r.workers[u] = &worker{
			URL:      u,
			client:   &service.Client{BaseURL: u, HTTP: hc},
			cooldown: cfg.cooldown,
		}
	}
	return r
}

// urls returns the registered worker URLs in registration order.
func (r *Registry) urls() []string { return r.order }

// get returns the named worker (nil when unknown).
func (r *Registry) get(url string) *worker { return r.workers[url] }

// markDown folds a router-observed failure into a worker's breaker.
func (r *Registry) markDown(w *worker, err error) {
	if w.markDown(err, r.now(), r.cfg) {
		r.metrics.BreakerOpens.Add(1)
	}
}

// reportUp folds router-observed proof of life into a worker.
func (r *Registry) reportUp(w *worker) { w.reportUp(r.now(), r.cfg) }

// acquire claims an attempt slot on a worker (see worker.acquire),
// counting half-open probes.
func (r *Registry) acquire(w *worker) bool {
	ok, probe := w.acquire(r.now(), r.cfg)
	if probe {
		r.metrics.BreakerProbes.Add(1)
	}
	return ok
}

// admissible reports whether a worker may be offered jobs right now.
func (r *Registry) admissible(w *worker) bool { return w.admissible(r.now(), r.cfg) }

// probeAll probes every worker's /healthz concurrently and folds the
// outcomes in. Each probe is bounded by timeout so one hung worker
// cannot stall the heartbeat loop.
func (r *Registry) probeAll(ctx context.Context, timeout time.Duration) {
	var wg sync.WaitGroup
	for _, u := range r.order {
		w := r.workers[u]
		wg.Add(1)
		go func() {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			h, err := w.client.Healthz(pctx)
			if w.setHealth(h, err, r.now(), r.cfg) {
				r.metrics.BreakerOpens.Add(1)
			}
		}()
	}
	wg.Wait()
}

// healthyCount counts routable workers.
func (r *Registry) healthyCount() int64 {
	var n int64
	now := r.now()
	for _, u := range r.order {
		if r.workers[u].admissible(now, r.cfg) {
			n++
		}
	}
	return n
}

// infos renders every worker's display row.
func (r *Registry) infos() []WorkerInfo {
	out := make([]WorkerInfo, 0, len(r.order))
	for _, u := range r.order {
		w := r.workers[u]
		w.mu.Lock()
		br := "closed"
		switch w.brState {
		case brOpen:
			br = "open"
		case brHalfOpen:
			br = "half-open"
		}
		out = append(out, WorkerInfo{
			URL:        w.URL,
			Healthy:    w.healthy,
			Draining:   w.draining,
			LastErr:    w.lastErr,
			Breaker:    br,
			QueueDepth: w.health.QueueDepth,
			Running:    w.health.Running,
		})
		w.mu.Unlock()
	}
	return out
}
