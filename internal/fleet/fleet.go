// Package fleet scales tiad horizontally: a coordinator fronts N tiad
// workers and routes simulation jobs across them with cache affinity,
// failover, and snapshot-based job migration.
//
// The paper's triggered-instruction fabrics are distributed ensembles
// of autonomous workers reacting to readiness events; the fleet applies
// the same paradigm one level up. Each job's affinity key (the
// behaviour-affecting fields the workers' result caches hash, with a
// netlist's source reduced to its lexer-level token hash) places it on
// a deterministic consistent-hash ring, so identical jobs always land
// on the worker that already holds the cached result: the per-worker
// result caches compose into one fleet-wide cache with no cache
// coherence traffic at all. Routing never parses or builds a job; the
// only coordinator-side parse vets a batch template once before it fans
// out.
//
// Failures migrate instead of restarting: while a job runs, the
// coordinator polls the owning worker's checkpoint snapshot
// (GET /v1/jobs/{id}/snapshot — the PR 4 snapshot machinery, which is
// fingerprint-guarded and self-describing, i.e. already a migration
// format). If the worker dies mid-job, the job is resubmitted to the
// next worker on the ring with the stashed snapshot inline
// (JobRequest.ResumeSnapshot); determinism makes the migrated result
// byte-identical to an uninterrupted run. A connection that breaks
// while the worker survives is reattached through GET /v1/jobs/{id}
// instead of re-running the job.
//
// The failure model is adversarial, not just clean-kill (see
// internal/chaos, which soaks this package under seeded partitions,
// resets, corruption and crash-restart): per-worker circuit breakers
// with half-open probes keep dead workers from bleeding every job's
// retry budget, each job's failover is budgeted (no infinite ring
// walking), snapshots are digest-verified before they are stashed or
// resubmitted (corruption is quarantined, the job falls back to a
// fresh run), deadlines propagate coordinator → worker, and an
// optional write-ahead journal (the workers' own, service.Journal) plus
// an on-disk stash mirror let a restarted coordinator re-drive
// every accepted-but-unfinished job to exactly one terminal state.
//
// Campaign traffic fans out with POST /v1/batches: one request times
// many seeds/configs, spread across the ring, with results either
// collected (sorted by run index) or streamed as NDJSON rows the moment
// each worker finishes.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tia/internal/service"
)

// Config tunes the coordinator.
type Config struct {
	// Workers lists the tiad base URLs the fleet routes over. Order is
	// irrelevant to routing (the ring sorts), duplicates are dropped.
	Workers []string
	// HeartbeatEvery is the /healthz probe cadence; 0 means 1s. A worker
	// whose last heartbeat is more than three cadences old, in either
	// direction (clock skew on a worker that reports a future timestamp
	// is as disqualifying as a stale one), stops receiving new jobs.
	HeartbeatEvery time.Duration
	// PollEvery is how often an in-flight job's checkpoint snapshot is
	// polled from its worker (the migration stash); 0 means 250ms.
	PollEvery time.Duration
	// MaxFailover bounds how many distinct workers one job may try per
	// failover pass; 0 means every worker on the ring.
	MaxFailover int
	// RetryBudget bounds total submission attempts per job across all
	// failover passes — the "no infinite ring-walking" guarantee. Once
	// spent, the job fails with the last worker error (or unavailable).
	// 0 means 3 attempts per registered worker, at least 4.
	RetryBudget int
	// RetryBackoff is the pause between failover passes over the ring
	// (a transiently fully-partitioned fleet deserves a beat before the
	// next sweep, not a hot loop); 0 means 100ms. A longer Retry-After
	// hint from a worker in the pass replaces it.
	RetryBackoff time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// worker's circuit breaker; 0 means 3, negative disables breakers.
	BreakerThreshold int
	// BatchConcurrency bounds concurrently routed runs per batch;
	// 0 means 4 per worker.
	BatchConcurrency int
	// JournalPath, when set, makes accepted jobs durable: every job is
	// journaled (service.Journal, as on the workers) before routing and
	// marked terminal after, and a restarted coordinator re-drives the
	// difference to exactly one terminal state each. The migration
	// stash is then mirrored to JournalPath+".stash", so recovered jobs
	// resume from their last checkpoint instead of cycle 0.
	JournalPath string
	// HTTP is the transport shared by all worker clients; nil means a
	// client without an overall timeout (submissions stay open for the
	// whole simulation).
	HTTP *http.Client
}

// Fixed serving limits of the coordinator.
const (
	// probeTimeout bounds every health, status and snapshot probe.
	probeTimeout = 2 * time.Second
	// breakerCooldown is a worker breaker's first open period; each
	// re-open doubles it, up to breakerMaxCooldown.
	breakerCooldown    = 2 * time.Second
	breakerMaxCooldown = 30 * time.Second
	// maxBatchRuns bounds the runs of one batch request.
	maxBatchRuns = 4096
	// maxRequestBytes bounds request bodies.
	maxRequestBytes = 8 << 20
	// maxStashBytes caps the migration stash's resident bytes; crossing
	// it evicts the oldest entries (their jobs migrate by fresh re-run
	// instead).
	maxStashBytes = 256 << 20
)

// Coordinator routes jobs across the fleet and serves the coordinator
// API: POST /v1/jobs, POST /v1/batches, GET /v1/fleet, GET /healthz,
// GET /metrics and a GET /v1/workloads proxy.
type Coordinator struct {
	cfg     Config
	metrics *Metrics
	ring    *ring
	reg     *Registry
	stash   *snapStash
	journal *service.Journal
	mux     *http.ServeMux

	jobSeq   atomic.Int64
	draining atomic.Bool

	stop          chan struct{}
	probing       sync.WaitGroup
	recovering    sync.WaitGroup
	recoverCancel context.CancelFunc
	stopOnce      sync.Once
	journalOnce   sync.Once
}

// New builds a Coordinator over the configured workers, probes them
// once synchronously (so a freshly started coordinator routes sensibly
// from its first request), replays its journal if one is configured,
// and starts the heartbeat loop.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fleet: no workers configured")
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 250 * time.Millisecond
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 3 * len(cfg.Workers)
		if cfg.RetryBudget < 4 {
			cfg.RetryBudget = 4
		}
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BatchConcurrency <= 0 {
		cfg.BatchConcurrency = 4 * len(cfg.Workers)
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{}
	}
	metrics := &Metrics{}
	brCfg := breakerConfig{
		threshold:   max(cfg.BreakerThreshold, 0), // negative disables breakers
		cooldown:    breakerCooldown,
		maxCooldown: breakerMaxCooldown,
		staleAfter:  3 * cfg.HeartbeatEvery,
	}
	stashDir := ""
	if cfg.JournalPath != "" {
		stashDir = cfg.JournalPath + ".stash"
		if err := os.MkdirAll(stashDir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: stash dir: %w", err)
		}
	}
	c := &Coordinator{
		cfg:     cfg,
		metrics: metrics,
		reg:     newRegistry(cfg.Workers, cfg.HTTP, brCfg, metrics),
		stash:   newSnapStash(maxStashBytes, stashDir, metrics),
		stop:    make(chan struct{}),
	}
	c.ring = newRing(c.reg.urls())
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /v1/jobs", c.handleJobs)
	c.mux.HandleFunc("POST /v1/batches", c.handleBatches)
	c.mux.HandleFunc("GET /v1/fleet", c.handleFleet)
	c.mux.HandleFunc("GET /v1/workloads", c.handleWorkloads)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)

	var pending []service.PendingJob
	if cfg.JournalPath != "" {
		j, recs, err := service.OpenJournal(cfg.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("fleet: %w", err)
		}
		rp := service.FoldJournal(recs, "fl-")
		c.journal = j
		c.jobSeq.Store(rp.Seq)
		pending = rp.Pending
	}

	probeCtx, cancelProbes := context.WithCancel(context.Background())
	c.reg.probeAll(probeCtx, probeTimeout)
	c.probing.Add(1)
	go func() {
		defer c.probing.Done()
		defer cancelProbes()
		t := time.NewTicker(cfg.HeartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.reg.probeAll(probeCtx, probeTimeout)
				c.metrics.Probes.Add(1)
			}
		}
	}()

	if len(pending) > 0 {
		recoverCtx, cancel := context.WithCancel(context.Background())
		c.recoverCancel = cancel
		c.recovering.Add(1)
		go func() {
			defer c.recovering.Done()
			// Sequential on purpose: recovery traffic is rare, and a
			// deterministic drive order makes restarts reproducible.
			for _, p := range pending {
				if recoverCtx.Err() != nil {
					return
				}
				c.recoverJob(recoverCtx, p.ID, p.Req)
			}
		}()
	}
	return c, nil
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Metrics exposes the coordinator's counters (tests, embedding).
func (c *Coordinator) Metrics() *Metrics { return c.metrics }

// Drain stops accepting jobs; in-flight routed jobs finish on their
// workers and their HTTP responses complete normally.
func (c *Coordinator) Drain() { c.draining.Store(true) }

// Close stops the heartbeat loop and journal replay, then closes the
// journal. Idempotent.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() {
		close(c.stop)
		if c.recoverCancel != nil {
			c.recoverCancel()
		}
	})
	c.probing.Wait()
	c.recovering.Wait()
	c.journalOnce.Do(func() {
		if c.journal != nil {
			_ = c.journal.Close()
		}
	})
}

// WaitRecovered blocks until journal replay has driven every pending
// job to a terminal state (tests, orchestration).
func (c *Coordinator) WaitRecovered() { c.recovering.Wait() }

// handleJobs routes one job across the fleet.
func (c *Coordinator) handleJobs(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		service.WriteError(w, service.DrainingError())
		return
	}
	var req service.JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		service.WriteError(w, &service.JobError{Kind: service.ErrBadRequest, Message: fmt.Sprintf("decode request: %v", err)})
		return
	}
	res, workerURL, err := c.routeJob(r.Context(), &req)
	if workerURL != "" {
		w.Header().Set("X-Tia-Worker", workerURL)
	}
	if err != nil {
		service.WriteError(w, err)
		return
	}
	// Relay the worker's bytes: the result is already in wire shape.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(res)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(res)
}

// FleetInfo is the GET /v1/fleet payload.
type FleetInfo struct {
	Workers        []WorkerInfo `json:"workers"`
	WorkersHealthy int64        `json:"workers_healthy"`
	RingReplicas   int          `json:"ring_replicas"`
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, _ *http.Request) {
	service.WriteJSON(w, http.StatusOK, FleetInfo{
		Workers:        c.reg.infos(),
		WorkersHealthy: c.reg.healthyCount(),
		RingReplicas:   ringReplicas,
	})
}

// handleWorkloads proxies the kernel listing from the first healthy
// worker — the fleet serves the same suite its workers do.
func (c *Coordinator) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	for _, u := range c.reg.urls() {
		wk := c.reg.get(u)
		if !c.reg.admissible(wk) {
			continue
		}
		ctx, cancel := context.WithTimeout(r.Context(), probeTimeout)
		list, err := wk.client.Workloads(ctx)
		cancel()
		if err == nil {
			service.WriteJSON(w, http.StatusOK, list)
			return
		}
	}
	service.WriteError(w, noWorkerError())
}

// CoordinatorHealth is the coordinator's /healthz body.
type CoordinatorHealth struct {
	// Status is "ok", "degraded" (some workers down), "no_workers"
	// (nothing routable) or "draining".
	Status         string `json:"status"`
	WorkersHealthy int64  `json:"workers_healthy"`
	WorkersTotal   int    `json:"workers_total"`
	// Journal reports whether the coordinator journal is active.
	Journal bool `json:"journal,omitempty"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	healthy := c.reg.healthyCount()
	h := CoordinatorHealth{
		Status:         "ok",
		WorkersHealthy: healthy,
		WorkersTotal:   len(c.reg.urls()),
		Journal:        c.journal != nil,
	}
	code := http.StatusOK
	switch {
	case c.draining.Load():
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	case healthy == 0:
		h.Status = "no_workers"
		code = http.StatusServiceUnavailable
	case int(healthy) < h.WorkersTotal:
		h.Status = "degraded"
	}
	service.WriteJSON(w, code, h)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.metrics.WritePrometheus(w, c.reg.healthyCount(), int64(len(c.reg.urls())))
}

// noWorkerError is the typed rejection when no worker can take a job.
func noWorkerError() *service.JobError {
	return &service.JobError{
		Kind:       service.ErrUnavailable,
		Message:    "no fleet worker available",
		RetryAfter: 2 * time.Second,
	}
}

// nextJobID mints a coordinator-scoped job identity. Migrated jobs keep
// it across workers.
func (c *Coordinator) nextJobID() string {
	return fmt.Sprintf("fl-%06d", c.jobSeq.Add(1))
}
