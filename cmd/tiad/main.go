// Command tiad is the simulation-as-a-service daemon: a long-running
// HTTP/JSON server that accepts simulation jobs (a netlist source or a
// named workload plus configuration overrides), runs them on a bounded
// job scheduler with a content-addressed result cache, and answers
// with cycle counts, per-element statistics, sink tokens and optional
// Chrome traces. Workload jobs can instead request a seeded
// fault-injection campaign (the "faults" job option): the result then
// carries the masked/detected/SDC/hang taxonomy and /metrics exports
// the injected/detected/silent outcome counters. See internal/service
// for the API and internal/faults for the fault model.
//
// Worker panics are recovered per job: a panicking simulation fails
// that job with a typed "internal" error and the daemon keeps serving.
//
// Hostile or oversized netlists never reach construction: submissions
// go through the structural validator (typed bad_request diagnostics
// with line numbers) and then the resource governor (internal/limits),
// which cost-models the topology against the -max-elements,
// -max-channel-tokens, -max-scratchpad-words, -max-cost-words per-job
// ceilings and the -server-cost-budget fleet-of-one budget. Over-budget
// jobs fail with a typed resource_limit error (HTTP 422) before any
// fabric allocation, counted by tia_jobs_rejected_resource_total.
//
// Usage:
//
//	tiad [-addr :8080] [-workers N] [-queue N] [-result-cache N]
//	     [-max-cycles N] [-drain-timeout D] [-journal FILE]
//	     [-snapshot-dir DIR] [-checkpoint-every N]
//	     [-max-elements N] [-max-channel-tokens N]
//	     [-max-scratchpad-words N] [-max-cost-words N]
//	     [-server-cost-budget N]
//
// Every netlist job parses its own fabric. Triggered PEs run compiled
// (internal/compile), bit-identical to the interpreter. The request
// field "compiled", which once opted into compiled stepping, is
// accepted and ignored.
//
// With -journal, every accepted job is recorded in a crash-safe
// write-ahead journal before it runs, long workload runs persist
// periodic fabric snapshots, and a restarted daemon replays the journal:
// completed results are served from cache, interrupted jobs re-run (from
// their latest checkpoint when one exists) under their original IDs.
//
// Endpoints:
//
//	POST /v1/jobs               submit a job, wait for its result
//	GET  /v1/jobs/{id}          job status and, once terminal, its outcome
//	GET  /v1/jobs/{id}/snapshot latest checkpoint snapshot (raw bytes)
//	GET  /v1/workloads          list the built-in kernels
//	GET  /healthz               "ok", or "draining" with 503 during shutdown
//	GET  /metrics               Prometheus text exposition
//
// SIGINT/SIGTERM starts a graceful drain: new jobs are rejected while
// in-flight jobs run to completion (bounded by -drain-timeout).
//
// # Coordinator mode
//
// tiad -coordinator -peers URL,URL,... runs no simulations itself:
// it fronts a fleet of tiad workers, routing each job to its
// cache-affine worker on a deterministic consistent-hash ring,
// heartbeating the fleet, failing jobs over when a worker dies —
// migrating checkpointed progress via the workers' snapshot API — and
// fanning out campaign batches (POST /v1/batches, optionally streamed
// as NDJSON). See internal/fleet.
//
// Coordinator hardening knobs: -retry-budget bounds total routing
// attempts per job, -coord-journal makes accepted jobs survive a
// coordinator crash (a restarted coordinator re-drives interrupted
// jobs to completion), and -chaos arms a seeded deterministic
// fault-injection plan (internal/chaos) on all worker-bound traffic —
// a testing feature that reproduces a fault mix bit-identically from
// its seed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tia/internal/chaos"
	"tia/internal/fleet"
	"tia/internal/limits"
	"tia/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "job queue capacity (0 = 4x workers)")
	resultCache := flag.Int("result-cache", 1024, "completed-result cache entries")
	maxCycles := flag.Int64("max-cycles", 100_000_000, "hard per-job cycle ceiling")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	journal := flag.String("journal", "", "job journal path (enables crash-safe durability)")
	snapshotDir := flag.String("snapshot-dir", "", "checkpoint snapshot directory (default <journal>.snapshots)")
	checkpointEvery := flag.Int64("checkpoint-every", 0, "cycles between job checkpoints (0 = default when journaling, <0 disables)")
	coordinator := flag.Bool("coordinator", false, "run as a fleet coordinator instead of a worker (requires -peers)")
	peers := flag.String("peers", "", "comma-separated worker base URLs (coordinator mode)")
	heartbeat := flag.Duration("heartbeat", time.Second, "worker health probe cadence (coordinator mode)")
	pollEvery := flag.Duration("poll-every", 250*time.Millisecond, "in-flight job snapshot poll cadence (coordinator mode)")
	maxFailover := flag.Int("failover", 0, "max distinct workers tried per job (0 = all; coordinator mode)")
	retryBudget := flag.Int("retry-budget", 0, "total routing attempts per job across all workers (0 = default; coordinator mode)")
	coordJournal := flag.String("coord-journal", "", "coordinator journal path: accepted jobs survive a coordinator crash and are re-driven on restart (coordinator mode)")
	chaosPlan := flag.String("chaos", "", `seeded chaos plan as JSON with Go field names, e.g. '{"Seed":1,"ResetRate":0.1}'; durations in nanoseconds (coordinator mode, testing)`)
	maxElements := flag.Int("max-elements", 0, "per-job fabric element ceiling (0 = unlimited)")
	maxChanTokens := flag.Int("max-channel-tokens", 0, "per-job total channel buffer capacity ceiling (0 = unlimited)")
	maxSpWords := flag.Int("max-scratchpad-words", 0, "per-job total scratchpad words ceiling (0 = unlimited)")
	maxCostWords := flag.Int64("max-cost-words", 0, "per-job modeled memory cost ceiling in words (0 = unlimited)")
	serverBudget := flag.Int64("server-cost-budget", 0, "server-wide modeled memory budget in words across concurrent jobs (0 = unlimited)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: tiad [flags]; see -h")
		os.Exit(2)
	}
	if *coordinator {
		runCoordinator(coordOpts{
			addr:        *addr,
			peers:       *peers,
			heartbeat:   *heartbeat,
			pollEvery:   *pollEvery,
			maxFailover: *maxFailover,
			retryBudget: *retryBudget,
			journal:     *coordJournal,
			chaosPlan:   *chaosPlan,
			drain:       *drainTimeout,
		})
		return
	}

	cfg := service.DefaultConfig()
	cfg.Workers = *workers
	cfg.QueueCap = *queue
	cfg.ResultCacheEntries = *resultCache
	cfg.MaxCyclesCap = *maxCycles
	cfg.JournalPath = *journal
	cfg.SnapshotDir = *snapshotDir
	cfg.CheckpointEvery = *checkpointEvery
	cfg.Limits = limits.Limits{
		MaxElements:        *maxElements,
		MaxChannelTokens:   *maxChanTokens,
		MaxScratchpadWords: *maxSpWords,
		MaxCostWords:       *maxCostWords,
		ServerCostWords:    *serverBudget,
	}
	svc, err := service.New(cfg)
	if err != nil {
		log.Fatalf("tiad: %v", err)
	}
	if *journal != "" {
		if lag := svc.JournalLag(); lag > 0 {
			log.Printf("tiad: journal %s replayed, %d interrupted job(s) re-enqueued", *journal, lag)
		} else {
			log.Printf("tiad: journal %s open, no interrupted jobs", *journal)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("tiad: listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("tiad: %v, draining (budget %s)", sig, *drainTimeout)
	case err := <-errc:
		log.Fatalf("tiad: serve: %v", err)
	}

	// Drain order: reject new jobs first (healthz flips to "draining"),
	// then let in-flight HTTP requests — which are waiting on their
	// jobs — finish under the shutdown budget.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	done := make(chan struct{})
	go func() {
		svc.Drain()
		close(done)
	}()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("tiad: shutdown: %v", err)
	}
	select {
	case <-done:
	case <-ctx.Done():
		log.Printf("tiad: drain budget exhausted with jobs still running")
	}
	log.Printf("tiad: stopped")
}

// coordOpts carries the coordinator-mode flag values.
type coordOpts struct {
	addr        string
	peers       string
	heartbeat   time.Duration
	pollEvery   time.Duration
	maxFailover int
	retryBudget int
	journal     string
	chaosPlan   string
	drain       time.Duration
}

// runCoordinator is tiad's fleet-coordinator mode: no local simulation,
// just routing over the peer workers.
func runCoordinator(opts coordOpts) {
	addr, drainTimeout := opts.addr, opts.drain
	var workers []string
	for _, u := range strings.Split(opts.peers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			workers = append(workers, strings.TrimRight(u, "/"))
		}
	}
	if len(workers) == 0 {
		fmt.Fprintln(os.Stderr, "tiad: -coordinator requires -peers URL[,URL...]")
		os.Exit(2)
	}
	// -chaos arms the deterministic fault harness on all worker-bound
	// traffic. Operationally a testing feature: a staging fleet under a
	// seeded plan reproduces a production incident's fault mix on demand.
	var harness *chaos.Harness
	var httpClient *http.Client
	if opts.chaosPlan != "" {
		var plan chaos.Plan
		if err := json.Unmarshal([]byte(opts.chaosPlan), &plan); err != nil {
			log.Fatalf("tiad: -chaos: %v", err)
		}
		h, err := chaos.New(plan)
		if err != nil {
			log.Fatalf("tiad: -chaos: %v", err)
		}
		harness = h
		httpClient = &http.Client{Transport: harness.Transport(nil)}
		log.Printf("tiad: chaos plan armed (seed %d)", plan.Seed)
	}
	coord, err := fleet.New(fleet.Config{
		Workers:        workers,
		HeartbeatEvery: opts.heartbeat,
		PollEvery:      opts.pollEvery,
		MaxFailover:    opts.maxFailover,
		RetryBudget:    opts.retryBudget,
		JournalPath:    opts.journal,
		HTTP:           httpClient,
	})
	if err != nil {
		log.Fatalf("tiad: %v", err)
	}
	if opts.journal != "" {
		log.Printf("tiad: coordinator journal %s open", opts.journal)
	}

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           coord.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("tiad: coordinator listening on %s, fleet of %d worker(s)", addr, len(workers))
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("tiad: %v, draining (budget %s)", sig, drainTimeout)
	case err := <-errc:
		log.Fatalf("tiad: serve: %v", err)
	}

	// Same drain order as worker mode: reject new jobs, then let routed
	// in-flight jobs finish on their workers under the budget.
	coord.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("tiad: shutdown: %v", err)
	}
	coord.Close()
	if harness != nil {
		harness.Close()
	}
	log.Printf("tiad: coordinator stopped")
}
