// Package service is the simulation-as-a-service layer: a long-running
// HTTP/JSON daemon (cmd/tiad) that accepts simulation jobs — a netlist
// source or a named workload plus configuration overrides — runs them on
// a bounded job scheduler, and answers with cycle counts, per-element
// statistics, sink tokens and optional Chrome traces.
//
// The package amortizes the simulator's speed across many concurrent
// requests with one content-addressed cache of completed results, keyed
// by a stable hash of the assembled form (see internal/asm); every
// netlist job parses its own fabric. It plumbs per-job deadlines and
// cancellation from the HTTP request down into the fabric stepping loop
// (fabric.RunContext), and exposes health and Prometheus-text metrics
// endpoints. Shutdown is
// graceful: new jobs are rejected while in-flight jobs drain.
package service

import (
	"encoding/json"
	"fmt"
	"time"
)

// JobRequest submits one simulation job. Exactly one of Workload or
// Netlist must be set.
type JobRequest struct {
	// Workload names a kernel of the built-in suite (see GET /v1/workloads).
	Workload string `json:"workload,omitempty"`
	// Netlist is a complete fabric description in the tiasim netlist
	// language; it carries its own programs and wiring.
	Netlist string `json:"netlist,omitempty"`

	// Workload-job parameters (ignored for netlist jobs, which carry
	// their own configuration).
	Size            int   `json:"size,omitempty"`
	Seed            int64 `json:"seed,omitempty"`
	Policy          int   `json:"policy,omitempty"` // 0 priority, 1 round-robin
	IssueWidth      int   `json:"issue_width,omitempty"`
	MemLatency      int   `json:"mem_latency,omitempty"`
	ChannelCapacity int   `json:"channel_capacity,omitempty"`
	ChannelLatency  int   `json:"channel_latency,omitempty"`

	// Shards is accepted and ignored. It once requested sharded parallel
	// stepping, which has been removed; the field stays so that requests
	// from older clients still decode (the server rejects unknown
	// fields). It never keyed the result cache.
	Shards int `json:"shards,omitempty"`

	// Compiled is accepted and ignored, like Shards. It once opted a job
	// into compiled stepping, which is now how every fabric runs; the
	// field stays so that requests from older clients still decode. It
	// never keyed the result cache.
	Compiled bool `json:"compiled,omitempty"`

	// MaxCycles bounds the simulation; 0 uses the server default. The
	// server-configured ceiling always applies.
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// DeadlineMs is a per-job wall-clock deadline in milliseconds; 0
	// means no job-level deadline (the client disconnecting still
	// cancels). Expiry stops the simulation mid-flight.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Trace requests a Chrome trace-event capture of every instruction
	// fire, returned inline in the result.
	Trace bool `json:"trace,omitempty"`
	// NoCache bypasses the completed-result cache (the run still
	// populates it), for determinism checks against cached results.
	NoCache bool `json:"no_cache,omitempty"`

	// Faults, when set on a workload job, runs a seeded fault-injection
	// campaign instead of a single simulation: Runs perturbed executions
	// are classified against the fault-free golden run and the result
	// carries a Campaign taxonomy summary. Campaign results bypass the
	// result cache. Netlist jobs reject the option.
	Faults *FaultCampaignRequest `json:"faults,omitempty"`

	// JobID, when set, names the job instead of letting the server mint
	// a "job-NNNNNN" identifier. Fleet coordinators use it so one job
	// keeps a single identity across workers: status lookups, checkpoint
	// snapshots and journal records are all keyed by it, and a migrated
	// job resumes on its new worker under the same name. IDs must match
	// [A-Za-z0-9._-]{1,64}; an ID naming a job that is still queued or
	// running on this server is rejected.
	JobID string `json:"job_id,omitempty"`

	// ResumeSnapshot carries a fabric snapshot (as served by
	// GET /v1/jobs/{id}/snapshot) that this job restores from before
	// stepping — the snapshot-import half of job migration. Snapshots
	// are fingerprint-guarded and self-describing, so a snapshot that
	// does not match this job's assembled program is discarded and the
	// job runs from cycle zero (migration must never wedge a job that
	// can be recomputed). Incompatible with Trace and Faults, whose
	// state lives outside the fabric. JSON carries it base64-encoded.
	ResumeSnapshot []byte `json:"resume_snapshot,omitempty"`
}

// FaultCampaignRequest configures a resilience campaign (see
// internal/faults for the fault model). A plan with only timing faults
// (jitter, stalls, freezes) asserts latency-insensitivity: every run
// must be byte-identical to the golden run, and any divergence fails the
// job with a verify error. Plans with data-fault rates classify each run
// into the masked / detected / SDC / hang taxonomy instead.
type FaultCampaignRequest struct {
	// Runs is the number of perturbed executions (default 10, capped by
	// the server).
	Runs int `json:"runs,omitempty"`
	// Seed bases the per-run plan seeds (run r uses Seed+r).
	Seed int64 `json:"seed,omitempty"`
	// Sites is a substring filter on channel/element names ("" = all).
	Sites string `json:"sites,omitempty"`
	// FromCycle/ToCycle bound the active window; ToCycle 0 anchors to
	// the golden run's cycle count.
	FromCycle int64 `json:"from_cycle,omitempty"`
	ToCycle   int64 `json:"to_cycle,omitempty"`

	JitterRate float64 `json:"jitter_rate,omitempty"`
	JitterMax  int     `json:"jitter_max,omitempty"`
	Stalls     int     `json:"stalls,omitempty"`
	StallMax   int     `json:"stall_max,omitempty"`
	Freezes    int     `json:"freezes,omitempty"`
	FreezeMax  int     `json:"freeze_max,omitempty"`

	FlipRate float64 `json:"flip_rate,omitempty"`
	DropRate float64 `json:"drop_rate,omitempty"`
	DupRate  float64 `json:"dup_rate,omitempty"`

	// Lanes is accepted and ignored, like JobRequest.Shards. It once set
	// how many instances a campaign stepped in lockstep; every campaign
	// now re-arms one instance run after run. The field stays so that
	// requests from older clients still decode (the server rejects
	// unknown fields).
	Lanes int `json:"lanes,omitempty"`
}

// CampaignSummary is the aggregate outcome taxonomy of a fault campaign.
type CampaignSummary struct {
	Runs     int   `json:"runs"`
	Masked   int   `json:"masked"`
	Detected int   `json:"detected"`
	SDC      int   `json:"sdc"`
	Hang     int   `json:"hang"`
	Injected int64 `json:"injected"`
	// GoldenCycles is the fault-free cycle count runs were compared to.
	GoldenCycles int64 `json:"golden_cycles"`
	// Timing marks a latency-insensitivity campaign (timing faults only,
	// every run required to mask).
	Timing bool `json:"timing,omitempty"`
}

// ElementStats is one processing element's utilization breakdown.
type ElementStats struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"` // "pe", "pcpe" or "scratchpad"
	Fired       int64   `json:"fired"`
	Occupancy   float64 `json:"occupancy"`
	InputStall  float64 `json:"input_stall"`
	OutputStall float64 `json:"output_stall"`
	Idle        float64 `json:"idle"`
	Penalty     float64 `json:"penalty,omitempty"` // pcpe: taken-branch penalty share
	Reads       int64   `json:"reads,omitempty"`
	Writes      int64   `json:"writes,omitempty"`
}

// JobResult is a completed job's payload.
type JobResult struct {
	// ID identifies the execution that produced this result; cache hits
	// carry the ID of the job that originally simulated.
	ID string `json:"id"`
	// Key is the content-addressed result-cache key: a stable hash of
	// the assembled program and every behaviour-affecting parameter.
	Key string `json:"key"`
	// Fingerprint is the assembled program's stable hash (netlist
	// fingerprint, or the workload kernel's program hash).
	Fingerprint string `json:"fingerprint"`
	// Cached reports that the result was served from the result cache.
	Cached bool `json:"cached"`

	Cycles    int64 `json:"cycles"`
	Completed bool  `json:"completed"`
	// Verified reports that the output was checked token-for-token
	// against the golden Go reference (workload jobs only).
	Verified bool `json:"verified,omitempty"`

	// Sinks maps each sink to the tokens it received, rendered in the
	// netlist token syntax ("7", "3#2", eod as "0#1").
	Sinks map[string][]string `json:"sinks"`

	Elements []ElementStats `json:"elements,omitempty"`

	// Trace is the Chrome trace-event JSON, when requested.
	Trace json.RawMessage `json:"trace,omitempty"`

	// Campaign is the fault-campaign taxonomy, for jobs submitted with
	// Faults set.
	Campaign *CampaignSummary `json:"campaign,omitempty"`
}

// ErrorKind classifies job failures for programmatic handling.
type ErrorKind string

const (
	// ErrBadRequest rejects a malformed submission.
	ErrBadRequest ErrorKind = "bad_request"
	// ErrCompile covers netlist parse and program build failures.
	ErrCompile ErrorKind = "compile"
	// ErrCancelled reports a job stopped because its context was
	// cancelled (client disconnect or server drain).
	ErrCancelled ErrorKind = "cancelled"
	// ErrDeadline reports a job stopped by its own deadline.
	ErrDeadline ErrorKind = "deadline"
	// ErrDeadlock reports a fabric that reached a fixed point with
	// unfinished sinks: nothing can fire again, though tokens may still
	// be queued in front of consumers that will never take them.
	ErrDeadlock ErrorKind = "deadlock"
	// ErrCycleBudget reports a simulation that exhausted MaxCycles.
	ErrCycleBudget ErrorKind = "cycle_budget"
	// ErrVerify reports a workload whose output mismatched the golden
	// reference.
	ErrVerify ErrorKind = "verify"
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining ErrorKind = "draining"
	// ErrBusy rejects a submission because the job queue is full; the
	// HTTP layer answers 429 with a Retry-After hint instead of queueing
	// without bound.
	ErrBusy ErrorKind = "busy"
	// ErrNotFound reports a job-status or snapshot lookup for an ID this
	// server does not know.
	ErrNotFound ErrorKind = "not_found"
	// ErrConflict rejects a submission whose JobID names a job that is
	// still queued or running on this server (HTTP 409). A coordinator
	// seeing it during failover knows the job is already alive right
	// there and should reattach to it instead of failing the client.
	ErrConflict ErrorKind = "conflict"
	// ErrUnavailable reports that no worker could take the job — the
	// fleet coordinator's analogue of draining, surfaced as 503 with a
	// Retry-After hint.
	ErrUnavailable ErrorKind = "unavailable"
	// ErrResourceLimit rejects a job whose modeled resource footprint
	// exceeds the server's per-job or whole-server budget (HTTP 422,
	// see internal/limits). Deterministic for failover purposes: every
	// correctly configured node would reject the same job.
	ErrResourceLimit ErrorKind = "resource_limit"
	// ErrInternal is everything else.
	ErrInternal ErrorKind = "internal"
)

// JobError is the typed error the service reports for every failed job —
// cycle-budget exhaustion and deadlock included, so truncated
// simulations are never silently reported as results.
type JobError struct {
	Kind    ErrorKind `json:"kind"`
	Message string    `json:"message"`
	// Cycles is how far the simulation got before failing (0 if it
	// never started).
	Cycles int64 `json:"cycles,omitempty"`
	// RetryAfter, when positive, hints how long the client should wait
	// before resubmitting (busy rejections). It travels as the HTTP
	// Retry-After header rather than in the JSON body.
	RetryAfter time.Duration `json:"-"`
}

// Error implements error.
func (e *JobError) Error() string {
	return fmt.Sprintf("%s: %s", e.Kind, e.Message)
}

// jobErrorf builds a JobError.
func jobErrorf(kind ErrorKind, format string, args ...any) *JobError {
	return &JobError{Kind: kind, Message: fmt.Sprintf(format, args...)}
}

// drainRetryAfter is the resubmission hint attached to draining
// rejections: a drain usually means a restart or a rolling replacement,
// so the client should come back on the order of seconds — like the 429
// path, the hint travels as the HTTP Retry-After header.
const drainRetryAfter = 2 * time.Second

// drainingError builds the typed draining rejection, Retry-After hint
// included, so every rejection site (HTTP handler, Submit, scheduler)
// sheds load with the same shape the busy path uses.
func drainingError() *JobError {
	je := jobErrorf(ErrDraining, "server is draining; not accepting jobs")
	je.RetryAfter = drainRetryAfter
	return je
}

// DeadlineHeader carries the submitter's remaining wall-clock budget in
// milliseconds on POST /v1/jobs. A coordinator that has already burned
// part of a job's deadline on failed attempts sets it so the worker
// never runs past what the original caller will wait for; the server
// folds it into the request's DeadlineMs, keeping whichever is sooner.
const DeadlineHeader = "X-Tia-Deadline-Ms"

// Job lifecycle states reported by GET /v1/jobs/{id}.
const (
	// JobStateQueued: accepted, waiting for a worker slot.
	JobStateQueued = "queued"
	// JobStateRunning: executing right now.
	JobStateRunning = "running"
	// JobStateCompleted: finished with a result.
	JobStateCompleted = "completed"
	// JobStateFailed: finished with a typed error (cancellation and
	// deadline expiry included — the lookup carries the error).
	JobStateFailed = "failed"
)

// JobStatus is the GET /v1/jobs/{id} payload: where a job is in its
// lifecycle, its latest persisted checkpoint, and — once terminal — the
// result or error it finished with. Coordinators use it to re-find jobs
// whose submission connection broke without re-running them.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// CheckpointCycle is the cycle of the latest persisted checkpoint
	// snapshot (0 when none has been written yet).
	CheckpointCycle int64 `json:"checkpoint_cycle,omitempty"`
	// Result is set once State is "completed".
	Result *JobResult `json:"result,omitempty"`
	// Error is set once State is "failed".
	Error *JobError `json:"error,omitempty"`
}

// WorkloadInfo describes one runnable kernel (GET /v1/workloads).
type WorkloadInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	DefaultSize int    `json:"default_size"`
}
