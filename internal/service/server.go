package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"tia/internal/limits"
	"tia/internal/workloads"
)

// Config tunes the daemon.
type Config struct {
	// Workers bounds concurrent simulations (the serving-layer analogue
	// of core.MaxWorkers); 0 means GOMAXPROCS.
	Workers int
	// QueueCap bounds jobs waiting for a worker; submissions beyond it
	// block (backpressure). 0 means 4x workers.
	QueueCap int
	// ResultCacheEntries bounds the completed-result cache.
	ResultCacheEntries int
	// DefaultMaxCycles is the netlist-job cycle budget when the request
	// names none; MaxCyclesCap is the hard per-job ceiling.
	DefaultMaxCycles int64
	MaxCyclesCap     int64
	// TraceEventLimit bounds Chrome-trace captures (0 = unlimited).
	TraceEventLimit int
	// MaxRequestBytes bounds the request body.
	MaxRequestBytes int64
	// Limits are the per-job and whole-server resource budgets netlist
	// jobs are cost-modeled against before construction (see
	// internal/limits). Zero values mean unlimited.
	Limits limits.Limits

	// JournalPath, when set, enables crash-safe job durability: every
	// accepted job is recorded in a write-ahead journal (fsync'd,
	// CRC-framed) and a restarted daemon replays it — completed results
	// are served from cache, unfinished jobs re-run, checkpointed runs
	// resume from their latest snapshot.
	JournalPath string
	// SnapshotDir holds per-job fabric snapshots; empty defaults to
	// "<JournalPath>.snapshots".
	SnapshotDir string
	// CheckpointEvery is the snapshot cadence in simulated cycles for
	// journaled single-simulation jobs; 0 defaults to 1,000,000,
	// negative disables checkpointing (the journal still makes the job
	// re-runnable from scratch).
	CheckpointEvery int64
}

// DefaultConfig returns production-shaped defaults.
func DefaultConfig() Config {
	return Config{
		Workers:            0, // GOMAXPROCS
		QueueCap:           0, // 4x workers
		ResultCacheEntries: 1024,
		DefaultMaxCycles:   1_000_000,
		MaxCyclesCap:       100_000_000,
		TraceEventLimit:    1 << 20,
		MaxRequestBytes:    8 << 20,
	}
}

// Server is the simulation service: scheduler, result cache, metrics
// and the HTTP handler around them.
type Server struct {
	cfg      Config
	metrics  *Metrics
	results  *cache
	sched    *scheduler
	tracker  *jobTracker
	governor *limits.Governor
	mux      *http.ServeMux
	draining atomic.Bool
	jobSeq   atomic.Int64
	dur      durability
}

// trackedTerminalJobs bounds how many finished jobs GET /v1/jobs/{id}
// can still answer for; live (queued/running) jobs are always tracked.
const trackedTerminalJobs = 4096

// validJobID constrains client-supplied job identifiers: they key
// journal records and checkpoint snapshot filenames, so they must be
// filesystem-safe and bounded.
var validJobID = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// New builds a ready-to-serve Server. With Config.JournalPath set it
// opens (or creates) the write-ahead job journal, truncates any torn
// tail left by a crash, and replays unfinished jobs in the background
// (see WaitRecovered).
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4 * cfg.Workers
	}
	if cfg.ResultCacheEntries <= 0 {
		cfg.ResultCacheEntries = 1024
	}
	if cfg.DefaultMaxCycles <= 0 {
		cfg.DefaultMaxCycles = 1_000_000
	}
	if cfg.MaxCyclesCap <= 0 {
		cfg.MaxCyclesCap = 100_000_000
	}
	if cfg.MaxRequestBytes <= 0 {
		cfg.MaxRequestBytes = 8 << 20
	}
	if cfg.JournalPath != "" {
		if cfg.SnapshotDir == "" {
			cfg.SnapshotDir = cfg.JournalPath + ".snapshots"
		}
		if cfg.CheckpointEvery == 0 {
			cfg.CheckpointEvery = 1_000_000
		}
	}
	s := &Server{
		cfg:     cfg,
		metrics: &Metrics{},
		results: newCache(cfg.ResultCacheEntries),
	}
	s.sched = newScheduler(cfg.Workers, cfg.QueueCap, s.metrics, s.runRecorded)
	s.tracker = newJobTracker(trackedTerminalJobs)
	s.governor = limits.NewGovernor(cfg.Limits)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/snapshot", s.handleJobSnapshot)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.JournalPath != "" {
		if err := os.MkdirAll(cfg.SnapshotDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: snapshot dir: %w", err)
		}
		j, recs, err := openJournal(cfg.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		s.dur.journal = j
		s.dur.snapshotDir = cfg.SnapshotDir
		s.recoverFromJournal(recs)
	}
	return s, nil
}

// Handler returns the HTTP handler (also usable under httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's counters (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// nextJobID mints a monotonically increasing job identifier.
func (s *Server) nextJobID() string {
	return fmt.Sprintf("job-%06d", s.jobSeq.Add(1))
}

// Drain stops accepting jobs and waits for in-flight ones to finish.
// It is idempotent; /healthz reports "draining" from the first call.
// Journal replays still running are refused by the scheduler and stay
// pending in the journal for the next start.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.sched.close()
	if s.dur.journal != nil {
		s.dur.replay.Wait()
		_ = s.dur.journal.close()
	}
}

// Submit runs one job through the scheduler, outside HTTP (tests,
// embedding). The context carries cancellation and any deadline. The
// job is journaled as accepted before it is queued, so a crash after
// Submit returns an ID cannot lose the job.
func (s *Server) Submit(ctx context.Context, req *JobRequest) (*JobResult, error) {
	if s.draining.Load() {
		return nil, drainingError()
	}
	if len(req.ResumeSnapshot) > 0 && (req.Trace || req.Faults != nil) {
		return nil, jobErrorf(ErrBadRequest, "resume_snapshot is incompatible with trace and fault-campaign jobs")
	}
	if req.MaxCycles < 0 {
		return nil, jobErrorf(ErrBadRequest, "max_cycles %d: must be non-negative (0 means the server default)", req.MaxCycles)
	}
	id := req.JobID
	if id == "" {
		id = s.nextJobID()
	} else if !validJobID.MatchString(id) {
		return nil, jobErrorf(ErrBadRequest, "job_id %q: must match %s", id, validJobID)
	}
	if !s.tracker.begin(id) {
		return nil, jobErrorf(ErrConflict, "job_id %q already names a queued or running job", id)
	}
	if err := s.journalAppend(journalRecord{Kind: recAccepted, ID: id, Req: req}); err != nil {
		return nil, jobErrorf(ErrInternal, "journal: %v", err)
	}
	return s.submitExisting(ctx, id, req)
}

// submitExisting pushes an already-journaled job (fresh or replayed)
// through the scheduler. A queue-full rejection is journaled as
// terminal — the client was told to resubmit, so restart must not
// replay it. A draining rejection stays pending on purpose: jobs
// refused mid-shutdown re-run when the daemon comes back.
func (s *Server) submitExisting(ctx context.Context, id string, req *JobRequest) (*JobResult, error) {
	s.tracker.begin(id) // no-op when Submit already registered the job
	if len(req.ResumeSnapshot) > 0 {
		s.stageResume(id, req.ResumeSnapshot)
	}
	if req.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMs)*time.Millisecond)
		defer cancel()
	}
	res, err := s.sched.submit(ctx, id, req)
	if err != nil {
		var je *JobError
		if errors.As(err, &je) && je.Kind == ErrBusy {
			s.journalTerminal(journalRecord{Kind: recFailed, ID: id, Error: je})
		}
	}
	s.trackOutcome(id, res, err)
	return res, err
}

// trackOutcome folds a finished submission into the status tracker so
// GET /v1/jobs/{id} keeps answering after the submitter is gone. A
// draining rejection stays queued in the tracker on purpose — the job
// is still pending in the journal and re-runs on restart.
func (s *Server) trackOutcome(id string, res *JobResult, err error) {
	if err == nil {
		s.tracker.finish(id, res, nil)
		return
	}
	var je *JobError
	if !errors.As(err, &je) {
		je = jobErrorf(ErrInternal, "%v", err)
	}
	if je.Kind == ErrDraining {
		return
	}
	s.tracker.finish(id, nil, je)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, drainingError())
		return
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, jobErrorf(ErrBadRequest, "decode request: %v", err))
		return
	}
	applyDeadlineHeader(r, &req)
	res, err := s.Submit(r.Context(), &req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleJobStatus answers GET /v1/jobs/{id}: the job's lifecycle state,
// latest checkpoint cycle, and its result or error once terminal.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.tracker.get(id)
	if !ok {
		writeError(w, jobErrorf(ErrNotFound, "unknown job %q", id))
		return
	}
	s.metrics.StatusLookups.Add(1)
	writeJSON(w, http.StatusOK, st)
}

// handleJobSnapshot serves a job's latest persisted checkpoint snapshot
// as raw bytes — the snapshot-export half of job migration. The
// snapshot is self-describing and fingerprint-guarded (see
// fabric.Snapshot), so the importer can verify it belongs to the same
// program. 404 until the job's first checkpoint lands, or when
// durability (and with it checkpointing) is off.
func (s *Server) handleJobSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validJobID.MatchString(id) {
		writeError(w, jobErrorf(ErrBadRequest, "job id %q: must match %s", id, validJobID))
		return
	}
	if s.dur.snapshotDir == "" {
		writeError(w, jobErrorf(ErrNotFound, "checkpointing is not enabled on this server"))
		return
	}
	snap, err := os.ReadFile(s.snapshotPath(id))
	if err != nil {
		writeError(w, jobErrorf(ErrNotFound, "no checkpoint snapshot for job %q", id))
		return
	}
	s.metrics.SnapshotExports.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(snap)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	var out []WorkloadInfo
	for _, spec := range workloads.All() {
		out = append(out, WorkloadInfo{
			Name:        spec.Name,
			Description: spec.Description,
			DefaultSize: spec.DefaultSize,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// Health is the /healthz JSON body. It is exported so fleet
// coordinators (and other probers) can decode it with the same type the
// server encodes.
type Health struct {
	// Status is "ok" or "draining".
	Status string `json:"status"`
	// QueueDepth and Running mirror the tia_job_queue_depth /
	// tia_jobs_running gauges.
	QueueDepth int64 `json:"queue_depth"`
	Running    int64 `json:"running"`
	// Journal reports whether crash-safe durability is enabled;
	// JournalLag counts journaled jobs with no recorded outcome yet.
	Journal    bool  `json:"journal"`
	JournalLag int64 `json:"journal_lag"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := Health{
		Status:     "ok",
		QueueDepth: s.metrics.QueueDepth.Load(),
		Running:    s.metrics.Running.Load(),
		Journal:    s.dur.journal != nil,
		JournalLag: s.JournalLag(),
	}
	code := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}

// applyDeadlineHeader folds the X-Tia-Deadline-Ms header into the
// request's DeadlineMs, keeping whichever budget is sooner. A malformed
// or non-positive header is ignored — an upstream with a broken clock
// must degrade to "no extra bound", not reject jobs.
func applyDeadlineHeader(r *http.Request, req *JobRequest) {
	v := r.Header.Get(DeadlineHeader)
	if v == "" {
		return
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return
	}
	if req.DeadlineMs == 0 || ms < req.DeadlineMs {
		req.DeadlineMs = ms
	}
}

// httpStatus maps typed job errors onto HTTP status codes.
func httpStatus(kind ErrorKind) int {
	switch kind {
	case ErrBadRequest, ErrCompile:
		return http.StatusBadRequest
	case ErrDeadline:
		return http.StatusGatewayTimeout
	case ErrCancelled:
		return 499 // client closed request (nginx convention)
	case ErrDeadlock, ErrCycleBudget, ErrVerify, ErrResourceLimit:
		return http.StatusUnprocessableEntity
	case ErrDraining, ErrUnavailable:
		return http.StatusServiceUnavailable
	case ErrBusy:
		return http.StatusTooManyRequests
	case ErrNotFound:
		return http.StatusNotFound
	case ErrConflict:
		return http.StatusConflict
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, err error) {
	var je *JobError
	if !errors.As(err, &je) {
		je = jobErrorf(ErrInternal, "%v", err)
	}
	if je.RetryAfter > 0 {
		secs := int64((je.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, httpStatus(je.Kind), map[string]*JobError{"error": je})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError renders err in the service's wire shape — typed JobErrors
// keep their kind/status mapping and Retry-After hint, anything else
// becomes an internal error. Exported for the fleet coordinator, whose
// endpoints speak the same error protocol as the workers they front.
func WriteError(w http.ResponseWriter, err error) { writeError(w, err) }

// WriteJSON renders v as the service's indented JSON. Exported for the
// fleet coordinator.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

// DrainingError returns the typed draining rejection (503 + Retry-After
// hint) — exported so the coordinator sheds load with the same shape.
func DrainingError() *JobError { return drainingError() }
