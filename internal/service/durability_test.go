package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tia/internal/asm"
	"tia/internal/fabric"
	"tia/internal/workloads"
)

// durableConfig returns a journaled test configuration rooted in dir.
func durableConfig(dir string) Config {
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.JournalPath = filepath.Join(dir, "jobs.journal")
	return cfg
}

// normalizedResult renders a result for byte-equality comparison,
// ignoring the per-submission identity and cache provenance.
func normalizedResult(t *testing.T, r *JobResult) []byte {
	t.Helper()
	c := *r
	c.ID = ""
	c.Cached = false
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

// baselineRun executes req on a journal-less server: the uninterrupted
// reference every crash-recovery scenario must reproduce byte-for-byte.
func baselineRun(t *testing.T, req *JobRequest) *JobResult {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = 2
	svc := mustNew(t, cfg)
	defer svc.Drain()
	res, err := svc.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	return res
}

// craftCrashState fabricates the on-disk residue of a daemon killed
// mid-job: a journal whose last records for id are non-terminal, plus —
// when mid > 0 — a genuine checkpoint snapshot of the workload's fabric
// stopped at cycle mid, exactly as a crashed worker would have left it.
func craftCrashState(t *testing.T, cfg Config, id string, req *JobRequest, mid int64) {
	t.Helper()
	snapDir := cfg.JournalPath + ".snapshots"
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		t.Fatal(err)
	}
	j, recs := openTestJournal(t, cfg.JournalPath)
	defer j.Close()
	if len(recs) != 0 {
		t.Fatalf("crafting over a non-empty journal (%d records)", len(recs))
	}
	mustAppend(t, j, JournalRecord{Kind: RecAccepted, ID: id, Req: req})
	if mid <= 0 {
		return
	}
	file := filepath.Join(snapDir, id+".snap")
	if err := os.WriteFile(file, snapshotAt(t, req, mid), 0o644); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, JournalRecord{Kind: RecCheckpointed, ID: id, Cycles: mid, File: file})
}

// snapshotAt returns a genuine snapshot of req's workload fabric stopped
// at cycle mid.
func snapshotAt(t *testing.T, req *JobRequest, mid int64) []byte {
	t.Helper()
	// Reproduce the mid-flight fabric the way runWorkloadJob builds it,
	// including the assembled-form fingerprint the snapshot is keyed by.
	spec, err := workloads.ByName(req.Workload)
	if err != nil {
		t.Fatalf("workload %s: %v", req.Workload, err)
	}
	p := spec.Normalize(workloadParams(req))
	inst, err := spec.BuildTIA(p)
	if err != nil {
		t.Fatalf("build %s: %v", req.Workload, err)
	}
	fp := ""
	for _, pr := range inst.PEs {
		fp += asm.HashTIAProgram(pr.Program())
	}
	fingerprint := hashString(fp)
	if _, err := inst.Fabric.RunContext(context.Background(), mid); !errors.Is(err, fabric.ErrTimeout) {
		t.Fatalf("mid-flight run stopped with %v, want cycle-budget stop (pick a smaller mid)", err)
	}
	snap, err := inst.Fabric.Snapshot(fingerprint)
	if err != nil {
		t.Fatalf("snapshot at cycle %d: %v", mid, err)
	}
	return snap
}

// TestRestartReplaysInterruptedJob is the crash-recovery acceptance
// test: a job accepted but never finished (the journal of a
// kill -9'd daemon) is re-run on restart under its original ID, and the
// replayed result is byte-identical to an uninterrupted run.
func TestRestartReplaysInterruptedJob(t *testing.T) {
	req := &JobRequest{Workload: "dmm"}
	want := baselineRun(t, req)

	cfg := durableConfig(t.TempDir())
	craftCrashState(t, cfg, "job-000007", req, 0)
	svc := mustNew(t, cfg)
	defer svc.Drain()
	svc.WaitRecovered()

	if got := svc.Metrics().JobsReplayed.Load(); got != 1 {
		t.Errorf("JobsReplayed = %d, want 1", got)
	}
	if lag := svc.JournalLag(); lag != 0 {
		t.Errorf("journal lag after recovery = %d, want 0", lag)
	}
	// The replayed run landed in the content-addressed result cache.
	got, err := svc.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("post-recovery submit: %v", err)
	}
	if !got.Cached {
		t.Error("replayed result not served from cache")
	}
	if !bytes.Equal(normalizedResult(t, got), normalizedResult(t, want)) {
		t.Errorf("replayed result diverges from uninterrupted run:\n%s\n%s",
			normalizedResult(t, got), normalizedResult(t, want))
	}
	// The cached result carries the replayed job's original identity.
	if got.ID != "job-000007" {
		t.Errorf("replayed result ID = %s, want the original job-000007", got.ID)
	}
	// The ID sequence resumed past the replayed ID: no collisions. (The
	// cache hit above consumed job-000008.)
	fresh, err := svc.Submit(context.Background(), &JobRequest{Workload: "dmm", NoCache: true})
	if err != nil {
		t.Fatalf("no-cache submit: %v", err)
	}
	if fresh.ID != "job-000009" {
		t.Errorf("post-recovery fresh job ID = %s, want job-000009", fresh.ID)
	}

	// The journal now records the replayed outcome: a second restart
	// replays nothing and serves the result straight from the journal.
	svc.Drain()
	svc2 := mustNew(t, cfg)
	defer svc2.Drain()
	svc2.WaitRecovered()
	if got := svc2.Metrics().JobsReplayed.Load(); got != 0 {
		t.Errorf("second restart replayed %d jobs, want 0", got)
	}
	again, err := svc2.Submit(context.Background(), req)
	if err != nil || !again.Cached {
		t.Fatalf("second restart lost the result: %+v, %v", again, err)
	}
	if !bytes.Equal(normalizedResult(t, again), normalizedResult(t, want)) {
		t.Error("journal-repopulated result diverges from uninterrupted run")
	}
}

// TestRestartResumesFromCheckpoint crafts a crash after a persisted
// checkpoint and proves the restarted daemon resumed rather than
// re-ran: the result matches the uninterrupted run byte-for-byte while
// only the post-checkpoint cycles were simulated.
func TestRestartResumesFromCheckpoint(t *testing.T) {
	const mid = 600
	req := &JobRequest{Workload: "dmm"}
	want := baselineRun(t, req) // dmm runs 1221 cycles; mid must be before that

	cfg := durableConfig(t.TempDir())
	craftCrashState(t, cfg, "job-000003", req, mid)
	svc := mustNew(t, cfg)
	defer svc.Drain()
	svc.WaitRecovered()

	got, err := svc.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("post-recovery submit: %v", err)
	}
	if !got.Cached || !bytes.Equal(normalizedResult(t, got), normalizedResult(t, want)) {
		t.Errorf("resumed result diverges from uninterrupted run (cached=%v):\n%s\n%s",
			got.Cached, normalizedResult(t, got), normalizedResult(t, want))
	}
	// Resume proof: the counter counts simulated cycles, and a resumed
	// run only simulates what the checkpoint had not already covered.
	if cycles := svc.Metrics().CyclesSimulated.Load(); cycles != want.Cycles-mid {
		t.Errorf("CyclesSimulated = %d, want %d (resume from cycle %d of %d)",
			cycles, want.Cycles-mid, mid, want.Cycles)
	}
	// The finished job's checkpoint was cleaned up.
	if _, err := os.Stat(filepath.Join(cfg.JournalPath+".snapshots", "job-000003.snap")); !os.IsNotExist(err) {
		t.Errorf("completed job's snapshot not removed: %v", err)
	}
}

// TestRestartResumesFromNewestState crafts the crash of a migrated job:
// it arrived with a resume snapshot at cycle 300 and checkpointed at
// cycle 600 before the crash. The restart must resume from the newer
// checkpoint, not from the request's older snapshot.
func TestRestartResumesFromNewestState(t *testing.T) {
	const migrated, mid = 300, 600
	want := baselineRun(t, &JobRequest{Workload: "dmm"})

	req := &JobRequest{Workload: "dmm"}
	req.ResumeSnapshot = snapshotAt(t, req, migrated)
	cfg := durableConfig(t.TempDir())
	craftCrashState(t, cfg, "job-000004", req, mid)
	svc := mustNew(t, cfg)
	defer svc.Drain()
	svc.WaitRecovered()

	if got := svc.Metrics().JobsResumed.Load(); got != 1 {
		t.Errorf("JobsResumed = %d, want 1", got)
	}
	if cycles := svc.Metrics().CyclesSimulated.Load(); cycles != want.Cycles-mid {
		t.Errorf("CyclesSimulated = %d, want %d (resume from the checkpoint at cycle %d, not the request's snapshot at %d)",
			cycles, want.Cycles-mid, mid, migrated)
	}
	got, err := svc.Submit(context.Background(), &JobRequest{Workload: "dmm"})
	if err != nil {
		t.Fatalf("post-recovery submit: %v", err)
	}
	if !got.Cached || !bytes.Equal(normalizedResult(t, got), normalizedResult(t, want)) {
		t.Errorf("resumed result diverges from uninterrupted run (cached=%v)", got.Cached)
	}
}

// TestRestartFallsBackOnCorruptSnapshot overwrites the checkpoint with
// garbage: the job must still complete correctly by re-running from
// cycle zero — a bad checkpoint degrades to recomputation, never to a
// failed job.
func TestRestartFallsBackOnCorruptSnapshot(t *testing.T) {
	req := &JobRequest{Workload: "dmm"}
	want := baselineRun(t, req)

	cfg := durableConfig(t.TempDir())
	craftCrashState(t, cfg, "job-000001", req, 600)
	snapFile := filepath.Join(cfg.JournalPath+".snapshots", "job-000001.snap")
	if err := os.WriteFile(snapFile, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := mustNew(t, cfg)
	defer svc.Drain()
	svc.WaitRecovered()

	got, err := svc.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("post-recovery submit: %v", err)
	}
	if !got.Cached || !bytes.Equal(normalizedResult(t, got), normalizedResult(t, want)) {
		t.Error("fallback re-run diverges from uninterrupted run")
	}
	// The whole run was re-simulated: no cycles were skipped.
	if cycles := svc.Metrics().CyclesSimulated.Load(); cycles != want.Cycles {
		t.Errorf("CyclesSimulated = %d, want %d (full re-run)", cycles, want.Cycles)
	}
}

// TestRestartSkipsDeterministicFailures checks that a job whose journal
// records a terminal failure is not replayed: re-running a simulation
// that failed deterministically would fail identically.
func TestRestartSkipsDeterministicFailures(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	j, _ := openTestJournal(t, cfg.JournalPath)
	mustAppend(t, j, JournalRecord{Kind: RecAccepted, ID: "job-000001", Req: &JobRequest{Workload: "nonesuch"}})
	mustAppend(t, j, JournalRecord{Kind: RecFailed, ID: "job-000001", Error: jobErrorf(ErrBadRequest, "no such workload")})
	j.Close()

	svc := mustNew(t, cfg)
	defer svc.Drain()
	svc.WaitRecovered()
	if got := svc.Metrics().JobsReplayed.Load(); got != 0 {
		t.Errorf("JobsReplayed = %d, want 0 (failure is terminal)", got)
	}
	if lag := svc.JournalLag(); lag != 0 {
		t.Errorf("journal lag = %d, want 0", lag)
	}
}

// TestJournaledServerEndToEnd exercises the happy path under
// journaling: jobs run, results cache, and the healthz body reports the
// durability state.
func TestJournaledServerEndToEnd(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	svc := mustNew(t, cfg)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	res, err := svc.Submit(context.Background(), &JobRequest{Workload: "dmm"})
	if err != nil || res.Cycles != 1221 {
		t.Fatalf("journaled dmm run: %+v, %v", res, err)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if h.Status != "ok" || !h.Journal || h.JournalLag != 0 {
		t.Errorf("healthz = %+v, want ok with journal on and zero lag", h)
	}
	svc.Drain()

	// The journal alone (no shared process state) reproduces the result.
	svc2 := mustNew(t, cfg)
	defer svc2.Drain()
	got, err := svc2.Submit(context.Background(), &JobRequest{Workload: "dmm"})
	if err != nil || !got.Cached {
		t.Fatalf("restarted server misses journaled result: %+v, %v", got, err)
	}
	if !bytes.Equal(normalizedResult(t, got), normalizedResult(t, res)) {
		t.Error("journaled result diverges across restart")
	}
}

// TestBusyRejectionCarriesRetryAfterHeader checks the HTTP surface of
// admission control: 429 plus a ceil-seconds Retry-After header.
func TestBusyRejectionCarriesRetryAfterHeader(t *testing.T) {
	rec := httptest.NewRecorder()
	je := jobErrorf(ErrBusy, "job queue full")
	je.RetryAfter = 1500 * time.Millisecond
	writeError(rec, je)
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\" (ceil seconds)", got)
	}
}
