package service_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"tia/internal/service"
)

// counterNetlist counts a register down from k and emits the final
// value: a job whose wall-clock scales with k (k+5 cycles) while its
// fabric state stays a few hundred bytes — the ideal migration subject,
// long enough to checkpoint mid-run, small enough to ship inline.
func counterNetlist(k int64) string {
	return fmt.Sprintf(`
source go : %d eod
sink out

pe cnt
in g
out o
reg k
pred run done

ld:   when !run !done g.tag==0 : mov k, g ; deq g ; set run
dec:  when run : sub k, p:run, k, #1
emit: when !run !done g.tag==eod : mov o, k ; deq g ; set done
fin:  when done : halt o#eod
end

wire go.0 -> cnt.g
wire cnt.o -> out.0
`, k)
}

// TestJobStatusLookup: GET /v1/jobs/{id} answers for client-named jobs
// after completion, 404s for unknown IDs, and a terminal ID is reusable
// while a live one is not.
func TestJobStatusLookup(t *testing.T) {
	svc := newServer(t, testConfig())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	cl := &service.Client{BaseURL: ts.URL}

	if _, err := svc.Submit(context.Background(), &service.JobRequest{Workload: "dmm", JobID: "st-1"}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err := cl.Status(context.Background(), "st-1")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.State != service.JobStateCompleted || st.Result == nil {
		t.Fatalf("status = %+v, want completed with result", st)
	}
	if st.Result.Cycles != 1221 {
		t.Errorf("status result cycles = %d, want 1221", st.Result.Cycles)
	}

	if _, err := cl.Status(context.Background(), "no-such-job"); err == nil {
		t.Fatal("status of unknown job succeeded")
	} else if je, ok := err.(*service.JobError); !ok || je.Kind != service.ErrNotFound {
		t.Fatalf("unknown job error = %v, want kind not_found", err)
	}

	// A terminal ID may be reused; a queued/running one is rejected.
	done := make(chan error, 1)
	go func() {
		_, err := svc.Submit(context.Background(), &service.JobRequest{
			Netlist: counterNetlist(10_000_000), MaxCycles: 20_000_000, JobID: "st-live",
		})
		done <- err
	}()
	waitState(t, cl, "st-live", service.JobStateRunning)
	if je := submitErr(t, svc, &service.JobRequest{Workload: "dmm", JobID: "st-live"}); je.Kind != service.ErrConflict {
		t.Errorf("duplicate live job_id error kind = %s, want conflict", je.Kind)
	}
	if _, err := svc.Submit(context.Background(), &service.JobRequest{Workload: "dmm", JobID: "st-1"}); err != nil {
		t.Errorf("reusing terminal job_id: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("long job: %v", err)
	}
}

// waitState polls until the job reaches the wanted state (or any
// terminal one).
func waitState(t *testing.T, cl *service.Client, id, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := cl.Status(context.Background(), id)
		if err == nil && (st.State == want || st.State == service.JobStateCompleted || st.State == service.JobStateFailed) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
}

// TestDrainingRetryAfter: the 503 draining rejection must carry a
// Retry-After hint exactly like the 429 busy path, and the health probe
// must still decode.
func TestDrainingRetryAfter(t *testing.T) {
	svc := newServer(t, testConfig())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	svc.Drain()

	status, _, jerr := postJob(t, ts.Client(), ts.URL, &service.JobRequest{Workload: "dmm"})
	if status != http.StatusServiceUnavailable || jerr == nil || jerr.Kind != service.ErrDraining {
		t.Fatalf("draining submit: status %d err %+v, want 503 draining", status, jerr)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", nil)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 draining response has no Retry-After header")
	}

	h, err := (&service.Client{BaseURL: ts.URL}).Healthz(context.Background())
	if err != nil {
		t.Fatalf("healthz during drain: %v", err)
	}
	if h.Status != "draining" {
		t.Errorf("healthz status = %q, want draining", h.Status)
	}
}

// TestResumeSnapshotImport: a checkpoint snapshot exported from one
// server mid-run resumes on a different server (no shared disk, no
// journal there) and completes identically — the two halves of the
// fleet's migration protocol, exercised without a coordinator.
func TestResumeSnapshotImport(t *testing.T) {
	const k = 5_000_000
	src := counterNetlist(k)

	cfgA := testConfig()
	cfgA.JournalPath = filepath.Join(t.TempDir(), "journal.wal")
	cfgA.CheckpointEvery = 100_000
	svcA := newServer(t, cfgA)
	tsA := httptest.NewServer(svcA.Handler())
	defer tsA.Close()
	clA := &service.Client{BaseURL: tsA.URL}

	type outcome struct {
		res *service.JobResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := svcA.Submit(context.Background(), &service.JobRequest{
			Netlist: src, MaxCycles: 2 * k, JobID: "res-src",
		})
		done <- outcome{res, err}
	}()

	// Poll the export endpoint mid-run, like a coordinator would.
	var snap []byte
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s, err := clA.FetchSnapshot(context.Background(), "res-src")
		if err != nil {
			t.Fatalf("fetch snapshot: %v", err)
		}
		if len(s) > 0 {
			snap = s
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if snap == nil {
		t.Fatal("no checkpoint snapshot appeared mid-run")
	}
	ref := <-done
	if ref.err != nil {
		t.Fatalf("source run: %v", ref.err)
	}
	if want := int64(k + 5); ref.res.Cycles != want {
		t.Fatalf("source run cycles = %d, want %d", ref.res.Cycles, want)
	}

	// A second, journal-less server imports the snapshot and must land
	// on the identical result.
	svcB := newServer(t, testConfig())
	res, err := svcB.Submit(context.Background(), &service.JobRequest{
		Netlist: src, MaxCycles: 2 * k, JobID: "res-dst", ResumeSnapshot: snap,
	})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if svcB.Metrics().JobsResumed.Load() != 1 {
		t.Errorf("jobs_resumed = %d, want 1 (snapshot was not actually restored)", svcB.Metrics().JobsResumed.Load())
	}
	if res.Cycles != ref.res.Cycles || !res.Completed || !res.Verified && ref.res.Verified {
		t.Errorf("resumed result diverged: cycles %d vs %d", res.Cycles, ref.res.Cycles)
	}
	if fmt.Sprint(res.Sinks) != fmt.Sprint(ref.res.Sinks) {
		t.Errorf("resumed sinks %v differ from reference %v", res.Sinks, ref.res.Sinks)
	}

	// Incompatibility guard: resume plus trace is rejected up front.
	if je := submitErr(t, svcB, &service.JobRequest{
		Netlist: src, JobID: "res-bad", ResumeSnapshot: snap, Trace: true,
	}); je.Kind != service.ErrBadRequest {
		t.Errorf("resume+trace error kind = %s, want bad_request", je.Kind)
	}
}
