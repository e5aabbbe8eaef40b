package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"tia/internal/service"
)

// TestCoordinatorJournalRecovery: a job whose client (and coordinator)
// die mid-run must be re-driven to completion by a restarted
// coordinator replaying the journal — and a third coordinator on the
// same journal must find nothing left to do.
func TestCoordinatorJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "coord.wal")
	worker := newTestWorker(t, func(cfg *service.Config) {
		cfg.JournalPath = filepath.Join(dir, "w0.wal")
		cfg.CheckpointEvery = 100_000
	})
	const k = 6_000_000
	src := counterNetlist(k)

	mkCoord := func() *Coordinator {
		c, err := New(Config{
			Workers:        []string{worker.ts.URL},
			HeartbeatEvery: time.Hour,
			PollEvery:      5 * time.Millisecond,
			JournalPath:    journal,
			RetryBackoff:   5 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("fleet.New: %v", err)
		}
		return c
	}

	// Coordinator A: accept the job, then the client vanishes mid-run.
	coordA := mkCoord()
	tsA := httptest.NewServer(coordA.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(&service.JobRequest{Netlist: src, MaxCycles: 2 * k, JobID: "dur-1"})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, tsA.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errCh <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for worker.svc.Metrics().Running.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never started on the worker")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel() // the client disconnects; the routing context collapses
	if err := <-errCh; err == nil {
		t.Fatal("cancelled submission returned a response")
	}
	// Give the cancellation a beat to reach the worker, then "crash" the
	// coordinator: no drain, just Close (the journal survives on disk).
	deadline = time.Now().Add(10 * time.Second)
	for worker.svc.Metrics().Running.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never observed the cancellation")
		}
		time.Sleep(2 * time.Millisecond)
	}
	tsA.Close()
	coordA.Close()
	if done := worker.svc.Metrics().JobsCompleted.Load(); done != 0 {
		t.Fatalf("job completed (%d) before the crash; the scenario needs it interrupted", done)
	}

	// Coordinator B: same journal. Replay must re-drive dur-1 to
	// completion with no client attached.
	coordB := mkCoord()
	coordB.WaitRecovered()
	if got := coordB.Metrics().JobsRecovered.Load(); got != 1 {
		t.Fatalf("jobs recovered = %d, want 1", got)
	}
	if done := worker.svc.Metrics().JobsCompleted.Load(); done != 1 {
		t.Fatalf("worker completed %d jobs after recovery, want 1", done)
	}
	// The recovered result is in the worker's tracker: a client
	// resubmission under the same id reattaches to the completed state…
	// and an identical fresh submission hits the result cache.
	tsB := httptest.NewServer(coordB.Handler())
	_, _, res, jerr := postCoordinator(t, tsB.URL, &service.JobRequest{Netlist: src, MaxCycles: 2 * k})
	if jerr != nil {
		t.Fatalf("post-recovery submission: %v", jerr)
	}
	if !res.Cached {
		t.Error("post-recovery identical submission missed the result cache")
	}
	if res.Cycles != k+5 || !res.Completed {
		t.Errorf("recovered result = %d cycles completed=%v, want %d true", res.Cycles, res.Completed, k+5)
	}
	tsB.Close()
	coordB.Close()

	// Coordinator C: the journal now carries dur-1's terminal record, so
	// there is nothing to replay.
	coordC := mkCoord()
	coordC.WaitRecovered()
	if got := coordC.Metrics().JobsRecovered.Load(); got != 0 {
		t.Errorf("third coordinator recovered %d jobs, want 0 (terminal record in journal)", got)
	}
	// And the id sequence resumed past journaled ids: no collisions.
	if id := coordC.nextJobID(); id == "dur-1" {
		t.Errorf("id sequence collision: %s", id)
	}
	coordC.Close()
}

// TestCoordinatorJournalSeqResume: replayed coordinator-minted ids
// advance the sequence so new jobs cannot collide.
func TestCoordinatorJournalSeqResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.wal")
	j, _, err := service.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 7; i++ {
		id := fmt.Sprintf("fl-%06d", i)
		j.Append(service.JournalRecord{Kind: service.RecAccepted, ID: id, Req: &service.JobRequest{Workload: "dmm"}})
		if i < 7 {
			j.Append(service.JournalRecord{Kind: service.RecTerminal, ID: id})
		}
	}
	j.Close()
	j2, recs, err := service.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rp := service.FoldJournal(recs, "fl-")
	if pending := rp.Pending; len(pending) != 1 || pending[0].ID != "fl-000007" {
		t.Fatalf("pending = %+v, want just fl-000007", pending)
	}
	if rp.Seq != 7 {
		t.Fatalf("sequence resumed at %d, want 7", rp.Seq)
	}
}
