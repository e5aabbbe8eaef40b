package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tia/internal/fabric"
)

// Crash-safe job durability: every accepted job is journaled before it
// is queued, long runs persist periodic fabric snapshots, and a
// restarted daemon replays the journal — completed results repopulate
// the result cache, jobs cut off mid-flight are re-enqueued (resuming
// from their latest snapshot when one exists), and deterministic
// failures are not re-run.

// durability is the journal-backed state hanging off a Server; the zero
// value (journal nil) disables all of it.
type durability struct {
	journal     *journal
	snapshotDir string

	// lag counts journaled jobs whose outcome the journal does not know
	// yet (accepted, no terminal record) — the "journal lag" health
	// signal. Replayed jobs count until their re-run lands a terminal
	// record.
	lag atomic.Int64

	// resume maps a replayed job ID to its checkpointed snapshot bytes,
	// consumed by the first run of that job.
	mu     sync.Mutex
	resume map[string][]byte

	// replay tracks in-flight journal replays (WaitRecovered).
	replay sync.WaitGroup
}

// journalAppend writes one record if journaling is on. An append failure
// is a durability loss, so callers on the accept path propagate it.
func (s *Server) journalAppend(rec journalRecord) error {
	if s.dur.journal == nil {
		return nil
	}
	if err := s.dur.journal.append(rec); err != nil {
		return err
	}
	switch rec.Kind {
	case recAccepted:
		s.dur.lag.Add(1)
	case recCompleted, recFailed:
		s.dur.lag.Add(-1)
	}
	return nil
}

// journalTerminal records a job's terminal outcome, best-effort: a
// failed terminal append degrades restart behaviour (the job re-runs)
// but must not fail a job that already has its result.
func (s *Server) journalTerminal(rec journalRecord) {
	_ = s.journalAppend(rec)
}

// terminalJobError reports whether a job error is deterministic — the
// same submission would fail identically, so restart must not re-run
// it. Cancellation and deadline expiry are non-terminal: a job cut off
// by a vanished client is indistinguishable from one cut off by a
// crash, and durability re-runs both.
func terminalJobError(err error) bool {
	var je *JobError
	if !errors.As(err, &je) {
		return true
	}
	switch je.Kind {
	case ErrCancelled, ErrDeadline:
		return false
	}
	return true
}

// runRecorded is the scheduler's run function: it brackets runJob with
// journal records so the journal always knows each job's latest state.
func (s *Server) runRecorded(ctx context.Context, id string, req *JobRequest) (*JobResult, error) {
	if err := s.journalAppend(journalRecord{Kind: recStarted, ID: id}); err != nil {
		return nil, jobErrorf(ErrInternal, "journal: %v", err)
	}
	s.tracker.setRunning(id)
	// A staged resume snapshot the run did not consume (cache hit,
	// early validation failure) must not leak into a later job that
	// reuses the ID.
	defer s.takeResume(id)
	res, err := s.runJob(ctx, id, req)
	switch {
	case err == nil:
		s.journalTerminal(journalRecord{Kind: recCompleted, ID: id, Result: res})
		s.removeSnapshot(id)
	case terminalJobError(err):
		var je *JobError
		errors.As(err, &je)
		s.journalTerminal(journalRecord{Kind: recFailed, ID: id, Error: je})
		s.removeSnapshot(id)
	}
	return res, err
}

// checkpointsOn reports whether this request's run should persist
// periodic snapshots: durability configured, and the job is a plain
// single simulation (trace captures and multi-run fault campaigns hold
// state outside the fabric, which a snapshot cannot carry).
func (s *Server) checkpointsOn(req *JobRequest) bool {
	return s.dur.journal != nil && s.cfg.CheckpointEvery > 0 && !req.Trace && req.Faults == nil
}

// snapshotPath is where a job's latest checkpoint lives.
func (s *Server) snapshotPath(id string) string {
	return filepath.Join(s.dur.snapshotDir, id+".snap")
}

// writeCheckpoint snapshots the fabric and persists it atomically
// (write-temp, fsync, rename), then journals the checkpoint so recovery
// knows to resume from it.
func (s *Server) writeCheckpoint(id, fingerprint string, f *fabric.Fabric, cycle int64) error {
	snap, err := f.Snapshot(fingerprint)
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", id, err)
	}
	final := s.snapshotPath(id)
	tmp := final + ".tmp"
	file, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", id, err)
	}
	if _, err := file.Write(snap); err == nil {
		err = file.Sync()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint %s: %w", id, err)
	}
	s.tracker.setCheckpoint(id, cycle)
	return s.journalAppend(journalRecord{Kind: recCheckpointed, ID: id, Cycles: cycle, File: final})
}

// removeSnapshot discards a finished job's checkpoint file.
func (s *Server) removeSnapshot(id string) {
	if s.dur.journal == nil || s.dur.snapshotDir == "" {
		return
	}
	os.Remove(s.snapshotPath(id))
}

// stageResume parks snapshot bytes for a job ID; the job's run consumes
// them via restoreOrRestart. Used by journal replay (checkpointed jobs)
// and by snapshot import (JobRequest.ResumeSnapshot, the migration
// path) — staging works with or without a journal.
func (s *Server) stageResume(id string, snap []byte) {
	s.dur.mu.Lock()
	defer s.dur.mu.Unlock()
	if s.dur.resume == nil {
		s.dur.resume = map[string][]byte{}
	}
	s.dur.resume[id] = snap
}

// takeResume pops the snapshot staged for a job ID, if any.
func (s *Server) takeResume(id string) []byte {
	s.dur.mu.Lock()
	defer s.dur.mu.Unlock()
	snap := s.dur.resume[id]
	delete(s.dur.resume, id)
	return snap
}

// restoreOrRestart restores a staged snapshot onto a freshly built
// fabric and returns the adjusted cycle budget. A snapshot that fails
// to restore (corrupt file, different program) is discarded and the job
// simply runs from cycle zero — a bad checkpoint must never fail a job
// that can be recomputed. A no-op when nothing is staged for the ID.
func (s *Server) restoreOrRestart(id, fingerprint string, f *fabric.Fabric, budget int64) int64 {
	snap := s.takeResume(id)
	if snap == nil {
		return budget
	}
	if err := f.Restore(snap, fingerprint); err != nil {
		f.Reset()
		return budget
	}
	s.metrics.JobsResumed.Add(1)
	if rem := budget - f.Cycle(); rem > 0 {
		return rem
	}
	return 1 // let the run surface its own budget exhaustion
}

// pendingJob is one journal replay unit: a job with no terminal record.
type pendingJob struct {
	id       string
	req      *JobRequest
	snapFile string
}

// recoverFromJournal folds replayed records into the result cache and
// re-enqueues every unfinished job in the background. Completed records
// repopulate the content-addressed result cache so a restarted daemon
// serves finished work without re-simulating; the job sequence resumes
// past every replayed ID so new jobs never collide.
func (s *Server) recoverFromJournal(recs []journalRecord) {
	pending := map[string]*pendingJob{}
	var order []string
	var maxSeq int64
	for _, rec := range recs {
		if n := jobSeqOf(rec.ID); n > maxSeq {
			maxSeq = n
		}
		switch rec.Kind {
		case recAccepted:
			if rec.Req == nil {
				continue
			}
			if _, ok := pending[rec.ID]; !ok {
				order = append(order, rec.ID)
			}
			pending[rec.ID] = &pendingJob{id: rec.ID, req: rec.Req}
		case recCheckpointed:
			if p, ok := pending[rec.ID]; ok {
				p.snapFile = rec.File
			}
		case recCompleted:
			if rec.Result != nil && rec.Result.Key != "" {
				s.results.put(rec.Result.Key, rec.Result)
			}
			delete(pending, rec.ID)
		case recFailed:
			delete(pending, rec.ID)
		}
	}
	s.jobSeq.Store(maxSeq)

	sort.Strings(order)
	for _, id := range order {
		p, ok := pending[id]
		if !ok {
			continue
		}
		if p.snapFile != "" {
			if snap, err := os.ReadFile(p.snapFile); err == nil {
				s.stageResume(p.id, snap)
			}
		}
		s.dur.lag.Add(1)
		s.metrics.JobsReplayed.Add(1)
		s.dur.replay.Add(1)
		go func(p *pendingJob) {
			defer s.dur.replay.Done()
			// Replay re-runs under a fresh background context: the
			// original submitter is gone. The result lands in the cache
			// and the journal; errors are journaled by runRecorded.
			_, _ = s.submitExisting(context.Background(), p.id, p.req)
		}(p)
	}
}

// WaitRecovered blocks until every job replayed from the journal has
// finished (or failed). Serving does not require it; it exists so a
// restarted daemon (and tests) can observe recovery completion.
func (s *Server) WaitRecovered() { s.dur.replay.Wait() }

// JournalLag reports the number of journaled jobs whose outcome the
// journal does not yet record.
func (s *Server) JournalLag() int64 {
	if s.dur.journal == nil {
		return 0
	}
	return s.dur.lag.Load()
}

// jobSeqOf extracts the numeric sequence from a "job-NNNNNN" ID; 0 for
// anything else.
func jobSeqOf(id string) int64 {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}
