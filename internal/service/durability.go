package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"tia/internal/fabric"
	"tia/internal/wal"
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
	journal     *Journal
	snapshotDir string

	// lag counts journaled jobs whose outcome the journal does not know
	// yet (accepted, no terminal record) — the "journal lag" health
	// signal. Replayed jobs count until their re-run lands a terminal
	// record.
	lag atomic.Int64

	// resume maps a job ID to the snapshot its next run resumes from
	// (see stageResume).
	mu     sync.Mutex
	resume map[string][]byte

	// replay tracks in-flight journal replays (WaitRecovered).
	replay sync.WaitGroup
}

// journalAppend writes one record if journaling is on. An append failure
// is a durability loss, so callers on the accept path propagate it.
func (s *Server) journalAppend(rec JournalRecord) error {
	if s.dur.journal == nil {
		return nil
	}
	if err := s.dur.journal.Append(rec); err != nil {
		return err
	}
	switch rec.Kind {
	case RecAccepted:
		s.dur.lag.Add(1)
	case RecCompleted, RecFailed:
		s.dur.lag.Add(-1)
	}
	return nil
}

// journalTerminal records a job's terminal outcome, best-effort: a
// failed terminal append degrades restart behaviour (the job re-runs)
// but must not fail a job that already has its result.
func (s *Server) journalTerminal(rec JournalRecord) {
	_ = s.journalAppend(rec)
}

// runRecorded is the scheduler's run function: it journals runJob's
// final outcome (see TerminalOutcome), so replay re-runs only the jobs
// a crash cut off.
func (s *Server) runRecorded(ctx context.Context, id string, req *JobRequest) (*JobResult, error) {
	s.tracker.setRunning(id)
	// A staged resume snapshot the run did not consume (cache hit,
	// early validation failure) must not leak into a later job that
	// reuses the ID.
	defer s.takeResume(id)
	res, err := s.runJob(ctx, id, req)
	switch {
	case err == nil:
		s.journalTerminal(JournalRecord{Kind: RecCompleted, ID: id, Result: res})
		s.removeSnapshot(id)
	case TerminalOutcome(err):
		var je *JobError
		errors.As(err, &je)
		s.journalTerminal(JournalRecord{Kind: RecFailed, ID: id, Error: je})
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

// writeCheckpoint snapshots the fabric and persists it with
// wal.WriteFile, then journals the checkpoint so recovery knows to
// resume from it.
func (s *Server) writeCheckpoint(id, fingerprint string, f *fabric.Fabric, cycle int64) error {
	snap, err := f.Snapshot(fingerprint)
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", id, err)
	}
	file := s.snapshotPath(id)
	if err := wal.WriteFile(file, snap); err != nil {
		return fmt.Errorf("checkpoint %s: %w", id, err)
	}
	s.tracker.setCheckpoint(id, cycle)
	return s.journalAppend(JournalRecord{Kind: RecCheckpointed, ID: id, Cycles: cycle, File: file})
}

// removeSnapshot discards a finished job's checkpoint file.
func (s *Server) removeSnapshot(id string) {
	if s.dur.journal == nil || s.dur.snapshotDir == "" {
		return
	}
	os.Remove(s.snapshotPath(id))
}

// stageResume parks snapshot bytes for a job ID; the job's run consumes
// them via restoreOrRestart. submitExisting stages a request's
// ResumeSnapshot (the migration path, with or without a journal);
// journal replay puts a newer checkpoint into that field first.
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

// recoverFromJournal folds a journal's replay into the server and
// re-enqueues every unfinished job in the background. Completed results
// repopulate the content-addressed result cache so a restarted daemon
// serves finished work without re-simulating; the job sequence resumes
// past every replayed ID so new jobs never collide.
func (s *Server) recoverFromJournal(rp Replay) {
	for _, res := range rp.Results {
		s.results.put(res.Key, res)
	}
	s.jobSeq.Store(rp.Seq)
	for _, p := range rp.Pending {
		req := p.Req
		if p.Checkpoint != "" {
			// The checkpoint is newer than any snapshot the request
			// carried in (it was taken by a run that started from it).
			if snap, err := os.ReadFile(p.Checkpoint); err == nil {
				r := *req
				r.ResumeSnapshot = snap
				req = &r
			}
		}
		s.dur.lag.Add(1)
		s.metrics.JobsReplayed.Add(1)
		s.dur.replay.Add(1)
		go func(id string, req *JobRequest) {
			defer s.dur.replay.Done()
			// Replay re-runs under a fresh background context: the
			// original submitter is gone. The result lands in the cache
			// and the journal; errors are journaled by runRecorded.
			_, _ = s.submitExisting(context.Background(), id, req)
		}(p.ID, req)
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
