package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"tia/internal/wal"
)

// The write-ahead job journal makes accepted jobs durable across a
// crash, for a worker daemon and for the fleet coordinator alike: both
// append the same records to a Journal and replay them through the same
// fold. Every record is one CRC-framed JSON payload, fsync'd before the
// transition it records takes effect elsewhere (framing, fsync and
// torn-tail truncation live in internal/wal). The vocabulary:
//
//	accepted     job admitted; carries the full request (the replay unit)
//	checkpointed a worker persisted a mid-run fabric snapshot for the job
//	completed    a worker's job produced a result (carried inline, to
//	             repopulate the result cache on restart)
//	failed       a worker's job failed deterministically; not re-run
//	terminal     the coordinator delivered the job's outcome
//
// A job accepted and never completed, failed or terminal was cut off by
// a crash: replay hands it back as pending, with its latest checkpoint.
// Any other kind is ignored on replay; journals written before this
// vocabulary also carry "started" records, which nothing reads.
const (
	RecAccepted     = "accepted"
	RecCheckpointed = "checkpointed"
	RecCompleted    = "completed"
	RecFailed       = "failed"
	RecTerminal     = "terminal"
)

// JournalRecord is one journal entry.
type JournalRecord struct {
	Kind string `json:"kind"`
	ID   string `json:"id"`
	// Req is the full submission, carried on accepted records so replay
	// can re-run the job.
	Req *JobRequest `json:"req,omitempty"`
	// Cycles and File describe a checkpoint: the fabric cycle it was
	// taken at and the snapshot file holding the state.
	Cycles int64  `json:"cycles,omitempty"`
	File   string `json:"file,omitempty"`
	// Result is the completed job's payload (completed records).
	Result *JobResult `json:"result,omitempty"`
	// Error is the terminal failure (failed records).
	Error *JobError `json:"error,omitempty"`
}

// Journal is the job-record view over a wal.Log.
type Journal struct {
	log *wal.Log
}

// PendingJob is a journaled job with no terminal record: a crash cut it
// off, and it is owed a run.
type PendingJob struct {
	ID  string
	Req *JobRequest
	// Checkpoint is the snapshot file of the job's latest checkpointed
	// record, "" when it has none.
	Checkpoint string
}

// Replay is what a journal's records add up to.
type Replay struct {
	// Pending is accepted ∖ (completed ∪ failed ∪ terminal), in order of
	// each job's latest acceptance.
	Pending []PendingJob
	// Results are the completed records' results, in journal order.
	Results []*JobResult
	// Seq is the highest sequence number n of any journaled ID of the
	// form prefix+n: new IDs minted past it cannot collide.
	Seq int64
}

// OpenJournal opens (creating if absent) a journal, truncates any torn
// tail, positions the file for appends, and returns the intact records
// in append order (FoldJournal adds them up). A record that frames and
// checksums correctly but does not parse as a JournalRecord is skipped:
// it cannot be a torn tail, so the intact records after it must not be
// discarded with it.
func OpenJournal(path string) (*Journal, []JournalRecord, error) {
	log, payloads, err := wal.Open(path, wal.DefaultMaxRecord)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	recs := make([]JournalRecord, 0, len(payloads))
	for _, p := range payloads {
		var rec JournalRecord
		if json.Unmarshal(p, &rec) == nil {
			recs = append(recs, rec)
		}
	}
	return &Journal{log: log}, recs, nil
}

// FoldJournal replays records in append order into a Replay. seqPrefix
// names the IDs whose sequence Replay.Seq tracks ("job-" for a worker,
// "fl-" for the coordinator).
func FoldJournal(recs []JournalRecord, seqPrefix string) Replay {
	type acceptance struct {
		at  int // index into order of the latest acceptance
		job PendingJob
	}
	var (
		rp    Replay
		order []string
		live  = map[string]*acceptance{}
	)
	for _, rec := range recs {
		rp.Seq = max(rp.Seq, seqOf(rec.ID, seqPrefix))
		switch rec.Kind {
		case RecAccepted:
			if rec.Req != nil {
				live[rec.ID] = &acceptance{at: len(order), job: PendingJob{ID: rec.ID, Req: rec.Req}}
				order = append(order, rec.ID)
			}
		case RecCheckpointed:
			if a, ok := live[rec.ID]; ok {
				a.job.Checkpoint = rec.File
			}
		case RecCompleted:
			if rec.Result != nil && rec.Result.Key != "" {
				rp.Results = append(rp.Results, rec.Result)
			}
			delete(live, rec.ID)
		case RecFailed, RecTerminal:
			delete(live, rec.ID)
		}
	}
	for i, id := range order {
		if a, ok := live[id]; ok && a.at == i {
			rp.Pending = append(rp.Pending, a.job)
		}
	}
	return rp
}

// seqOf returns n for an ID of the form prefix+n with n a non-negative
// decimal; 0 for anything else.
func seqOf(id, prefix string) int64 {
	rest, ok := strings.CutPrefix(id, prefix)
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// Append frames one record, writes it, and fsyncs before returning; once
// Append returns nil the record survives a crash.
func (j *Journal) Append(rec JournalRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encode %s record: %w", rec.Kind, err)
	}
	return j.log.Append(payload)
}

// Close releases the journal file.
func (j *Journal) Close() error { return j.log.Close() }

// TerminalOutcome reports whether a job's outcome is final: the same
// submission would end the same way, so the journal records it and a
// restart must not re-run the job. Success and deterministic failures
// are final. Cancellation and deadline expiry are not: a job cut off by
// a vanished client is indistinguishable from one cut off by a crash,
// and the client died with the process, so after a restart the job is
// still owed a run — which lands in the result cache for the client's
// resubmission to hit.
func TerminalOutcome(err error) bool {
	var je *JobError
	if errors.As(err, &je) {
		return je.Kind != ErrCancelled && je.Kind != ErrDeadline
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}
