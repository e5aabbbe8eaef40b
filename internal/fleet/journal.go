package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"tia/internal/service"
	"tia/internal/wal"
)

// The coordinator journal makes accepted jobs durable across a
// coordinator restart: every job appends an "accepted" record (with its
// full request) before routing starts and a "terminal" record once the
// outcome is delivered. Replay at startup is the set difference — every
// accepted-but-unterminated job is re-driven to exactly one terminal
// state, first by looking for it on its ring sequence (the workers may
// well have outlived the coordinator) and only then by resubmitting it
// under its original identity, resuming from the stash's disk mirror
// when one survived.
//
// Cancelled and deadline outcomes are deliberately not journaled
// terminal (mirroring the worker journal's replay policy): the client
// whose disconnect or deadline produced them died with the old
// coordinator, so after a restart the job is still owed a completed
// run — which lands in the workers' result caches for the client's
// resubmission to hit.
const (
	coordRecAccepted = "accepted"
	coordRecTerminal = "terminal"
)

// coordRecord is one journal record.
type coordRecord struct {
	Kind string              `json:"kind"`
	ID   string              `json:"id"`
	Req  *service.JobRequest `json:"req,omitempty"`
}

// coordJournal is the wal-backed record stream.
type coordJournal struct{ log *wal.Log }

// openCoordJournal opens (or creates) the journal, replays it into the
// pending (accepted ∖ terminal) set in acceptance order, and advances
// seq past every replayed coordinator-minted id so new jobs cannot
// collide with journaled ones.
func openCoordJournal(path string, seq *atomic.Int64) (*coordJournal, []coordRecord, error) {
	log, payloads, err := wal.Open(path, wal.DefaultMaxRecord)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: journal: %w", err)
	}
	accepted := make(map[string]coordRecord)
	var order []string
	for _, p := range payloads {
		var rec coordRecord
		if json.Unmarshal(p, &rec) != nil {
			continue // framing-valid but unparseable: skip, keep replaying
		}
		switch rec.Kind {
		case coordRecAccepted:
			if rec.Req == nil {
				continue
			}
			if _, dup := accepted[rec.ID]; !dup {
				order = append(order, rec.ID)
			}
			accepted[rec.ID] = rec
		case coordRecTerminal:
			delete(accepted, rec.ID)
		}
		var n int64
		if _, err := fmt.Sscanf(rec.ID, "fl-%d", &n); err == nil && n > seq.Load() {
			seq.Store(n)
		}
	}
	var pending []coordRecord
	for _, id := range order {
		if rec, ok := accepted[id]; ok {
			pending = append(pending, rec)
		}
	}
	return &coordJournal{log: log}, pending, nil
}

func (j *coordJournal) append(rec coordRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return j.log.Append(b)
}

func (j *coordJournal) close() error { return j.log.Close() }

// journalAccepted records a job before routing starts. The inline
// resume snapshot is stripped: checkpoint durability belongs to the
// stash's disk mirror, and replayed jobs re-run deterministically from
// scratch at worst.
func (c *Coordinator) journalAccepted(id string, req *service.JobRequest) error {
	if c.journal == nil {
		return nil
	}
	r := *req
	r.ResumeSnapshot = nil
	return c.journal.append(coordRecord{Kind: coordRecAccepted, ID: id, Req: &r})
}

// journalTerminal records a delivered outcome. Append failures are
// tolerated: the worst case is one extra replay after a restart, which
// the workers' result caches absorb.
func (c *Coordinator) journalTerminal(id string) {
	if c.journal == nil {
		return
	}
	_ = c.journal.append(coordRecord{Kind: coordRecTerminal, ID: id})
}

// isTerminalOutcome reports whether a routing outcome counts as
// journal-terminal (see the package comment above: cancelled/deadline
// do not).
func isTerminalOutcome(err error) bool {
	if err == nil {
		return true
	}
	if je, ok := asJobError(err); ok {
		return je.Kind != service.ErrCancelled && je.Kind != service.ErrDeadline
	}
	// Untyped context errors reach here only through paths that predate
	// the typed conversion; classify them the same way.
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// recoverJob re-drives one journaled pending job to a terminal state
// after a coordinator restart.
func (c *Coordinator) recoverJob(ctx context.Context, id string, req *service.JobRequest) {
	if req == nil {
		c.journalTerminal(id)
		return
	}
	key := affinityKey(req)
	for _, u := range c.ring.sequence(key, c.cfg.MaxFailover) {
		if ctx.Err() != nil {
			return
		}
		w := c.reg.get(u)
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		st, err := w.client.Status(pctx, id)
		cancel()
		if err != nil {
			continue
		}
		switch st.State {
		case service.JobStateCompleted:
			c.journalTerminal(id)
			c.metrics.JobsRecovered.Add(1)
			return
		case service.JobStateFailed:
			if st.Error != nil && (st.Error.Kind == service.ErrCancelled || st.Error.Kind == service.ErrDeadline) {
				continue // severed by the old coordinator's death: re-run
			}
			c.journalTerminal(id)
			c.metrics.JobsRecovered.Add(1)
			return
		default:
			// Queued or running: the worker outlived the coordinator.
			// Follow the job to its end instead of re-running it.
			if _, jerr, ok := c.reattach(ctx, w, id); ok {
				c.metrics.Reattaches.Add(1)
				if jerr == nil || isTerminalOutcome(jerr) {
					c.journalTerminal(id)
				}
				c.metrics.JobsRecovered.Add(1)
				return
			}
		}
	}
	// Not found anywhere (or only as a severed cancellation): re-drive
	// it under its original identity, resuming from the persisted stash
	// mirror when one survived the restart.
	r := *req
	r.JobID = id
	if snap := c.stash.diskSnapshot(id); len(snap) > 0 {
		r.ResumeSnapshot = snap
	}
	_, _, err := c.routeJobAs(ctx, id, &r)
	if isTerminalOutcome(err) {
		c.journalTerminal(id)
	}
	c.metrics.JobsRecovered.Add(1)
}
