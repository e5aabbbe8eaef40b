package fleet

import (
	"context"

	"tia/internal/service"
)

// The coordinator journal makes accepted jobs durable across a
// coordinator restart. It is the workers' journal (service.Journal):
// every job appends an "accepted" record (with its full request) before
// routing starts and a "terminal" record once a final outcome (see
// service.TerminalOutcome) is delivered. Replay at startup is the
// workers' fold — every accepted-but-unterminated job is re-driven to
// exactly one terminal state, first by looking for it on its ring
// sequence (the workers may well have outlived the coordinator) and only
// then by resubmitting it under its original identity, resuming from the
// stash's disk mirror when one survived.

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
	return c.journal.Append(service.JournalRecord{Kind: service.RecAccepted, ID: id, Req: &r})
}

// journalTerminal records a delivered outcome. Append failures are
// tolerated: the worst case is one extra replay after a restart, which
// the workers' result caches absorb.
func (c *Coordinator) journalTerminal(id string) {
	if c.journal == nil {
		return
	}
	_ = c.journal.Append(service.JournalRecord{Kind: service.RecTerminal, ID: id})
}

// recoverJob re-drives one journaled pending job to a terminal state
// after a coordinator restart.
func (c *Coordinator) recoverJob(ctx context.Context, id string, req *service.JobRequest) {
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
			if st.Error != nil && !service.TerminalOutcome(st.Error) {
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
				if jerr == nil || service.TerminalOutcome(jerr) {
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
	if service.TerminalOutcome(err) {
		c.journalTerminal(id)
	}
	c.metrics.JobsRecovered.Add(1)
}
