package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"tia/internal/asm"
	"tia/internal/service"
	"tia/internal/snapshot"
)

// affinityFields is the routing identity of a job: the behaviour-
// affecting fields the workers' result caches hash (see
// service.resultKey), so identical jobs always hash to the same ring
// position. The retired stepping fields (compiled, shards and
// faults.lanes, all accepted and ignored) and cache-bypass flags are
// deliberately absent — they do not change the answer, so they must not
// change the route.
type affinityFields struct {
	Kind       string `json:"kind"` // "workload" or "netlist"
	Name       string `json:"name,omitempty"`
	Tokens     string `json:"tokens,omitempty"`
	Size       int    `json:"size,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Policy     int    `json:"policy,omitempty"`
	IssueWidth int    `json:"issue_width,omitempty"`
	MemLatency int    `json:"mem_latency,omitempty"`
	ChanCap    int    `json:"chan_cap,omitempty"`
	ChanLat    int    `json:"chan_lat,omitempty"`
	MaxCycles  int64  `json:"max_cycles,omitempty"`
	Trace      bool   `json:"trace,omitempty"`
	// Faults spreads campaign sweeps (which bypass result caches) by
	// their seed/plan instead of collapsing a whole sweep onto the
	// kernel's home worker.
	Faults *service.FaultCampaignRequest `json:"faults,omitempty"`
}

// affinityKey computes a job's ring key. Netlist jobs key on the
// source's token hash (asm.TokenHash), so netlists that differ only in
// comments, blank lines or indentation route to the same worker and hit
// its result cache, with no coordinator-side parse. The key is only a
// hint: a label rename or reordered declaration costs an affinity miss,
// never a wrong result, because the worker keys its cache on the
// assembled fingerprint.
func affinityKey(req *service.JobRequest) string {
	f := affinityFields{MaxCycles: req.MaxCycles, Trace: req.Trace}
	if req.Faults != nil {
		fc := *req.Faults
		fc.Lanes = 0
		f.Faults = &fc
	}
	if req.Netlist != "" {
		f.Kind = "netlist"
		f.Tokens = asm.TokenHash(req.Netlist)
	} else {
		f.Kind = "workload"
		f.Name = req.Workload
		f.Size = req.Size
		f.Seed = req.Seed
		f.Policy = req.Policy
		f.IssueWidth = req.IssueWidth
		f.MemLatency = req.MemLatency
		f.ChanCap = req.ChannelCapacity
		f.ChanLat = req.ChannelLatency
	}
	b, err := json.Marshal(f)
	if err != nil {
		// Struct of scalars plus a scalar-only sub-struct; cannot fail.
		panic(fmt.Sprintf("fleet: affinity key marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// asJobError extracts a typed job error from (possibly wrapped) client
// errors.
func asJobError(err error) (*service.JobError, bool) {
	var je *service.JobError
	if errors.As(err, &je) {
		return je, true
	}
	return nil, false
}

// transientKind reports whether a typed job error is a property of the
// worker (worth trying another one) rather than of the job (which would
// fail identically anywhere — the simulations are deterministic).
func transientKind(k service.ErrorKind) bool {
	return k == service.ErrDraining || k == service.ErrBusy || k == service.ErrUnavailable
}

// ctxJobError converts an expired routing context into the typed error
// the client should see.
func ctxJobError(ctx context.Context) *service.JobError {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return &service.JobError{Kind: service.ErrDeadline, Message: "job deadline exceeded before the fleet finished it"}
	}
	return &service.JobError{Kind: service.ErrCancelled, Message: "job cancelled"}
}

// routeJob places one job on the ring and runs it to a terminal state,
// journaling acceptance and termination when the coordinator journal is
// configured. It returns the worker's JobResult body, undecoded, the
// worker URL that served it (or the last one tried), and the terminal
// error.
func (c *Coordinator) routeJob(ctx context.Context, req *service.JobRequest) ([]byte, string, error) {
	// One identity for the job's whole fleet lifetime: journal records,
	// status lookups and checkpoint snapshots on every worker it touches
	// are keyed by it.
	id := req.JobID
	if id == "" {
		id = c.nextJobID()
	}
	if err := c.journalAccepted(id, req); err != nil {
		// A journal that cannot accept is a coordinator that cannot keep
		// its durability promise; reject rather than silently degrade.
		return nil, "", &service.JobError{Kind: service.ErrInternal, Message: fmt.Sprintf("coordinator journal: %v", err)}
	}
	res, u, err := c.routeJobAs(ctx, id, req)
	if service.TerminalOutcome(err) {
		c.journalTerminal(id)
	}
	return res, u, err
}

// routeJobAs is the routing core: budgeted, breaker-aware failover (and
// checkpoint migration) along the key's deterministic worker sequence.
//
// Termination is structural: every pass either makes at least one
// submission attempt or is itself charged against the retry budget, so
// no job can ring-walk forever — it completes, fails on its own merits,
// or exhausts the budget with a typed, retryable error.
func (c *Coordinator) routeJobAs(ctx context.Context, id string, req *service.JobRequest) ([]byte, string, error) {
	key := affinityKey(req)
	seq := c.ring.sequence(key, c.cfg.MaxFailover)
	if len(seq) == 0 {
		return nil, "", noWorkerError()
	}
	home := seq[0]

	// End-to-end deadline: the client's budget bounds every retry,
	// backoff and migration below, and runOn hands each worker only the
	// remainder.
	if req.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMs)*time.Millisecond)
		defer cancel()
	}
	// Terminal eviction: however this returns, the job's migration stash
	// entry (and its disk mirror) must not outlive it.
	defer c.stash.close(id)

	snap := req.ResumeSnapshot
	if len(snap) > 0 {
		if _, err := snapshot.Verify(snap); err != nil {
			// Quarantine: corrupt resume material is dropped and the job
			// falls back to a fresh run — determinism makes that merely
			// slower, never wrong.
			c.metrics.CorruptSnapshots.Add(1)
			snap = nil
		}
	}

	attempts := 0
	var lastErr error
	lastURL := ""
	// hint is the largest Retry-After the workers sent in the last pass:
	// the next pass waits it out rather than resubmitting within it.
	var hint time.Duration
	for pass := 0; attempts < c.cfg.RetryBudget; pass++ {
		if pass > 0 {
			// The job's deadline, carried by ctx, caps the wait.
			select {
			case <-ctx.Done():
				return nil, lastURL, ctxJobError(ctx)
			case <-time.After(max(c.cfg.RetryBackoff, hint)):
			}
			hint = 0
		}
		// Prefer workers whose breakers admit traffic; when every breaker
		// refuses, sweep the full sequence anyway with acquire bypassed —
		// breakers are advice, and a job must not starve on advice.
		candidates := make([]string, 0, len(seq))
		for _, u := range seq {
			if c.reg.admissible(c.reg.get(u)) {
				candidates = append(candidates, u)
			}
		}
		bypass := false
		if len(candidates) == 0 {
			candidates, bypass = seq, true
		}
		tried := false
		for _, u := range candidates {
			if attempts >= c.cfg.RetryBudget {
				break
			}
			if ctx.Err() != nil {
				return nil, lastURL, ctxJobError(ctx)
			}
			w := c.reg.get(u)
			if !bypass && !c.reg.acquire(w) {
				continue // half-open probe slot already claimed
			}
			attempts++
			tried = true
			lastURL = u
			// Migrate forward: the latest snapshot polled off the previous
			// worker supersedes whatever this job started with.
			if s, _ := c.stash.take(id); len(s) > 0 {
				snap = s
			}
			if attempts > 1 {
				c.metrics.Failovers.Add(1)
				if len(snap) > 0 {
					c.metrics.Migrations.Add(1)
				}
			}
			res, err := c.runOn(ctx, w, id, req, snap)
			if err == nil {
				c.reg.reportUp(w)
				c.metrics.JobsRouted.Add(1)
				if u == home {
					c.metrics.AffinityHits.Add(1)
				}
				return res, u, nil
			}
			if ctx.Err() != nil {
				return nil, u, ctxJobError(ctx)
			}
			if je, typed := asJobError(err); typed {
				// The worker answered; whatever it said, it is alive.
				c.reg.reportUp(w)
				if je.Kind == service.ErrConflict {
					// The job is already live there — an earlier severed
					// submission landed after all. Follow it through the
					// status API instead of failing the client.
					if res, jerr, ok := c.reattach(ctx, w, id); ok {
						c.metrics.Reattaches.Add(1)
						if jerr == nil {
							c.metrics.JobsRouted.Add(1)
							if u == home {
								c.metrics.AffinityHits.Add(1)
							}
							return res, u, nil
						}
						if !transientKind(jerr.Kind) {
							return nil, u, jerr
						}
						lastErr = jerr
					} else {
						lastErr = je
					}
					continue
				}
				if !transientKind(je.Kind) {
					// Deterministic failure (compile, verify, deadlock,
					// budget…): rerunning elsewhere fails identically.
					return nil, u, je
				}
				lastErr = je
				hint = max(hint, je.RetryAfter)
				continue
			}
			c.reg.markDown(w, err)
			lastErr = err
		}
		if !tried {
			// Every candidate was skipped (probe slots taken): the sweep
			// still charges the budget, so the loop provably terminates.
			attempts++
		}
	}
	c.metrics.RetriesExhausted.Add(1)
	if je, typed := asJobError(lastErr); typed {
		// Propagate the workers' own busy/draining hint (Retry-After).
		return nil, lastURL, je
	}
	return nil, lastURL, noWorkerError()
}

// runOn submits the job to one worker and supervises it: while the
// submission is in flight the worker's checkpoint snapshot is polled
// into the migration stash, and if the connection dies while the worker
// survives, the outcome is recovered through the status API instead of
// re-running the job. The result is the worker's JobResult body.
func (c *Coordinator) runOn(ctx context.Context, w *worker, id string, req *service.JobRequest, snap []byte) ([]byte, error) {
	r := *req
	r.JobID = id
	r.ResumeSnapshot = snap
	if dl, ok := ctx.Deadline(); ok {
		// Hand the worker the remaining budget, not the original one —
		// time already burned on dead workers must not be granted twice.
		rem := time.Until(dl).Milliseconds()
		if rem < 1 {
			rem = 1
		}
		r.DeadlineMs = rem
	}

	type outcome struct {
		res []byte
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := w.client.Submit(ctx, &r)
		done <- outcome{res, err}
	}()

	t := time.NewTicker(c.cfg.PollEvery)
	defer t.Stop()
	for {
		select {
		case out := <-done:
			if out.err == nil {
				return out.res, nil
			}
			if _, typed := asJobError(out.err); typed || ctx.Err() != nil {
				return nil, out.err
			}
			// Transport-level failure: the connection died, but the
			// worker — and the job on it — may both still be alive.
			if res, jerr, ok := c.reattach(ctx, w, id); ok {
				c.metrics.Reattaches.Add(1)
				if jerr != nil {
					return nil, jerr
				}
				return res, nil
			}
			return nil, out.err
		case <-t.C:
			c.pollSnapshot(ctx, w, id)
		}
	}
}

// reattach follows a running job through the status API until it turns
// terminal. ok is false when the worker is unreachable, no longer knows
// the job (restarted), or only knows it as cancelled — a cancellation
// while our own context is live means the job's previous incarnation
// was severed, and determinism makes re-running it safe, so the caller
// falls back to failover instead of delivering the stale cancellation.
// A completed job's result is encoded in the wire shape a submission
// returns.
func (c *Coordinator) reattach(ctx context.Context, w *worker, id string) (res []byte, jobErr *service.JobError, ok bool) {
	for {
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		st, err := w.client.Status(pctx, id)
		cancel()
		if err != nil {
			return nil, nil, false
		}
		switch st.State {
		case service.JobStateCompleted:
			b, err := json.Marshal(st.Result)
			if err != nil {
				return nil, nil, false
			}
			return append(b, '\n'), nil, true
		case service.JobStateFailed:
			if st.Error != nil && st.Error.Kind == service.ErrCancelled {
				return nil, nil, false
			}
			return nil, st.Error, true
		}
		c.pollSnapshot(ctx, w, id)
		select {
		case <-ctx.Done():
			return nil, nil, false
		case <-time.After(c.cfg.PollEvery):
		}
	}
}

// pollSnapshot pulls the job's latest checkpoint snapshot off its
// worker into the migration stash. Best-effort: a worker without
// durability configured, or a job before its first checkpoint, simply
// yields nothing; a corrupted body is quarantined by the stash.
func (c *Coordinator) pollSnapshot(ctx context.Context, w *worker, id string) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	snap, err := w.client.FetchSnapshot(pctx, id)
	if err == nil && len(snap) > 0 && c.stash.put(id, snap) {
		c.metrics.SnapshotsFetched.Add(1)
	}
}
