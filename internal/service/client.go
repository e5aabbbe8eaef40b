package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Client is an HTTP client for the tiad job API. Every call is a
// single round trip with no retries: the fleet router owns retry and
// failover. A rejected submission comes back as a typed *JobError, and
// a Retry-After header on a 429/503 response fills its RetryAfter, so a
// coordinator can pass the worker's hint on to its own caller.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying transport; nil means http.DefaultClient.
	HTTP *http.Client
}

// Submit performs one POST /v1/jobs round trip, decoding typed job
// errors out of non-200 responses along with any Retry-After hint. A
// 200 returns the server's JobResult body as it came off the wire,
// checked to be well-formed JSON but not decoded, so a coordinator can
// relay it without encoding it again; a malformed body is an untyped
// (transport) error.
func (c *Client) Submit(ctx context.Context, req *JobRequest) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encode request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	// Propagate the caller's remaining wall-clock budget so the server
	// bounds the job by it even if this connection later breaks (a
	// broken connection cancels the handler, but a reattached job found
	// via status polling would otherwise run unbounded).
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		hreq.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
	}
	resp, payload, err := c.do(hreq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		err := decodeJobError(resp.StatusCode, payload)
		if je, ok := err.(*JobError); ok {
			je.RetryAfter = parseRetryAfter(resp)
		}
		return nil, err
	}
	if !json.Valid(payload) {
		return nil, fmt.Errorf("decode result: malformed JSON body (%d bytes)", len(payload))
	}
	return payload, nil
}

// maxRetryAfterHint caps how large a server Retry-After hint the client
// will believe. Beyond defending against absurd values, the cap keeps
// the seconds→Duration conversion below from overflowing: an attacker-
// or bug-supplied hint near MaxInt64 seconds would wrap negative, and a
// negative "hint" would tell the caller to retry at once.
const maxRetryAfterHint = 5 * time.Minute

// parseRetryAfter reads a delay-seconds Retry-After header off 429/503
// responses (the only statuses the service sends it with) — busy and
// draining rejections carry the hint uniformly. Negative, non-numeric,
// and overflow-sized hints are rejected (treated as absent).
func parseRetryAfter(resp *http.Response) time.Duration {
	if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
		return 0
	}
	secs, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64)
	if err != nil || secs < 0 {
		return 0
	}
	if secs > int64(maxRetryAfterHint/time.Second) {
		return maxRetryAfterHint
	}
	return time.Duration(secs) * time.Second
}

// getJSON performs one GET round trip and decodes the service's JSON
// wire shape: 200 decodes into out, anything else decodes the typed job
// error. Like every Client call it makes one attempt: the lookup callers
// (heartbeats, failover probes) need prompt, truthful failures.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	payload, status, err := c.get(ctx, path)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return decodeJobError(status, payload)
	}
	if err := json.Unmarshal(payload, out); err != nil {
		return fmt.Errorf("decode %s: %w", path, err)
	}
	return nil
}

// get performs one GET and returns the raw body and status.
func (c *Client) get(ctx context.Context, path string) ([]byte, int, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, payload, err := c.do(hreq)
	if err != nil {
		return nil, 0, err
	}
	return payload, resp.StatusCode, nil
}

// maxBody bounds the response body the client reads.
const maxBody = 64 << 20

// do sends one request and reads its whole (bounded) body; the response
// is returned for its status and headers, its body already closed. A
// body of known length is read into one buffer of that size; one cut
// short of it is an error.
func (c *Client) do(hreq *http.Request) (*http.Response, []byte, error) {
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(hreq)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var payload []byte
	if n := resp.ContentLength; n >= 0 && n <= maxBody {
		payload = make([]byte, n)
		_, err = io.ReadFull(resp.Body, payload)
	} else {
		payload, err = io.ReadAll(io.LimitReader(resp.Body, maxBody))
	}
	if err != nil {
		return nil, nil, err
	}
	return resp, payload, nil
}

// decodeJobError extracts the typed error from a non-200 payload.
func decodeJobError(status int, payload []byte) error {
	var fail struct {
		Error *JobError `json:"error"`
	}
	if err := json.Unmarshal(payload, &fail); err == nil && fail.Error != nil {
		return fail.Error
	}
	return fmt.Errorf("http %d: %s", status, bytes.TrimSpace(payload))
}

// Status looks up a job's lifecycle state and, once terminal, its
// result or error (GET /v1/jobs/{id}). An unknown ID is a typed
// not_found job error.
func (c *Client) Status(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.getJSON(ctx, "/v1/jobs/"+id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Healthz probes the server's health endpoint. A draining server
// answers 503 but still describes itself; that is a successful probe,
// so the Health body is returned whenever one decodes.
func (c *Client) Healthz(ctx context.Context) (*Health, error) {
	payload, status, err := c.get(ctx, "/healthz")
	if err != nil {
		return nil, err
	}
	var h Health
	if err := json.Unmarshal(payload, &h); err != nil {
		return nil, fmt.Errorf("healthz (http %d): %w", status, err)
	}
	return &h, nil
}

// Workloads lists the server's built-in kernel suite
// (GET /v1/workloads).
func (c *Client) Workloads(ctx context.Context) ([]WorkloadInfo, error) {
	var out []WorkloadInfo
	if err := c.getJSON(ctx, "/v1/workloads", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// FetchSnapshot downloads a job's latest checkpoint snapshot
// (GET /v1/jobs/{id}/snapshot). A job with no checkpoint yet returns
// (nil, nil) — not an error, just nothing to migrate with yet.
func (c *Client) FetchSnapshot(ctx context.Context, id string) ([]byte, error) {
	payload, status, err := c.get(ctx, "/v1/jobs/"+id+"/snapshot")
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK:
		return payload, nil
	case http.StatusNotFound:
		return nil, nil
	default:
		return nil, decodeJobError(status, payload)
	}
}
