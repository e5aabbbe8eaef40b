package service

// Client tests: Retry-After parsing under hostile header values
// (negative, overflow, garbage), one round trip per Submit,
// deadline-header propagation, and a result body returned as sent,
// whole when it is large.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestParseRetryAfterTable drives parseRetryAfter through the header
// values a hostile or broken server could send on 429/503 responses.
// The two load-shedding statuses must parse identically, every other
// status must ignore the header entirely, and no value may ever produce
// a negative duration (a negative "hint" would tell the caller to retry
// at once).
func TestParseRetryAfterTable(t *testing.T) {
	cases := []struct {
		name   string
		status int
		header string
		want   time.Duration
	}{
		{"429 plain seconds", http.StatusTooManyRequests, "2", 2 * time.Second},
		{"503 plain seconds", http.StatusServiceUnavailable, "7", 7 * time.Second},
		{"429 zero", http.StatusTooManyRequests, "0", 0},
		{"429 negative", http.StatusTooManyRequests, "-5", 0},
		{"503 negative", http.StatusServiceUnavailable, "-1", 0},
		{"429 overflow seconds", http.StatusTooManyRequests, "9223372036854775807", maxRetryAfterHint},
		{"503 overflow seconds", http.StatusServiceUnavailable, "99999999999999", maxRetryAfterHint},
		{"429 wider than int64", http.StatusTooManyRequests, "92233720368547758079", 0},
		{"429 just above cap", http.StatusTooManyRequests, "301", maxRetryAfterHint},
		{"429 at cap", http.StatusTooManyRequests, "300", maxRetryAfterHint},
		{"429 garbage", http.StatusTooManyRequests, "soon", 0},
		{"429 http-date form unsupported", http.StatusTooManyRequests, "Fri, 07 Aug 2026 09:00:00 GMT", 0},
		{"429 empty", http.StatusTooManyRequests, "", 0},
		{"429 float", http.StatusTooManyRequests, "1.5", 0},
		{"200 ignores header", http.StatusOK, "2", 0},
		{"500 ignores header", http.StatusInternalServerError, "2", 0},
		{"404 ignores header", http.StatusNotFound, "2", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := &http.Response{StatusCode: tc.status, Header: http.Header{}}
			if tc.header != "" {
				resp.Header.Set("Retry-After", tc.header)
			}
			got := parseRetryAfter(resp)
			if got != tc.want {
				t.Errorf("parseRetryAfter(%d, %q) = %v, want %v", tc.status, tc.header, got, tc.want)
			}
			if got < 0 {
				t.Errorf("parseRetryAfter returned a negative hint %v", got)
			}
		})
	}
}

// TestClientSubmitIsOneRoundTrip: Submit makes exactly one POST, with
// no retry of its own, and a shed job comes back as a typed error whose
// RetryAfter carries the server's hint. The fleet router is the only
// retry loop; it passes that hint on to its own caller.
func TestClientSubmitIsOneRoundTrip(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
			t.Errorf("request %s %s, want POST /v1/jobs", r.Method, r.URL.Path)
		}
		calls.Add(1)
		je := jobErrorf(ErrBusy, "job queue full")
		je.RetryAfter = time.Second
		writeError(w, je)
	}))
	defer ts.Close()

	_, err := (&Client{BaseURL: ts.URL}).Submit(context.Background(), &JobRequest{Workload: "dmm"})
	je, ok := err.(*JobError)
	if !ok || je.Kind != ErrBusy {
		t.Fatalf("Submit error = %v, want a typed busy error", err)
	}
	if je.RetryAfter != time.Second {
		t.Errorf("RetryAfter = %v, want 1s (the server's hint)", je.RetryAfter)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d POSTs, want exactly 1", got)
	}
}

// TestClientDeadlineHeader checks that Submit forwards the caller's
// remaining context budget as X-Tia-Deadline-Ms and that the server
// folds it into the job's DeadlineMs, keeping the sooner bound.
func TestClientDeadlineHeader(t *testing.T) {
	var gotHeader string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader = r.Header.Get(DeadlineHeader)
		WriteJSON(w, http.StatusOK, &JobResult{Completed: true})
	}))
	defer ts.Close()

	cl := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cl.Submit(ctx, &JobRequest{Workload: "dmm"}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ms, err := strconv.ParseInt(gotHeader, 10, 64)
	if err != nil || ms <= 0 || ms > 5000 {
		t.Fatalf("deadline header = %q, want ~5000ms remaining", gotHeader)
	}

	// Server side: the header tightens DeadlineMs but never loosens it.
	for _, tc := range []struct {
		header  string
		reqMs   int64
		wantMs  int64
		comment string
	}{
		{"3000", 0, 3000, "header fills an unset deadline"},
		{"3000", 1000, 1000, "sooner request deadline wins"},
		{"500", 9000, 500, "sooner header wins"},
		{"garbage", 1000, 1000, "malformed header ignored"},
		{"-4", 1000, 1000, "negative header ignored"},
		{"0", 1000, 1000, "zero header ignored"},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", nil)
		r.Header.Set(DeadlineHeader, tc.header)
		req := &JobRequest{DeadlineMs: tc.reqMs}
		applyDeadlineHeader(r, req)
		if req.DeadlineMs != tc.wantMs {
			t.Errorf("%s: DeadlineMs = %d, want %d", tc.comment, req.DeadlineMs, tc.wantMs)
		}
	}
}

// TestClientSubmitReturnsBody: a 200 comes back as the server's bytes,
// undecoded, and a 200 whose body is not JSON is an untyped (transport)
// error, never a result.
func TestClientSubmitReturnsBody(t *testing.T) {
	const body = `{"cycles": 7, "id": "x", "extra": true}` + "\n"
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if calls.Add(1) == 1 {
			_, _ = io.WriteString(w, body)
		} else {
			_, _ = io.WriteString(w, body[:len(body)/2])
		}
	}))
	defer ts.Close()

	cl := &Client{BaseURL: ts.URL}
	got, err := cl.Submit(context.Background(), &JobRequest{Workload: "dmm"})
	if err != nil || string(got) != body {
		t.Fatalf("Submit = %q, %v; want the server's bytes %q", got, err, body)
	}
	got, err = cl.Submit(context.Background(), &JobRequest{Workload: "dmm"})
	if err == nil {
		t.Fatalf("Submit accepted a truncated body: %q", got)
	}
	if _, typed := err.(*JobError); typed {
		t.Errorf("truncated body gave typed error %v, want a transport error", err)
	}
}

// TestClientReadsLargeBodyWhole: a body past net/http's 2 KB chunking
// threshold still carries its Content-Length, because writeJSON
// marshals before it writes, and the client returns it byte-equal. A
// body cut short of its declared length is an error.
func TestClientReadsLargeBodyWhole(t *testing.T) {
	big := map[string]string{"sinks": strings.Repeat("7,", 4096)}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, big)
	want := rec.Body.Bytes()
	if len(want) <= 2048 || rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) {
		t.Fatalf("writeJSON: %d bytes with Content-Length %q", len(want), rec.Header().Get("Content-Length"))
	}
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			writeJSON(w, http.StatusOK, big)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(want)))
		_, _ = w.Write(want[:len(want)/2])
	}))
	defer ts.Close()

	cl := &Client{BaseURL: ts.URL}
	got, err := cl.Submit(context.Background(), &JobRequest{Workload: "dmm"})
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Submit = %d bytes, %v; want the server's %d bytes", len(got), err, len(want))
	}
	if got, err := cl.Submit(context.Background(), &JobRequest{Workload: "dmm"}); err == nil {
		t.Fatalf("Submit accepted a body cut short of its Content-Length: %d bytes", len(got))
	}
}
