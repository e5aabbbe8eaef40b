package chaos

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tia/internal/snapshot"
)

// TestPlanValidate: malformed plans must be rejected, zero plans inject
// nothing.
func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{ResetRate: -0.1},
		{ResetRate: 1.5},
		{CorruptSnapshotRate: 2},
		{Partitions: 1},                   // no PartitionMax
		{Partitions: -1, PartitionMax: 2}, //
		{LatencyRate: 0.5},                // no LatencyMax
		{PartitionHorizon: -1},            //
		{CrashAtCycle: -1},                //
		{CrashAtCycle: 1, RestartAfter: -time.Second},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d (%+v) validated, want error", i, p)
		}
	}
	var zero Plan
	if err := zero.Validate(); err != nil {
		t.Errorf("zero plan: %v", err)
	}
	if zero.active() {
		t.Error("zero plan reports active")
	}
}

// TestClassify: the transport's traffic bucketing must match the fleet
// API shapes exactly — status and health must never be faulted.
func TestClassify(t *testing.T) {
	mk := func(method, path string) *http.Request {
		req, _ := http.NewRequest(method, "http://w"+path, nil)
		return req
	}
	cases := []struct {
		method, path string
		want         Class
	}{
		{http.MethodPost, "/v1/jobs", ClassSubmit},
		{http.MethodPost, "/v1/batches", ClassSubmit},
		{http.MethodGet, "/v1/jobs/fl-000001/snapshot", ClassSnapshot},
		{http.MethodGet, "/v1/jobs/fl-000001", ClassStatus},
		{http.MethodGet, "/healthz", ClassHealth},
		{http.MethodGet, "/v1/workloads", ClassOther},
		{http.MethodGet, "/metrics", ClassOther},
	}
	for _, c := range cases {
		if got := classify(mk(c.method, c.path)); got != c.want {
			t.Errorf("classify(%s %s) = %s, want %s", c.method, c.path, got, c.want)
		}
	}
}

// TestDecisionDeterminism: every per-request fault decision must be a
// pure function of (seed, site, class, index) — recomputing any prefix,
// in any order, yields the same draws.
func TestDecisionDeterminism(t *testing.T) {
	h, err := New(Plan{Seed: 42, ResetRate: 0.3, LatencyRate: 0.3, LatencyMax: time.Millisecond,
		ResetAfterRate: 0.2, TruncateRate: 0.2, SlowLorisRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	tr := h.Transport(nil).(*transport)
	var first []submitDraws
	for i := int64(0); i < 64; i++ {
		first = append(first, tr.drawSubmit("w0", i))
	}
	// Recompute out of order, interleaved with another site's draws.
	for i := int64(63); i >= 0; i-- {
		_ = tr.drawSubmit("w1", i)
		if got := tr.drawSubmit("w0", i); got != first[i] {
			t.Fatalf("w0 submit[%d] redrawn as %+v, first saw %+v", i, got, first[i])
		}
	}
	// Partition windows are first-sight draws keyed only by site name.
	h2, _ := New(Plan{Seed: 7, Partitions: 2, PartitionMax: 4})
	h3, _ := New(Plan{Seed: 7, Partitions: 2, PartitionMax: 4})
	s2, _ := h2.siteFor("http://a", ClassSubmit)
	// Different discovery order on h3 must not change a's windows.
	h3.siteFor("http://b", ClassSubmit)
	s3, _ := h3.siteFor("http://a", ClassSubmit)
	if len(s2.partitions) != len(s3.partitions) {
		t.Fatalf("partition counts differ: %d vs %d", len(s2.partitions), len(s3.partitions))
	}
	for i := range s2.partitions {
		if s2.partitions[i] != s3.partitions[i] {
			t.Fatalf("window %d differs: %+v vs %+v", i, s2.partitions[i], s3.partitions[i])
		}
	}
}

// chaosClient builds an http.Client whose transport chains the harness
// over the test server.
func chaosClient(h *Harness) *http.Client {
	return &http.Client{Transport: h.Transport(nil)}
}

// submitN posts n submit-class requests, returning per-request outcomes
// ("ok", "error", or "short-read").
func submitN(t *testing.T, c *http.Client, url string, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		resp, err := c.Post(url+"/v1/jobs", "application/json", strings.NewReader("{}"))
		if err != nil {
			out = append(out, "error")
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			out = append(out, "short-read")
			continue
		}
		_ = body
		out = append(out, "ok")
	}
	return out
}

// TestTransportFaultsAndReplay drives a faulty plan against a stub
// worker twice (aliased, same request sequence) and asserts: faults
// fired, never-fault classes passed untouched, reset requests never
// reached the server, reset-after requests did, and the deterministic
// log replays bit-identically after Reset.
func TestTransportFaultsAndReplay(t *testing.T) {
	var submitsSeen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			submitsSeen.Add(1)
		}
		w.Write([]byte(strings.Repeat("x", 2048))) // big enough to truncate/trickle
	}))
	defer srv.Close()

	h, err := New(Plan{
		Seed: 3, ResetRate: 0.25, ResetAfterRate: 0.2, TruncateRate: 0.2,
		LatencyRate: 0.3, LatencyMax: 500 * time.Microsecond,
		SlowLorisRate: 0.2, SlowLorisDelay: 100 * time.Microsecond,
		Partitions: 1, PartitionMax: 4, PartitionHorizon: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Alias(srv.URL, "w0")
	c := chaosClient(h)

	const n = 64
	run1 := submitN(t, c, srv.URL, n)
	seen1 := submitsSeen.Load()
	log1 := h.DeterministicLog()
	if log1 == "" {
		t.Fatal("no deterministic fault events at these rates over 64 requests")
	}

	// Fault classes that never touch status/health: these must always
	// succeed regardless of plan.
	for i := 0; i < 16; i++ {
		resp, err := c.Get(srv.URL + "/v1/jobs/j" + string(rune('0'+i%10)))
		if err != nil {
			t.Fatalf("status request %d faulted: %v", i, err)
		}
		resp.Body.Close()
		resp, err = c.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatalf("health request %d faulted: %v", i, err)
		}
		resp.Body.Close()
	}

	// Injected errors must be chaos errors, and reset (pre) requests must
	// not have reached the server: seen == n - (#reset + #partition).
	cut := 0
	for _, e := range h.Events() {
		if e.Class == ClassSubmit && (e.Kind == "reset" || e.Kind == "partition") {
			cut++
		}
	}
	if int(seen1) != n-cut {
		t.Errorf("server saw %d submits, want %d (64 minus %d reset/partition)", seen1, n-cut, cut)
	}

	// Same-seed replay: Reset, rerun the identical sequence, compare.
	h.Reset()
	submitsSeen.Store(0)
	run2 := submitN(t, c, srv.URL, n)
	log2 := h.DeterministicLog()
	if log1 != log2 {
		t.Fatalf("deterministic log not reproduced:\n--- run1\n%s--- run2\n%s", log1, log2)
	}
	for i := range run1 {
		if run1[i] != run2[i] {
			t.Fatalf("request %d outcome %q vs %q across same-seed runs", i, run1[i], run2[i])
		}
	}
}

// TestTransportTruncate: a truncated response must surface as a
// mid-stream read error (io.ErrUnexpectedEOF), not a clean short body.
func TestTransportTruncate(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte("y"), 4096))
	}))
	defer srv.Close()
	h, _ := New(Plan{Seed: 1, TruncateRate: 1})
	h.Alias(srv.URL, "w0")
	resp, err := chaosClient(h).Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(resp.Body)
	if rerr == nil {
		t.Fatalf("truncated body read cleanly (%d bytes)", len(body))
	}
	if !errors.Is(rerr, io.ErrUnexpectedEOF) {
		t.Errorf("read error = %v, want io.ErrUnexpectedEOF", rerr)
	}
	if len(body) != 2048 {
		t.Errorf("delivered %d bytes before the cut, want half (2048)", len(body))
	}
}

// TestTransportSlowLoris: a trickled response must still deliver every
// byte — the fault is stalling, not loss.
func TestTransportSlowLoris(t *testing.T) {
	payload := bytes.Repeat([]byte("z"), 1500)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(payload)
	}))
	defer srv.Close()
	h, _ := New(Plan{Seed: 1, SlowLorisRate: 1, SlowLorisDelay: time.Microsecond})
	h.Alias(srv.URL, "w0")
	resp, err := chaosClient(h).Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(resp.Body)
	if rerr != nil {
		t.Fatalf("read: %v", rerr)
	}
	if !bytes.Equal(body, payload) {
		t.Errorf("trickled body differs: %d bytes, want %d", len(body), len(payload))
	}
}

// fakeCtrl records crash-schedule callbacks.
type fakeCtrl struct {
	mu        sync.Mutex
	killed    []string
	restarted []string
	done      chan struct{}
}

func (f *fakeCtrl) Kill(url string) {
	f.mu.Lock()
	f.killed = append(f.killed, url)
	f.mu.Unlock()
}

func (f *fakeCtrl) Restart(url string) {
	f.mu.Lock()
	f.restarted = append(f.restarted, url)
	f.mu.Unlock()
	close(f.done)
}

// TestSnapshotCorruptionAndCrash: a corrupted snapshot response must
// fail snapshot.Verify client-side, and the crash schedule must fire
// exactly once per site — triggered by the clean body's verified cycle,
// so corruption cannot mask the crash — then restart.
func TestSnapshotCorruptionAndCrash(t *testing.T) {
	snap := snapshot.Encode(snapshot.Header{Fingerprint: "fp", Cycle: 5000}, bytes.Repeat([]byte("s"), 512))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(snap)
	}))
	defer srv.Close()

	h, err := New(Plan{Seed: 9, CorruptSnapshotRate: 1, CrashAtCycle: 4000, RestartAfter: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	h.Alias(srv.URL, "w0")
	ctrl := &fakeCtrl{done: make(chan struct{})}
	h.Bind(ctrl)
	c := chaosClient(h)

	for i := 0; i < 3; i++ {
		resp, err := c.Get(srv.URL + "/v1/jobs/j1/snapshot")
		if err != nil {
			t.Fatalf("snapshot fetch %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if _, verr := snapshot.Verify(body); verr == nil {
			t.Fatalf("fetch %d: corrupted snapshot still verifies", i)
		}
	}

	select {
	case <-ctrl.done:
	case <-time.After(5 * time.Second):
		t.Fatal("restart never fired")
	}
	ctrl.mu.Lock()
	defer ctrl.mu.Unlock()
	if len(ctrl.killed) != 1 || ctrl.killed[0] != srv.URL {
		t.Errorf("kills = %v, want exactly one for %s", ctrl.killed, srv.URL)
	}
	if len(ctrl.restarted) != 1 {
		t.Errorf("restarts = %v, want exactly one", ctrl.restarted)
	}
	log := h.DeterministicLog()
	if !strings.Contains(log, "w0 crash[0] crash") || !strings.Contains(log, "w0 crash[1] restart") {
		t.Errorf("deterministic log missing crash schedule:\n%s", log)
	}
	// Corruption events are snapshot-class: visible in the full log,
	// excluded from the deterministic one (ticker-driven counts).
	if !strings.Contains(h.Log(), "corrupt-snapshot") {
		t.Error("full log missing corrupt-snapshot events")
	}
	if strings.Contains(log, "corrupt-snapshot") {
		t.Error("deterministic log leaked a ticker-driven class")
	}
}

// TestWaitRestarts: WaitRestarts returns at once with nothing armed,
// returns only after an armed restart has run its worker's Restart,
// fails when its context ends first, and is released when Close stops a
// timer that would otherwise never fire in time.
func TestWaitRestarts(t *testing.T) {
	crash := func(after time.Duration) (*Harness, *fakeCtrl) {
		t.Helper()
		h, err := New(Plan{CrashAtCycle: 1, RestartAfter: after})
		if err != nil {
			t.Fatal(err)
		}
		ctrl := &fakeCtrl{done: make(chan struct{})}
		h.Bind(ctrl)
		s, _ := h.siteFor("http://w0", ClassSnapshot)
		h.observeCycle(s, 1)
		return h, ctrl
	}

	idle, err := New(Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if err := idle.WaitRestarts(context.Background()); err != nil {
		t.Fatalf("nothing armed: %v", err)
	}

	h, ctrl := crash(20 * time.Millisecond)
	defer h.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.WaitRestarts(ctx); err != nil {
		t.Fatalf("armed restart: %v", err)
	}
	ctrl.mu.Lock()
	restarted := len(ctrl.restarted)
	ctrl.mu.Unlock()
	if restarted != 1 {
		t.Errorf("WaitRestarts returned with %d restarts run, want 1", restarted)
	}

	late, _ := crash(time.Hour)
	short, cancelShort := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelShort()
	if err := late.WaitRestarts(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("restart an hour out: WaitRestarts = %v, want a deadline error", err)
	}
	late.Close()
	if err := late.WaitRestarts(context.Background()); err != nil {
		t.Errorf("after Close stopped the timer: %v", err)
	}
}

// TestPartitionAsymmetry: inside a partition window submits die while
// health stays reachable — the asymmetric shape symmetric kills miss.
func TestPartitionAsymmetry(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	// A full-horizon partition: every submit in [0, horizon) is cut.
	h, _ := New(Plan{Seed: 1, Partitions: 1, PartitionMax: 1 << 20, PartitionHorizon: 1})
	h.Alias(srv.URL, "w0")
	c := chaosClient(h)
	_, err := c.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{}"))
	if err == nil {
		t.Fatal("partitioned submit succeeded")
	}
	var ce *Error
	if !errors.As(err, &ce) || ce.Kind != "partition" {
		t.Fatalf("submit error = %v, want chaos partition", err)
	}
	resp, err := c.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("health through partition: %v", err)
	}
	resp.Body.Close()
}
