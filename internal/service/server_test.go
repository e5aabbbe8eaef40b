package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"tia/internal/service"
)

// spinnerNetlist fires a predicate-only nop every cycle and never
// completes its sink, so a run lasts exactly its cycle budget — the
// ideal victim for cancellation and deadline tests.
const spinnerNetlist = `
sink out
pe spin
out o
pred p
loop: when !p : nop
end
wire spin.o -> out.0
`

// mergeNetlist is the paper's running example, inlined as a fixture.
const mergeNetlist = `
source a : 1 3 5 7 eod
source b : 2 4 6 8 eod
sink out

pe merge
in a b
out o
pred sel cvalid adone bdone

cmp:    when !cvalid !adone !bdone a.tag==0 b.tag==0 : leu p:sel, a, b ; set cvalid
sendA:  when cvalid sel : mov o, a ; deq a ; clr cvalid
sendB:  when cvalid !sel : mov o, b ; deq b ; clr cvalid
eodA:   when !cvalid !adone a.tag==eod : nop ; deq a ; set adone
eodB:   when !cvalid !bdone b.tag==eod : nop ; deq b ; set bdone
drainA: when bdone !adone a.tag==0 : mov o, a ; deq a
drainB: when adone !bdone b.tag==0 : mov o, b ; deq b
fin:    when adone bdone : halt o#eod
end

wire a.0 -> merge.a
wire b.0 -> merge.b
wire merge.o -> out.0
`

// mergeNetlistCosmetic assembles to the same program as mergeNetlist:
// extra comments and whitespace, declarations in a different order.
const mergeNetlistCosmetic = `
// Cosmetically different spelling of the same fabric.
sink out
source b : 2 4 6 8 eod
source a : 1 3 5 7 eod

pe merge
in a b
out o
pred sel cvalid adone bdone
cmp:    when !cvalid !adone !bdone a.tag==0 b.tag==0 : leu   p:sel, a, b ; set cvalid
sendA:  when cvalid sel     : mov o, a ; deq a ; clr cvalid   // take the left stream
sendB:  when cvalid !sel    : mov o, b ; deq b ; clr cvalid
eodA:   when !cvalid !adone a.tag==eod : nop ; deq a ; set adone
eodB:   when !cvalid !bdone b.tag==eod : nop ; deq b ; set bdone
drainA: when bdone !adone a.tag==0 : mov o, a ; deq a
drainB: when adone !bdone b.tag==0 : mov o, b ; deq b
fin:    when adone bdone : halt o#eod
end

wire merge.o -> out.0
wire b.0 -> merge.b
wire a.0 -> merge.a
`

func testConfig() service.Config {
	cfg := service.DefaultConfig()
	cfg.Workers = 2
	return cfg
}

// newServer builds a Server, failing the test on configuration errors.
func newServer(t *testing.T, cfg service.Config) *service.Server {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	return svc
}

func submitErr(t *testing.T, svc *service.Server, req *service.JobRequest) *service.JobError {
	t.Helper()
	_, err := svc.Submit(context.Background(), req)
	if err == nil {
		t.Fatal("Submit succeeded, want typed job error")
	}
	je, ok := err.(*service.JobError)
	if !ok {
		t.Fatalf("Submit error is %T (%v), want *JobError", err, err)
	}
	return je
}

// postJob submits a job over real HTTP and decodes either payload.
func postJob(t *testing.T, client *http.Client, url string, req *service.JobRequest) (int, *service.JobResult, *service.JobError) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := client.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if resp.StatusCode == http.StatusOK {
		var res service.JobResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("decode result: %v\n%s", err, raw)
		}
		return resp.StatusCode, &res, nil
	}
	var envelope struct {
		Error *service.JobError `json:"error"`
	}
	if err := json.Unmarshal(raw, &envelope); err != nil || envelope.Error == nil {
		t.Fatalf("decode error envelope (status %d): %v\n%s", resp.StatusCode, err, raw)
	}
	return resp.StatusCode, nil, envelope.Error
}

// mixedNetlist chains a PC-style PE, whose loop pays a taken-branch
// penalty per token, into a triggered PE: one fabric with both kinds.
const mixedNetlist = `
source s : 5 6 7 8 eod
sink k

pcpe fwd
in a
out o
loop: bne a.tag, #0, fin
      mov o, a.pop
      jmp loop
fin:  halt o#eod
end

pe pass
in i
out o
fwd: when i.tag==0 : mov o, i ; deq i
fin: when i.tag==eod : halt o#eod ; deq i
end

wire s.0 -> fwd.a
wire fwd.o -> pass.i
wire pass.o -> k.0
`

// counterValue reads one unlabeled counter from a Prometheus exposition.
func counterValue(t *testing.T, exposition []byte, name string) int64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindSubmatch(exposition)
	if m == nil {
		t.Fatalf("/metrics missing %s", name)
	}
	n, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return n
}

// TestServerEndToEnd is the acceptance scenario: the dmm workload
// submitted twice over HTTP (fresh run matching E1, then a cache hit),
// a 1ms-deadline job that is cancelled without leaking goroutines, a
// and a /metrics exposition that reflects all three jobs.
func TestServerEndToEnd(t *testing.T) {
	svc := newServer(t, testConfig())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	// First dmm run simulates and must reproduce E1's 1221 cycles.
	status, res, jerr := postJob(t, client, ts.URL, &service.JobRequest{Workload: "dmm"})
	if jerr != nil {
		t.Fatalf("dmm job failed (%d): %v", status, jerr)
	}
	if res.Cycles != 1221 {
		t.Errorf("dmm cycles = %d, want 1221 (experiment E1)", res.Cycles)
	}
	if res.Cached || !res.Verified || !res.Completed {
		t.Errorf("first dmm run: cached=%v verified=%v completed=%v, want false/true/true",
			res.Cached, res.Verified, res.Completed)
	}

	// Second identical submission must be served from the result cache.
	_, res2, jerr := postJob(t, client, ts.URL, &service.JobRequest{Workload: "dmm"})
	if jerr != nil {
		t.Fatalf("second dmm job failed: %v", jerr)
	}
	if !res2.Cached {
		t.Error("second dmm run not served from cache")
	}
	if res2.Key != res.Key || res2.Cycles != res.Cycles {
		t.Errorf("cache hit diverges: key %s vs %s, cycles %d vs %d",
			res2.Key, res.Key, res2.Cycles, res.Cycles)
	}

	// A 1ms-deadline job against a spinner that would otherwise run for
	// 50M cycles: the deadline must stop it mid-flight, and the handler
	// goroutines must wind down (no leak).
	client.CloseIdleConnections()
	time.Sleep(20 * time.Millisecond)
	baseline := runtime.NumGoroutine()
	status, _, jerr = postJob(t, client, ts.URL, &service.JobRequest{
		Netlist: spinnerNetlist, MaxCycles: 50_000_000, DeadlineMs: 1,
	})
	if jerr == nil {
		t.Fatal("deadline job succeeded, want cancellation error")
	}
	if jerr.Kind != service.ErrDeadline {
		t.Errorf("deadline job error kind = %s, want %s", jerr.Kind, service.ErrDeadline)
	}
	if status != http.StatusGatewayTimeout {
		t.Errorf("deadline job status = %d, want %d", status, http.StatusGatewayTimeout)
	}
	client.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after cancelled job: %d goroutines, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// /metrics must reflect all three jobs.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	metricsText, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	for _, want := range []string{
		"tia_jobs_completed_total 2",
		"tia_jobs_cancelled_total 1",
		"tia_result_cache_hits_total 1",
		"tia_jobs_failed_total 0",
		"tia_job_queue_depth 0",
		"tia_jobs_running 0",
	} {
		if !strings.Contains(string(metricsText), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The cancelled job may or may not have reached a worker before its
	// 1ms deadline fired, so started is 2 or 3 — but never more.
	if n := counterValue(t, metricsText, "tia_jobs_started_total"); n < 2 || n > 3 {
		t.Errorf("tia_jobs_started_total = %d, want 2 or 3", n)
	}
	if cycles := svc.Metrics().CyclesSimulated.Load(); cycles < 1221 {
		t.Errorf("tia_cycles_simulated_total = %d, want >= 1221", cycles)
	}
}

// TestElementSharesSumToOne checks the per-element utilization
// breakdown is complete: for every triggered and PC-style PE, occupancy
// plus every stall share (the PC PE's taken-branch penalty included)
// accounts for all of its cycles.
func TestElementSharesSumToOne(t *testing.T) {
	svc := newServer(t, testConfig())
	defer svc.Drain()
	res, err := svc.Submit(context.Background(), &service.JobRequest{Netlist: mixedNetlist})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range res.Elements {
		if e.Kind != "pe" && e.Kind != "pcpe" {
			continue
		}
		kinds[e.Kind]++
		sum := e.Occupancy + e.InputStall + e.OutputStall + e.Idle + e.Penalty
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s %s: shares sum to %v, want 1: %+v", e.Kind, e.Name, sum, e)
		}
	}
	if kinds["pe"] == 0 || kinds["pcpe"] == 0 {
		t.Fatalf("netlist elements %+v: want at least one pe and one pcpe", res.Elements)
	}
}

// TestNetlistDeterminism checks the result-cache contract: a cached
// result is byte-for-byte identical to a fresh (cache-bypassing) rerun
// of the same netlist.
func TestNetlistDeterminism(t *testing.T) {
	svc := newServer(t, testConfig())
	defer svc.Drain()

	normalize := func(r *service.JobResult) []byte {
		c := *r
		c.ID = ""
		c.Cached = false
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal result: %v", err)
		}
		return b
	}
	fresh, err := svc.Submit(context.Background(), &service.JobRequest{Netlist: mergeNetlist})
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	rerun, err := svc.Submit(context.Background(), &service.JobRequest{Netlist: mergeNetlist, NoCache: true})
	if err != nil {
		t.Fatalf("no-cache rerun: %v", err)
	}
	cached, err := svc.Submit(context.Background(), &service.JobRequest{Netlist: mergeNetlist})
	if err != nil {
		t.Fatalf("cached run: %v", err)
	}
	if rerun.Cached {
		t.Error("NoCache rerun was served from cache")
	}
	if !cached.Cached {
		t.Error("third submission not served from cache")
	}
	if got, want := fmt.Sprint(fresh.Sinks["out"]), "[1 2 3 4 5 6 7 8 0#1]"; got != want {
		t.Errorf("merge output = %s, want %s", got, want)
	}
	if !bytes.Equal(normalize(fresh), normalize(rerun)) {
		t.Errorf("fresh run and no-cache rerun diverge:\n%s\n%s", normalize(fresh), normalize(rerun))
	}
	if !bytes.Equal(normalize(cached), normalize(rerun)) {
		t.Errorf("cached result and fresh rerun diverge:\n%s\n%s", normalize(cached), normalize(rerun))
	}
}

// TestFingerprintCosmeticInvariance submits two textually different
// spellings of the same fabric: both are parsed, but the result cache
// hits, because the assembled-form fingerprint is identical.
func TestFingerprintCosmeticInvariance(t *testing.T) {
	svc := newServer(t, testConfig())
	defer svc.Drain()

	first, err := svc.Submit(context.Background(), &service.JobRequest{Netlist: mergeNetlist})
	if err != nil {
		t.Fatalf("first spelling: %v", err)
	}
	second, err := svc.Submit(context.Background(), &service.JobRequest{Netlist: mergeNetlistCosmetic})
	if err != nil {
		t.Fatalf("second spelling: %v", err)
	}
	if first.Fingerprint != second.Fingerprint {
		t.Errorf("fingerprints differ across cosmetic edits:\n%s\n%s", first.Fingerprint, second.Fingerprint)
	}
	if !second.Cached {
		t.Error("cosmetic respelling missed the result cache")
	}
	m := svc.Metrics()
	if got := m.ProgramMisses.Load(); got != 2 {
		t.Errorf("ProgramMisses = %d, want 2 (one parse per job)", got)
	}
	if got := m.ResultHits.Load(); got != 1 {
		t.Errorf("ResultHits = %d, want 1 (same fingerprint)", got)
	}
}

// TestMidFlightCancellation cancels a running simulation and checks the
// typed error reports how far it got.
func TestMidFlightCancellation(t *testing.T) {
	svc := newServer(t, testConfig())
	defer svc.Drain()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := svc.Submit(ctx, &service.JobRequest{Netlist: spinnerNetlist, MaxCycles: 2_000_000_000})
	je, ok := err.(*service.JobError)
	if !ok {
		t.Fatalf("got %v, want *JobError", err)
	}
	if je.Kind != service.ErrCancelled {
		t.Errorf("error kind = %s, want %s", je.Kind, service.ErrCancelled)
	}
	if je.Cycles <= 0 {
		t.Errorf("cancelled mid-flight at cycle %d, want > 0", je.Cycles)
	}
}

// TestDeadlineExpiry runs the spinner under a short per-job deadline.
func TestDeadlineExpiry(t *testing.T) {
	svc := newServer(t, testConfig())
	defer svc.Drain()

	je := submitErr(t, svc, &service.JobRequest{
		Netlist: spinnerNetlist, MaxCycles: 2_000_000_000, DeadlineMs: 5,
	})
	if je.Kind != service.ErrDeadline {
		t.Errorf("error kind = %s, want %s", je.Kind, service.ErrDeadline)
	}
}

// TestCycleBudgetExhaustion checks that a run hitting MaxCycles is a
// typed failure, never silently truncated into a result.
func TestCycleBudgetExhaustion(t *testing.T) {
	svc := newServer(t, testConfig())
	defer svc.Drain()

	je := submitErr(t, svc, &service.JobRequest{Netlist: spinnerNetlist, MaxCycles: 10_000})
	if je.Kind != service.ErrCycleBudget {
		t.Errorf("error kind = %s, want %s", je.Kind, service.ErrCycleBudget)
	}
	if je.Cycles != 10_000 {
		t.Errorf("budget error at cycle %d, want 10000", je.Cycles)
	}
}

// TestDeadlockDetection feeds a sink that never sees EOD.
func TestDeadlockDetection(t *testing.T) {
	svc := newServer(t, testConfig())
	defer svc.Drain()

	je := submitErr(t, svc, &service.JobRequest{Netlist: "source a : 1 2\nsink out\nwire a.0 -> out.0\n"})
	if je.Kind != service.ErrDeadlock {
		t.Errorf("error kind = %s, want %s", je.Kind, service.ErrDeadlock)
	}
}

// strandedMergeNetlist is examples/netlists/merge.tia with stream a cut
// short: it ends after 1 3, without EOD.
const strandedMergeNetlist = `
source a : 1 3
source b : 2 4 6 8 9 10 eod
sink out

pe merge
in a b
out o
pred sel cvalid adone bdone

cmp:    when !cvalid !adone !bdone a.tag==0 b.tag==0 : leu p:sel, a, b ; set cvalid
sendA:  when cvalid sel : mov o, a ; deq a ; clr cvalid
sendB:  when cvalid !sel : mov o, b ; deq b ; clr cvalid
eodA:   when !cvalid !adone a.tag==eod : nop ; deq a ; set adone
eodB:   when !cvalid !bdone b.tag==eod : nop ; deq b ; set bdone
drainA: when bdone !adone a.tag==0 : mov o, a ; deq a
drainB: when adone !bdone b.tag==0 : mov o, b ; deq b
fin:    when adone bdone : halt o#eod
end

wire a.0 -> merge.a
wire b.0 -> merge.b
wire merge.o -> out.0
`

// TestStrandedTokenDeadlock: a merge whose a stream ends without EOD
// stops with b's tokens still queued in front of it. That fixed point is
// a deadlock with the wait-for diagnosis, reported within a few cycles,
// not a run spun out to its cycle budget.
func TestStrandedTokenDeadlock(t *testing.T) {
	svc := newServer(t, testConfig())
	defer svc.Drain()

	je := submitErr(t, svc, &service.JobRequest{Netlist: strandedMergeNetlist, MaxCycles: 1_000_000})
	if je.Kind != service.ErrDeadlock {
		t.Fatalf("error kind = %s (%s), want %s", je.Kind, je.Message, service.ErrDeadlock)
	}
	if !strings.Contains(je.Message, "channel b.out0->merge.in1 holds 4 tokens") || je.Cycles > 100 {
		t.Errorf("deadlock at cycle %d: %s; want the stranded tokens named, early", je.Cycles, je.Message)
	}
}

// TestBadRequests exercises the request-validation and compile errors.
func TestBadRequests(t *testing.T) {
	svc := newServer(t, testConfig())
	defer svc.Drain()

	for name, tc := range map[string]struct {
		req  service.JobRequest
		kind service.ErrorKind
	}{
		"empty":                       {service.JobRequest{}, service.ErrBadRequest},
		"both":                        {service.JobRequest{Workload: "dmm", Netlist: spinnerNetlist}, service.ErrBadRequest},
		"unknown workload":            {service.JobRequest{Workload: "nonesuch"}, service.ErrBadRequest},
		"bad netlist":                 {service.JobRequest{Netlist: "pe broken\nend\n"}, service.ErrBadRequest},
		"negative max_cycles":         {service.JobRequest{Workload: "dmm", MaxCycles: -1}, service.ErrBadRequest},
		"negative max_cycles netlist": {service.JobRequest{Netlist: spinnerNetlist, MaxCycles: -5}, service.ErrBadRequest},
	} {
		req := tc.req
		if je := submitErr(t, svc, &req); je.Kind != tc.kind {
			t.Errorf("%s: error kind = %s, want %s", name, je.Kind, tc.kind)
		}
	}
}

// TestDrainAndHealthz flips the server into draining and checks both
// the submission path and the health endpoint.
func TestDrainAndHealthz(t *testing.T) {
	svc := newServer(t, testConfig())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", resp.StatusCode)
	}

	svc.Drain()
	if je := submitErr(t, svc, &service.JobRequest{Workload: "dmm"}); je.Kind != service.ErrDraining {
		t.Errorf("post-drain submit kind = %s, want %s", je.Kind, service.ErrDraining)
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz while draining: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/healthz while draining = %d, want 503", resp.StatusCode)
	}
	status, _, jerr := postJob(t, ts.Client(), ts.URL, &service.JobRequest{Workload: "dmm"})
	if status != http.StatusServiceUnavailable || jerr == nil || jerr.Kind != service.ErrDraining {
		t.Errorf("POST while draining: status %d, err %v; want 503 draining", status, jerr)
	}
}

// TestWorkloadsEndpoint lists the built-in kernels.
func TestWorkloadsEndpoint(t *testing.T) {
	svc := newServer(t, testConfig())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Drain()

	resp, err := ts.Client().Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatalf("GET /v1/workloads: %v", err)
	}
	defer resp.Body.Close()
	var infos []service.WorkloadInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatalf("decode workloads: %v", err)
	}
	names := map[string]bool{}
	for _, wi := range infos {
		names[wi.Name] = true
	}
	if !names["dmm"] {
		t.Errorf("workload list %v missing dmm", names)
	}
}

// TestWorkloadTraceJob requests a Chrome trace and sanity-checks it.
func TestWorkloadTraceJob(t *testing.T) {
	svc := newServer(t, testConfig())
	defer svc.Drain()

	res, err := svc.Submit(context.Background(), &service.JobRequest{Workload: "dmm", Trace: true})
	if err != nil {
		t.Fatalf("traced dmm job: %v", err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("traced job returned no trace payload")
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(res.Trace, &tr); err != nil {
		t.Fatalf("trace is not Chrome trace-event JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
	if len(res.Elements) == 0 {
		t.Error("result has no element stats")
	}
}
