package service

// Robustness tests for the serving layer: worker panic isolation and
// fault-campaign jobs. These live in the internal package so they can
// reach the scheduler's run-function seam — the netlist and workload
// surfaces are themselves panic-hardened (size caps, validated
// programs), so a deliberately panicking run function is the honest way
// to simulate a simulator bug escaping as a panic.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// mustNew builds a Server, failing the test on configuration errors.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

func TestSchedulerRecoversPanickingJob(t *testing.T) {
	run := func(_ context.Context, _ string, req *JobRequest) (*JobResult, error) {
		if req.Workload == "boom" {
			panic("deliberate test panic")
		}
		return &JobResult{ID: "ok"}, nil
	}
	s, m := stubScheduler(1, 4, run)
	defer s.close()

	_, err := s.submit(context.Background(), "job-t", &JobRequest{Workload: "boom"})
	wantKind(t, err, ErrInternal)
	if !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panic error lacks context: %v", err)
	}
	// The single worker must have survived the panic to serve this.
	res, err := s.submit(context.Background(), "job-t", &JobRequest{Workload: "fine"})
	if err != nil || res.ID != "ok" {
		t.Fatalf("worker died after panic: %v, %v", res, err)
	}
	if got := m.JobsFailed.Load(); got != 1 {
		t.Errorf("JobsFailed = %d, want 1", got)
	}
	if got := m.JobsCompleted.Load(); got != 1 {
		t.Errorf("JobsCompleted = %d, want 1", got)
	}
	if got := m.Running.Load(); got != 0 {
		t.Errorf("Running gauge leaked: %d", got)
	}
}

// A panic inside one HTTP-submitted job must surface as a typed internal
// error on that response only — the daemon keeps serving.
func TestServerSurvivesPanickingJob(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 2
	svc := mustNew(t, cfg)
	orig := svc.sched.run
	svc.sched.run = func(ctx context.Context, id string, req *JobRequest) (*JobResult, error) {
		if req.Netlist == "panic-now" {
			panic("deliberate test panic")
		}
		return orig(ctx, id, req)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func(body string) (int, []byte) {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		payload, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, payload
	}

	status, payload := post(`{"netlist": "panic-now"}`)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking job: status %d, want 500\n%s", status, payload)
	}
	var fail struct {
		Error *JobError `json:"error"`
	}
	if err := json.Unmarshal(payload, &fail); err != nil || fail.Error == nil {
		t.Fatalf("panicking job: no error envelope: %v\n%s", err, payload)
	}
	if fail.Error.Kind != ErrInternal || !strings.Contains(fail.Error.Message, "panicked") {
		t.Errorf("error = %+v, want internal/panicked", fail.Error)
	}

	// The daemon is still healthy and still runs jobs.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %v (%v)", resp, err)
	}
	resp.Body.Close()
	status, payload = post(`{"workload": "dmm"}`)
	if status != http.StatusOK {
		t.Fatalf("job after panic: status %d\n%s", status, payload)
	}
}

func TestFaultCampaignJob(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 2
	svc := mustNew(t, cfg)

	req := &JobRequest{
		Workload: "mergesort", Size: 12, Seed: 11,
		Faults: &FaultCampaignRequest{
			Runs: 12, Seed: 4242, FlipRate: 0.02, DropRate: 0.01,
		},
	}
	res, err := svc.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("campaign job: %v", err)
	}
	if res.Campaign == nil {
		t.Fatal("campaign job returned no summary")
	}
	// Same plan and kernel as core's TestFaultCampaignSmoke: the
	// taxonomy is pinned, not fuzzy.
	want := &CampaignSummary{
		Runs: 12, Masked: 7, Detected: 3, SDC: 1, Hang: 1, Injected: 9,
		GoldenCycles: res.Campaign.GoldenCycles,
	}
	if !reflect.DeepEqual(res.Campaign, want) {
		t.Errorf("campaign = %+v, want %+v", res.Campaign, want)
	}
	if res.Campaign.GoldenCycles <= 0 || res.Cycles != res.Campaign.GoldenCycles {
		t.Errorf("golden cycles not reported: %+v", res.Campaign)
	}

	// Campaign outcomes feed the Prometheus counters.
	m := svc.Metrics()
	got := []int64{m.FaultsInjected.Load(), m.FaultRunsMasked.Load(),
		m.FaultRunsDetected.Load(), m.FaultRunsSilent.Load(), m.FaultRunsHang.Load()}
	if want := []int64{9, 7, 3, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("fault metrics (injected, masked, detected, silent, hang) = %v, want %v", got, want)
	}
	var b strings.Builder
	svc.Metrics().WritePrometheus(&b)
	for _, line := range []string{
		"tia_faults_injected_total 9",
		"tia_fault_runs_detected_total 3",
		"tia_fault_runs_silent_total 1",
	} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("Prometheus exposition missing %q", line)
		}
	}
}

// A timing-only campaign through the service asserts the latency-
// insensitivity property and reports every run masked.
func TestFaultCampaignJobTimingPlan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	svc := mustNew(t, cfg)
	req := &JobRequest{
		Workload: "dmm", Size: 8, Seed: 3,
		Faults: &FaultCampaignRequest{
			Runs: 3, Seed: 77, JitterRate: 0.1, JitterMax: 4, Stalls: 2, StallMax: 9,
		},
	}
	res, err := svc.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("timing campaign: %v", err)
	}
	c := res.Campaign
	if c == nil || !c.Timing || c.Masked != c.Runs || c.Runs != 3 {
		t.Fatalf("timing campaign summary = %+v, want 3/3 masked timing", c)
	}
	if !res.Verified {
		t.Error("timing campaign result not marked verified")
	}
}

func TestFaultCampaignRejectedForNetlistJobs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	svc := mustNew(t, cfg)
	_, err := svc.Submit(context.Background(), &JobRequest{
		Netlist: "source s -> sink k", Faults: &FaultCampaignRequest{Runs: 1},
	})
	wantKind(t, err, ErrBadRequest)
}

func TestFaultCampaignRejectsBadPlan(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	svc := mustNew(t, cfg)
	_, err := svc.Submit(context.Background(), &JobRequest{
		Workload: "dmm",
		Faults:   &FaultCampaignRequest{Runs: 1, FlipRate: 2.0},
	})
	wantKind(t, err, ErrBadRequest)
	if !strings.Contains(err.Error(), "FlipRate") {
		t.Errorf("plan validation message lost: %v", err)
	}
}
