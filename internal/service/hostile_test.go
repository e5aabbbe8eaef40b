package service_test

// Hostile-input contract: every malformed or over-budget netlist in the
// committed corpus (testdata/hostile) must come back from POST /v1/jobs
// as a typed bad_request (HTTP 400) or resource_limit (HTTP 422) error.
// Never an "internal" error — a 500 here would mean a worker panicked
// on attacker-controlled input — and the server must keep serving valid
// jobs afterwards.

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tia/internal/asm"
	"tia/internal/limits"
	"tia/internal/service"
)

// hostileConfig is a worker with a modest per-job resource budget, so
// the corpus can cover both rejection kinds: structural (bad_request)
// and over-budget (resource_limit).
func hostileConfig() service.Config {
	cfg := testConfig()
	cfg.Limits = limits.Limits{MaxScratchpadWords: 1 << 20}
	return cfg
}

func TestHostileNetlistCorpus(t *testing.T) {
	entries, err := os.ReadDir("testdata/hostile")
	if err != nil {
		t.Fatalf("hostile corpus: %v", err)
	}
	svc := newServer(t, hostileConfig())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	corpus := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".tia") {
			continue
		}
		corpus++
		src, err := os.ReadFile(filepath.Join("testdata/hostile", name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) {
			status, res, jerr := postJob(t, ts.Client(), ts.URL, &service.JobRequest{Netlist: string(src)})
			if jerr == nil {
				t.Fatalf("accepted hostile netlist (result %+v)", res)
			}
			if status != 400 && status != 422 {
				t.Errorf("HTTP %d, want 400 or 422", status)
			}
			if jerr.Kind != service.ErrBadRequest && jerr.Kind != service.ErrResourceLimit {
				t.Errorf("error kind %q, want bad_request or resource_limit (message: %s)", jerr.Kind, jerr.Message)
			}
			if jerr.Kind == service.ErrInternal {
				t.Errorf("hostile input produced an internal error — a worker panic leaked: %s", jerr.Message)
			}
		})
	}
	if corpus < 15 {
		t.Fatalf("hostile corpus holds %d netlists, want >= 15", corpus)
	}

	// The rejections must not have wedged the worker: a well-formed job
	// still completes, and the governor released every reservation.
	status, res, jerr := postJob(t, ts.Client(), ts.URL, &service.JobRequest{Netlist: mergeNetlist})
	if jerr != nil || status != 200 || !res.Completed {
		t.Fatalf("valid job after hostile corpus: status %d res %+v err %v", status, res, jerr)
	}
	if got := svc.Metrics().JobsRejectedResource.Load(); got < 1 {
		t.Errorf("JobsRejectedResource = %d, want >= 1 (over-budget.tia)", got)
	}
}

// TestResourceGovernorE2E pins the over-budget path end to end: a
// structurally valid topology past the per-job budget is refused with a
// typed resource_limit error and HTTP 422, the rejection counter moves,
// and the same netlist sails through a server with no limits set.
func TestResourceGovernorE2E(t *testing.T) {
	src, err := os.ReadFile("testdata/hostile/over-budget.tia")
	if err != nil {
		t.Fatalf("read over-budget.tia: %v", err)
	}

	limited := newServer(t, hostileConfig())
	ts := httptest.NewServer(limited.Handler())
	defer ts.Close()
	status, _, jerr := postJob(t, ts.Client(), ts.URL, &service.JobRequest{Netlist: string(src)})
	if jerr == nil || jerr.Kind != service.ErrResourceLimit {
		t.Fatalf("over-budget job: error %+v, want resource_limit", jerr)
	}
	if status != 422 {
		t.Errorf("over-budget job: HTTP %d, want 422", status)
	}
	if got := limited.Metrics().JobsRejectedResource.Load(); got != 1 {
		t.Errorf("JobsRejectedResource = %d, want 1", got)
	}

	// Rejection is a budget decision, not a structural one: without
	// limits the same netlist is admitted and runs to completion.
	open := newServer(t, testConfig())
	ts2 := httptest.NewServer(open.Handler())
	defer ts2.Close()
	status, res, jerr := postJob(t, ts2.Client(), ts2.URL, &service.JobRequest{Netlist: string(src)})
	if jerr != nil || status != 200 || !res.Completed {
		t.Fatalf("unlimited server refused the same netlist: status %d res %+v err %v", status, res, jerr)
	}
}

// TestGovernorCacheHitReadmission pins that every submission is
// admitted: a repeat of an over-budget source is parsed and
// cost-modeled again, and rejected exactly like the first.
func TestGovernorCacheHitReadmission(t *testing.T) {
	src, err := os.ReadFile("testdata/hostile/over-budget.tia")
	if err != nil {
		t.Fatalf("read over-budget.tia: %v", err)
	}
	svc := newServer(t, hostileConfig())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		_, _, jerr := postJob(t, ts.Client(), ts.URL, &service.JobRequest{Netlist: string(src)})
		if jerr == nil || jerr.Kind != service.ErrResourceLimit {
			t.Fatalf("submission %d: error %+v, want resource_limit", i, jerr)
		}
	}
	if got := svc.Metrics().JobsRejectedResource.Load(); got != 2 {
		t.Errorf("JobsRejectedResource = %d, want 2", got)
	}
}

// TestWorkloadChannelKnobsRejected pins the boundary rules on a workload
// job's channel knobs, the same ones the netlist assembler applies to
// its own cap and lat: a negative latency, a negative capacity or a
// capacity above the fabric limit is a typed bad_request (HTTP 400),
// never a worker panic surfacing as an internal error nor a silent run
// at the default capacity.
func TestWorkloadChannelKnobsRejected(t *testing.T) {
	svc := newServer(t, testConfig())
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, c := range []struct {
		name string
		req  service.JobRequest
	}{
		{"negative-latency", service.JobRequest{Workload: "dmm", ChannelCapacity: 2, ChannelLatency: -1}},
		{"negative-latency-default-capacity", service.JobRequest{Workload: "dmm", ChannelLatency: -1}},
		{"capacity-over-limit", service.JobRequest{Workload: "dmm", ChannelCapacity: asm.MaxChannelCap + 1}},
		{"negative-capacity", service.JobRequest{Workload: "dmm", ChannelCapacity: -5}},
		{"campaign-negative-latency", service.JobRequest{Workload: "mergesort", Size: 12, ChannelLatency: -1,
			Faults: &service.FaultCampaignRequest{Runs: 2, Seed: 1, FlipRate: 0.02}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			status, res, jerr := postJob(t, ts.Client(), ts.URL, &c.req)
			if jerr == nil {
				t.Fatalf("accepted: %+v", res)
			}
			if status != 400 || jerr.Kind != service.ErrBadRequest {
				t.Errorf("HTTP %d kind %q, want 400 bad_request (message: %s)", status, jerr.Kind, jerr.Message)
			}
			if strings.Contains(jerr.Message, "panicked") {
				t.Errorf("worker panic leaked: %s", jerr.Message)
			}
		})
	}

	// The knobs at their limits' safe side still run.
	status, res, jerr := postJob(t, ts.Client(), ts.URL, &service.JobRequest{Workload: "dmm", ChannelCapacity: 2, ChannelLatency: 0})
	if jerr != nil || status != 200 || !res.Verified {
		t.Fatalf("valid knobs: status %d res %+v err %v", status, res, jerr)
	}
}
