package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tia/internal/service"
)

// validBatchNetlist is a minimal structurally-valid netlist for template
// vetting tests: source -> sink.
const validBatchNetlist = `
source a : 1 2 3 eod
sink o
wire a.0 -> o.0
`

// TestExpandBatchValidation is the table-driven contract for the strict
// POST /v1/batches validator: exactly one expansion mode, positive seed
// counts, unique explicit job IDs, no per-job options in templates, and
// template netlists that pass the structural validator.
func TestExpandBatchValidation(t *testing.T) {
	cases := map[string]struct {
		req     BatchRequest
		maxRuns int
		wantErr string // substring of the bad_request message; "" means accepted
		wantN   int    // expected run count on success
	}{
		"empty request": {
			req:     BatchRequest{},
			maxRuns: 16,
			wantErr: "no runs",
		},
		"requests and seeds both set": {
			req: BatchRequest{
				Requests: []service.JobRequest{{Workload: "dmm"}},
				Seeds:    []int64{1, 2},
			},
			maxRuns: 16,
			wantErr: "exactly one of",
		},
		"seeds and seed_count both set": {
			req: BatchRequest{
				Seeds:     []int64{1, 2},
				SeedCount: 2,
			},
			maxRuns: 16,
			wantErr: "exactly one of",
		},
		"negative seed_count": {
			req:     BatchRequest{SeedCount: -3},
			maxRuns: 16,
			wantErr: "seed_count -3 must be positive",
		},
		"seed_start without seed_count": {
			req:     BatchRequest{SeedStart: 7},
			maxRuns: 16,
			wantErr: "seed_start needs a positive seed_count",
		},
		"seed_count over the run limit": {
			req:     BatchRequest{SeedCount: 17, Template: service.JobRequest{Workload: "dmm"}},
			maxRuns: 16,
			wantErr: "exceeds the limit",
		},
		"template with job_id": {
			req: BatchRequest{
				Template: service.JobRequest{Workload: "dmm", JobID: "fixed"},
				Seeds:    []int64{1},
			},
			maxRuns: 16,
			wantErr: "per-job options",
		},
		"template with resume_snapshot": {
			req: BatchRequest{
				Template:  service.JobRequest{Workload: "dmm", ResumeSnapshot: []byte{1}},
				SeedCount: 2,
			},
			maxRuns: 16,
			wantErr: "per-job options",
		},
		"template netlist fails the validator": {
			req: BatchRequest{
				Template:  service.JobRequest{Netlist: "source a : 1 eod\nsink o\nwire a.0 -> nobody.0\n"},
				SeedCount: 4,
			},
			maxRuns: 16,
			wantErr: "template netlist",
		},
		"duplicate explicit job_ids": {
			req: BatchRequest{
				Requests: []service.JobRequest{
					{Workload: "dmm", JobID: "j1"},
					{Workload: "dmm", JobID: "j2"},
					{Workload: "dmm", JobID: "j1"},
				},
			},
			maxRuns: 16,
			wantErr: `runs 0 and 2 share job_id "j1"`,
		},
		"explicit run with resume_snapshot": {
			req: BatchRequest{
				Requests: []service.JobRequest{{Workload: "dmm", ResumeSnapshot: []byte{1}}},
			},
			maxRuns: 16,
			wantErr: "resume_snapshot is a per-job option",
		},
		"unique explicit job_ids accepted": {
			req: BatchRequest{
				Requests: []service.JobRequest{
					{Workload: "dmm", JobID: "j1"},
					{Workload: "dmm", JobID: "j2"},
				},
			},
			maxRuns: 16,
			wantN:   2,
		},
		"seed_count expands densely": {
			req:     BatchRequest{SeedCount: 5, SeedStart: 100, Template: service.JobRequest{Workload: "dmm"}},
			maxRuns: 16,
			wantN:   5,
		},
		"valid template netlist accepted": {
			req: BatchRequest{
				Template: service.JobRequest{Netlist: validBatchNetlist},
				Seeds:    []int64{1, 2, 3},
			},
			maxRuns: 16,
			wantN:   3,
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			runs, jerr := expandBatch(&tc.req, tc.maxRuns)
			if tc.wantErr != "" {
				if jerr == nil {
					t.Fatalf("accepted, want error containing %q", tc.wantErr)
				}
				if jerr.Kind != service.ErrBadRequest {
					t.Errorf("kind %s, want bad_request", jerr.Kind)
				}
				if !strings.Contains(jerr.Message, tc.wantErr) {
					t.Errorf("message %q does not contain %q", jerr.Message, tc.wantErr)
				}
				return
			}
			if jerr != nil {
				t.Fatalf("rejected: %v", jerr)
			}
			if len(runs) != tc.wantN {
				t.Fatalf("expanded to %d runs, want %d", len(runs), tc.wantN)
			}
		})
	}
}

// TestExpandBatchSeedCountSeeds pins the dense expansion: SeedCount runs
// seeded SeedStart, SeedStart+1, ...
func TestExpandBatchSeedCountSeeds(t *testing.T) {
	req := BatchRequest{SeedCount: 4, SeedStart: -2, Template: service.JobRequest{Workload: "dmm"}}
	runs, jerr := expandBatch(&req, 16)
	if jerr != nil {
		t.Fatalf("rejected: %v", jerr)
	}
	for i, r := range runs {
		if want := int64(-2 + i); r.Seed != want {
			t.Errorf("run %d seed = %d, want %d", i, r.Seed, want)
		}
		if r.Workload != "dmm" {
			t.Errorf("run %d lost the template workload", i)
		}
	}
}

// TestBatchSeedCountE2E drives the dense form through the coordinator's
// HTTP handler and checks every run lands with its own seed.
func TestBatchSeedCountE2E(t *testing.T) {
	coord, _ := newTestFleet(t, 2, nil, nil)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	status, body := doBatch(t, ts.URL, BatchRequest{
		Template:  service.JobRequest{Workload: "dmm"},
		SeedCount: 6,
		SeedStart: 10,
	})
	if status != http.StatusOK {
		t.Fatalf("batch HTTP %d: %s", status, body)
	}
	var res BatchResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decode batch result: %v", err)
	}
	if res.Completed != 6 || res.Failed != 0 {
		t.Fatalf("batch %d completed / %d failed, want 6/0", res.Completed, res.Failed)
	}
	for i, row := range res.Rows {
		if want := int64(10 + i); row.Seed != want {
			t.Errorf("row %d seed = %d, want %d", i, row.Seed, want)
		}
	}
	// A malformed sweep must be rejected before any run is routed.
	status, body = doBatch(t, ts.URL, BatchRequest{SeedCount: -1})
	if status != http.StatusBadRequest {
		t.Errorf("negative seed_count got HTTP %d, want 400: %s", status, body)
	}
}

// doBatch posts one batch request and returns the status and raw body.
func doBatch(t *testing.T, url string, req BatchRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal batch request: %v", err)
	}
	resp, err := http.Post(url+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/batches: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read batch response: %v", err)
	}
	return resp.StatusCode, raw
}

// TestBatchProvenanceRows pins the per-row provenance mirror of
// POST /v1/batches: campaign rows are never cache hits, repeated plain
// rows are, and the flag surfaces at the row's top level in the JSON
// wire form (not only inside the result payload).
func TestBatchProvenanceRows(t *testing.T) {
	coord, _ := newTestFleet(t, 2, nil, nil)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	// Campaign sweep: each row is a fault campaign, which bypasses the
	// worker's result cache.
	status, body := doBatch(t, ts.URL, BatchRequest{
		Template: service.JobRequest{
			Workload: "dmm",
			Faults:   &service.FaultCampaignRequest{Runs: 6, FlipRate: 0.01},
		},
		SeedCount: 3,
		SeedStart: 40,
	})
	if status != http.StatusOK {
		t.Fatalf("campaign batch HTTP %d: %s", status, body)
	}
	var res BatchResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decode campaign batch: %v", err)
	}
	if res.Completed != 3 {
		t.Fatalf("campaign batch %d completed, want 3: %s", res.Completed, body)
	}
	for i, row := range res.Rows {
		if row.Cached {
			t.Errorf("campaign row %d marked cached; campaigns bypass the result cache", i)
		}
	}

	// Plain sweep, twice: affinity routing sends the repeat to the same
	// workers, so every second-pass row is a cache hit — mirrored on the
	// row.
	plain := BatchRequest{Template: service.JobRequest{Workload: "dmm"}, SeedCount: 4, SeedStart: 7}
	if status, body = doBatch(t, ts.URL, plain); status != http.StatusOK {
		t.Fatalf("plain batch HTTP %d: %s", status, body)
	}
	if status, body = doBatch(t, ts.URL, plain); status != http.StatusOK {
		t.Fatalf("plain batch repeat HTTP %d: %s", status, body)
	}
	res = BatchResult{} // fresh: omitempty fields must not inherit campaign rows
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decode plain batch: %v", err)
	}
	for i, row := range res.Rows {
		if !row.Cached {
			t.Errorf("repeated plain row %d not marked cached", i)
		}
	}
	if !bytes.Contains(body, []byte(`"cached":true`)) {
		t.Errorf("repeated plain batch body carries no cached provenance: %s", body)
	}
}
