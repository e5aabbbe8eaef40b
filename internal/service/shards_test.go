package service

// Wire compatibility for the retired fields "shards", "compiled" and
// "faults.lanes": sharded stepping is gone, compiled stepping is how
// every fabric runs, and every campaign re-arms one instance, but the
// request keeps all three fields so requests from older clients still
// decode under DisallowUnknownFields. A job that names any of them is
// the plain job — same result, same cache entry.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// newCompatServer serves a one-worker service over HTTP and returns a
// function that posts a raw JSON job, fails the test unless it is
// answered 200, and returns the raw and decoded result.
func newCompatServer(t *testing.T) func(t *testing.T, body string) ([]byte, JobResult) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return func(t *testing.T, body string) ([]byte, JobResult) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", body, resp.StatusCode, raw)
		}
		var res JobResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("decode %s: %v", raw, err)
		}
		return raw, res
	}
}

// TestShardedJobSharesResultCache posts the same workload as raw JSON,
// first plain and then with each retired field: every such submission
// must be accepted and answered from the result cache with a
// byte-identical payload.
func TestShardedJobSharesResultCache(t *testing.T) {
	post := newCompatServer(t)
	_, plain := post(t, `{"workload":"mergesort","size":12}`)
	if plain.Cached {
		t.Error("first submission reported a cache hit")
	}
	// Apart from the provenance flag, a hit is the plain result, byte
	// for byte.
	plain.Cached = false
	want, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, body string }{
		{"shards", `{"workload":"mergesort","size":12,"shards":4}`},
		{"compiled", `{"workload":"mergesort","size":12,"compiled":true}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, got := post(t, tc.body)
			if !got.Cached {
				t.Errorf("%q submission missed the result cache despite an identical plain run", tc.name)
			}
			got.Cached = false
			b, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, b) {
				t.Errorf("results differ:\nplain %s\n%-5s %s", want, tc.name, b)
			}
		})
	}
}

// TestCampaignLanesIgnored posts one fault campaign with and without
// the retired "lanes" field: every lane count is accepted, the
// campaigns are identical, and no result carries lane provenance.
func TestCampaignLanesIgnored(t *testing.T) {
	post := newCompatServer(t)
	const job = `{"workload":"mergesort","size":12,"seed":11,"faults":{"runs":12,"seed":4242,"flip_rate":0.02,"drop_rate":0.01%s}}`
	_, want := post(t, fmt.Sprintf(job, ""))
	if want.Campaign == nil || want.Campaign.Runs != 12 {
		t.Fatalf("campaign summary = %+v, want 12 runs", want.Campaign)
	}
	for _, lanes := range []int{0, 1, 8, 64, 1000} {
		raw, got := post(t, fmt.Sprintf(job, fmt.Sprintf(`,"lanes":%d`, lanes)))
		if !reflect.DeepEqual(got.Campaign, want.Campaign) || got.Cycles != want.Cycles {
			t.Errorf("lanes %d: campaign %+v (cycles %d), want %+v (cycles %d)", lanes, got.Campaign, got.Cycles, want.Campaign, want.Cycles)
		}
		if strings.Contains(string(raw), `"lanes"`) || strings.Contains(string(raw), `"batched"`) {
			t.Errorf("lanes %d: result carries lane provenance: %s", lanes, raw)
		}
	}
}
