package service

// Wire compatibility for the retired stepping fields "shards" and
// "compiled": sharded stepping is gone and compiled stepping is how
// every fabric runs, but JobRequest keeps both fields so requests from
// older clients still decode under DisallowUnknownFields. A job that
// names either is the plain job — same result, same cache entry.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestShardedJobSharesResultCache posts the same workload as raw JSON,
// first plain and then with each retired field: every such submission
// must be accepted and answered from the result cache with a
// byte-identical payload.
func TestShardedJobSharesResultCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(t *testing.T, body string) JobResult {
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
		return res
	}
	plain := post(t, `{"workload":"mergesort","size":12}`)
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
			got := post(t, tc.body)
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
