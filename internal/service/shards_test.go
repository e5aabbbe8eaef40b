package service

// Wire compatibility for the retired "shards" request field: sharded
// stepping is gone, but JobRequest keeps the field so requests from
// older clients still decode under DisallowUnknownFields. A job that
// names shards is the plain job — same result, same cache entry.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestShardedJobSharesResultCache posts the same workload as raw JSON,
// first plain and then with "shards": 4: the second must be accepted
// and answered from the result cache with a byte-identical payload.
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

	post := func(body string) JobResult {
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
	plain := post(`{"workload":"mergesort","size":12}`)
	sharded := post(`{"workload":"mergesort","size":12,"shards":4}`)
	if plain.Cached {
		t.Error("first submission reported a cache hit")
	}
	if !sharded.Cached {
		t.Error(`"shards" submission missed the result cache despite an identical plain run`)
	}
	// Apart from the provenance flag, the hit is the plain result, byte
	// for byte.
	plain.Cached, sharded.Cached = false, false
	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("results differ:\nplain  %s\nshards %s", a, b)
	}
}
