package service

// Tests for the result cache's two keys per entry: the content key
// (resultKey with the program fingerprint) and the pre-build key a job
// computes before it builds a kernel or parses a netlist.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"tia/internal/asm"
	"tia/internal/isa"
	"tia/internal/pcpe"
	"tia/internal/workloads"
)

// keyNetlist is a small fabric that completes in a few cycles.
const keyNetlist = `
source a : 1 2 3 eod
sink out
pe pass
in i
out o
fwd: when i.tag==0 : mov o, i ; deq i
fin: when i.tag==eod : halt o#eod
end
wire a.0 -> pass.i
wire pass.o -> out.0
`

// keyNetlistRespaced has keyNetlist's tokens (and so its TokenHash)
// under other comments, blank lines and indentation.
const keyNetlistRespaced = `// the same fabric, respaced
source   a :  1 2 3   eod

sink out   // collects the stream
pe pass
	in i
	out o
	fwd:  when i.tag==0 :  mov o, i ; deq i
	fin:  when i.tag==eod : halt o#eod
end
wire a.0 -> pass.i
wire pass.o -> out.0`

// postRaw submits req over HTTP and returns the status and raw body.
func postRaw(t *testing.T, url string, req *JobRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// withoutIDAndCached decodes a raw result and re-encodes it with id and
// cached cleared, so a hit's body can be compared with its cold body.
func withoutIDAndCached(t *testing.T, raw []byte) ([]byte, bool) {
	t.Helper()
	var res JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decode result: %v\n%s", err, raw)
	}
	cached := res.Cached
	res.ID, res.Cached = "", false
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b, cached
}

// lookups returns the result cache's hit and miss counters.
func lookups(s *Server) (hits, misses int64) {
	return s.metrics.ResultHits.Load(), s.metrics.ResultMisses.Load()
}

// TestPreBuildKeyHits: a repeated workload job and a respaced netlist
// are answered through the pre-build key, with a body equal to the cold
// body apart from id and cached; each job counts one cache lookup, and
// the netlist hit does not parse.
func TestPreBuildKeyHits(t *testing.T) {
	s := mustNew(t, DefaultConfig())
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, c := range []struct {
		name      string
		cold, hit JobRequest
	}{
		{"workload", JobRequest{Workload: "dmm"}, JobRequest{Workload: "dmm"}},
		{"workload-explicit-defaults", JobRequest{Workload: "mergesort", Seed: 3},
			JobRequest{Workload: "mergesort", Seed: 3, Size: workloadDefaultSize(t, "mergesort")}},
		{"netlist", JobRequest{Netlist: keyNetlist}, JobRequest{Netlist: keyNetlistRespaced}},
	} {
		t.Run(c.name, func(t *testing.T) {
			h0, m0 := lookups(s)
			status, cold := postRaw(t, ts.URL, &c.cold)
			if status != http.StatusOK {
				t.Fatalf("cold job: HTTP %d: %s", status, cold)
			}
			parses := s.metrics.ProgramMisses.Load()
			status, hit := postRaw(t, ts.URL, &c.hit)
			if status != http.StatusOK {
				t.Fatalf("repeat job: HTTP %d: %s", status, hit)
			}
			coldBody, coldCached := withoutIDAndCached(t, cold)
			hitBody, hitCached := withoutIDAndCached(t, hit)
			if coldCached || !hitCached {
				t.Fatalf("cached = %v then %v, want false then true", coldCached, hitCached)
			}
			if !bytes.Equal(coldBody, hitBody) {
				t.Errorf("hit body differs from the cold body:\ncold %s\n hit %s", coldBody, hitBody)
			}
			if h, m := lookups(s); h-h0 != 1 || m-m0 != 1 {
				t.Errorf("two jobs counted %d hits and %d misses, want 1 and 1", h-h0, m-m0)
			}
			if got := s.metrics.ProgramMisses.Load(); got != parses {
				t.Errorf("the hit parsed its netlist (%d parses, want %d)", got, parses)
			}
		})
	}
}

// workloadDefaultSize is the size a zero-size request normalizes to.
func workloadDefaultSize(t *testing.T, name string) int {
	t.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec.DefaultSize
}

// TestPreBuildKeyMisses: NoCache bypasses both keys, and the same
// tokens or kernel under another cycle budget or with tracing miss.
func TestPreBuildKeyMisses(t *testing.T) {
	s := mustNew(t, DefaultConfig())
	defer s.Drain()
	ctx := context.Background()
	for _, base := range []JobRequest{{Workload: "dmm"}, {Netlist: keyNetlist}} {
		cold := base
		if _, err := s.Submit(ctx, &cold); err != nil {
			t.Fatalf("cold %+v: %v", base, err)
		}
		for _, c := range []struct {
			name   string
			mutate func(*JobRequest)
		}{
			{"no-cache", func(r *JobRequest) { r.NoCache = true }},
			{"max-cycles", func(r *JobRequest) { r.MaxCycles = 3_000_000 }},
			{"trace", func(r *JobRequest) { r.Trace = true }},
		} {
			req := base
			c.mutate(&req)
			h0, m0 := lookups(s)
			res, err := s.Submit(ctx, &req)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if res.Cached {
				t.Errorf("%s (workload %q): served from the cache", c.name, base.Workload)
			}
			h, m := lookups(s)
			wantMisses := int64(1)
			if req.NoCache {
				wantMisses = 0
			}
			if h != h0 || m-m0 != wantMisses {
				t.Errorf("%s: counted %d hits and %d misses, want 0 and %d", c.name, h-h0, m-m0, wantMisses)
			}
		}
	}
}

// TestPreBuildKeyNotJournaled: a result replayed from the journal sits
// in the cache under its content key alone; the first job after the
// restart finds it by building once, which registers the pre-build key,
// and the journal never records a pre-build key.
func TestPreBuildKeyNotJournaled(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	s := mustNew(t, cfg)
	res, err := s.Submit(context.Background(), &JobRequest{Workload: "dmm"})
	if err != nil {
		t.Fatal(err)
	}
	preKey := s.results.items[res.Key].Value.(*cacheEntry).alias
	if preKey == "" || preKey == res.Key {
		t.Fatalf("cold job registered pre-build key %q beside content key %q", preKey, res.Key)
	}
	if _, err := s.Submit(context.Background(), &JobRequest{Workload: "dmm"}); err != nil {
		t.Fatal(err)
	}
	s.Drain()

	raw, err := os.ReadFile(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(res.Key)) || bytes.Contains(raw, []byte(preKey)) {
		t.Fatalf("journal holds content key: %v, pre-build key: %v; want true, false",
			bytes.Contains(raw, []byte(res.Key)), bytes.Contains(raw, []byte(preKey)))
	}

	s2 := mustNew(t, cfg)
	defer s2.Drain()
	if _, ok := s2.results.items[preKey]; ok || len(s2.results.items) != 1 {
		t.Fatalf("replayed cache holds %d keys (pre-build key present: %v), want the content key alone",
			len(s2.results.items), ok)
	}
	for i := 0; i < 2; i++ {
		got, err := s2.Submit(context.Background(), &JobRequest{Workload: "dmm"})
		if err != nil || !got.Cached || got.Key != res.Key {
			t.Fatalf("job %d after restart: %+v, %v; want a hit on key %s", i, got, err, res.Key)
		}
		if _, ok := s2.results.items[preKey]; !ok {
			t.Fatalf("job %d after restart did not register the pre-build key", i)
		}
	}
}

// TestCacheTwoKeysPerEntry: the bound counts entries, not keys;
// evicting an entry drops both keys, and a new alias replaces the old.
func TestCacheTwoKeysPerEntry(t *testing.T) {
	c := newCache(2)
	c.put("a", 1)
	c.alias("a'", "a")
	c.put("b", 2)
	c.alias("b'", "b")
	c.alias("x'", "missing") // no entry: ignored
	if len(c.items) != 4 || c.order.Len() != 2 {
		t.Fatalf("two entries hold %d keys in %d entries, want 4 in 2", len(c.items), c.order.Len())
	}
	if v, ok := c.get("a'"); !ok || v != 1 {
		t.Fatalf("alias a' = %v, %v", v, ok)
	}
	c.put("c", 3) // evicts b, the least recently used
	for _, k := range []string{"b", "b'"} {
		if _, ok := c.get(k); ok {
			t.Errorf("key %q outlived its evicted entry", k)
		}
	}
	c.alias("a''", "a")
	if _, ok := c.get("a'"); ok {
		t.Error("the replaced alias a' still resolves")
	}
	if v, ok := c.get("a''"); !ok || v != 1 {
		t.Errorf("alias a'' = %v, %v", v, ok)
	}
}

// TestWorkloadHitAllocationBounded gates the hit path: a repeated
// workload or netlist Submit allocates far less than one kernel build or
// one netlist parse, so a hit that builds or parses again fails here.
func TestWorkloadHitAllocationBounded(t *testing.T) {
	s := mustNew(t, DefaultConfig())
	defer s.Drain()
	ctx := context.Background()

	spec, err := workloads.ByName("dmm")
	if err != nil {
		t.Fatal(err)
	}
	p := spec.Normalize(workloads.Params{})
	build := testing.AllocsPerRun(3, func() {
		inst, err := spec.BuildTIA(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range inst.PEs {
			asm.HashTIAProgram(pr.Program())
		}
	})
	parse := testing.AllocsPerRun(3, func() {
		if _, err := asm.ParseNetlist(keyNetlist, isa.DefaultConfig(), pcpe.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	})

	for _, c := range []struct {
		name string
		req  JobRequest
		cold float64 // allocations of the work a hit must skip
	}{
		{"workload", JobRequest{Workload: "dmm"}, build},
		{"netlist", JobRequest{Netlist: keyNetlist}, parse},
	} {
		if _, err := s.Submit(ctx, &c.req); err != nil {
			t.Fatal(err)
		}
		hit := testing.AllocsPerRun(20, func() {
			req := c.req
			res, err := s.Submit(ctx, &req)
			if err != nil || !res.Cached {
				t.Fatalf("repeat %s: %+v, %v", c.name, res, err)
			}
		})
		t.Logf("%s: hit %.0f allocs, skipped work %.0f allocs", c.name, hit, c.cold)
		if hit > c.cold/4 {
			t.Errorf("%s hit allocates %.0f, over a quarter of the %.0f of the build or parse it should skip",
				c.name, hit, c.cold)
		}
	}
}
