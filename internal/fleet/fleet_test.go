package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"tia/internal/service"
)

// counterNetlist counts a register down from k and emits the final
// value: wall-clock scales with k (k+5 cycles), fabric state stays a
// few hundred bytes — long enough to kill mid-run, small enough that
// its snapshot migrates inline.
func counterNetlist(k int64) string {
	return fmt.Sprintf(`
source go : %d eod
sink out

pe cnt
in g
out o
reg k
pred run done

ld:   when !run !done g.tag==0 : mov k, g ; deq g ; set run
dec:  when run : sub k, p:run, k, #1
emit: when !run !done g.tag==eod : mov o, k ; deq g ; set done
fin:  when done : halt o#eod
end

wire go.0 -> cnt.g
wire cnt.o -> out.0
`, k)
}

// killable fronts a worker handler and can simulate sudden process
// death: once dead, every connection is severed without a byte of
// response — the coordinator sees exactly what a SIGKILL'd worker
// looks like.
type killable struct {
	dead atomic.Bool
	h    http.Handler
}

func (k *killable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.dead.Load() {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	}
	k.h.ServeHTTP(w, r)
}

// testWorker is one in-process tiad worker behind a killable handler.
type testWorker struct {
	svc  *service.Server
	ts   *httptest.Server
	kill *killable
}

// die severs every current and future connection to the worker.
func (w *testWorker) die() {
	w.kill.dead.Store(true)
	w.ts.CloseClientConnections()
}

func newTestWorker(t *testing.T, mutate func(*service.Config)) *testWorker {
	t.Helper()
	cfg := service.DefaultConfig()
	cfg.Workers = 2
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	kill := &killable{h: svc.Handler()}
	ts := httptest.NewServer(kill)
	t.Cleanup(ts.Close)
	return &testWorker{svc: svc, ts: ts, kill: kill}
}

func newTestFleet(t *testing.T, n int, mutateWorker func(int, *service.Config), mutateCfg func(*Config)) (*Coordinator, []*testWorker) {
	t.Helper()
	workers := make([]*testWorker, n)
	urls := make([]string, n)
	for i := range workers {
		i := i
		workers[i] = newTestWorker(t, func(cfg *service.Config) {
			if mutateWorker != nil {
				mutateWorker(i, cfg)
			}
		})
		urls[i] = workers[i].ts.URL
	}
	cfg := Config{
		Workers:        urls,
		HeartbeatEvery: time.Hour, // tests control health via the initial probe
		PollEvery:      5 * time.Millisecond,
	}
	if mutateCfg != nil {
		mutateCfg(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	t.Cleanup(coord.Close)
	return coord, workers
}

// postCoordinator posts one job to the coordinator's own HTTP surface
// and returns the status, the X-Tia-Worker header, and either payload.
func postCoordinator(t *testing.T, url string, req *service.JobRequest) (int, string, *service.JobResult, *service.JobError) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	worker := resp.Header.Get("X-Tia-Worker")
	if resp.StatusCode == http.StatusOK {
		var res service.JobResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("decode result: %v\n%s", err, raw)
		}
		return resp.StatusCode, worker, &res, nil
	}
	var envelope struct {
		Error *service.JobError `json:"error"`
	}
	if err := json.Unmarshal(raw, &envelope); err != nil || envelope.Error == nil {
		t.Fatalf("decode error (status %d): %v\n%s", resp.StatusCode, err, raw)
	}
	return resp.StatusCode, worker, nil, envelope.Error
}

// TestFleetAffinityAndCache: the identical job must route to the same
// worker twice and be served from that worker's result cache the second
// time — and a cosmetically different netlist must follow it there,
// because affinity keys on the assembled-form fingerprint.
func TestFleetAffinityAndCache(t *testing.T) {
	coord, workers := newTestFleet(t, 3, nil, nil)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	src := counterNetlist(2000)
	cosmetic := "// same machine, different spelling\n" + counterNetlist(2000) + "\n// trailing comment\n"

	_, w1, res1, jerr := postCoordinator(t, ts.URL, &service.JobRequest{Netlist: src, MaxCycles: 100_000})
	if jerr != nil {
		t.Fatalf("first submit: %v", jerr)
	}
	if res1.Cycles != 2005 || !res1.Completed {
		t.Fatalf("counter result = %+v, want 2005 cycles completed", res1)
	}
	_, w2, res2, jerr := postCoordinator(t, ts.URL, &service.JobRequest{Netlist: src, MaxCycles: 100_000})
	if jerr != nil {
		t.Fatalf("second submit: %v", jerr)
	}
	if w1 == "" || w1 != w2 {
		t.Errorf("identical jobs served by %q and %q, want the same worker", w1, w2)
	}
	if !res2.Cached {
		t.Error("second identical job was not a worker cache hit")
	}
	_, w3, _, jerr := postCoordinator(t, ts.URL, &service.JobRequest{Netlist: cosmetic, MaxCycles: 100_000})
	if jerr != nil {
		t.Fatalf("cosmetic submit: %v", jerr)
	}
	if w3 != w1 {
		t.Errorf("cosmetic variant routed to %q, want its assembled twin's worker %q", w3, w1)
	}

	var hits int64
	for _, w := range workers {
		hits += w.svc.Metrics().ResultHits.Load()
	}
	// Run 2 hits the result cache; the cosmetic run, sharing the
	// assembled fingerprint, hits it too.
	if hits < 2 {
		t.Errorf("fleet-wide result cache hits = %d, want >= 2", hits)
	}
	if got := coord.Metrics().AffinityHits.Load(); got != 3 {
		t.Errorf("affinity hits = %d, want 3 (all jobs on their home worker)", got)
	}
	if got := coord.Metrics().JobsRouted.Load(); got != 3 {
		t.Errorf("jobs routed = %d, want 3", got)
	}
}

// TestFleetFailover: a worker that dies after the health probe (so the
// router still believes in it) must cost one failover, not the job.
func TestFleetFailover(t *testing.T) {
	coord, workers := newTestFleet(t, 2, nil, nil)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	// Kill one worker after registration; the heartbeat (1h) will not
	// notice, so the router must discover it the hard way.
	workers[0].die()

	for seed := int64(1); seed <= 4; seed++ {
		_, _, res, jerr := postCoordinator(t, ts.URL, &service.JobRequest{Workload: "dmm", Seed: seed})
		if jerr != nil {
			t.Fatalf("seed %d: %v", seed, jerr)
		}
		if !res.Completed || !res.Verified {
			t.Fatalf("seed %d: result %+v", seed, res)
		}
	}
	if coord.Metrics().JobsRouted.Load() != 4 {
		t.Errorf("jobs routed = %d, want 4", coord.Metrics().JobsRouted.Load())
	}
	if workers[1].svc.Metrics().JobsCompleted.Load() == 0 {
		t.Error("surviving worker ran nothing")
	}
}

// TestFleetNoFailoverOnDeterministicError: a validation error would fail
// identically on every worker; the router must return it immediately
// instead of burning the fleet.
func TestFleetNoFailoverOnDeterministicError(t *testing.T) {
	coord, _ := newTestFleet(t, 2, nil, nil)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	status, _, _, jerr := postCoordinator(t, ts.URL, &service.JobRequest{Netlist: "pe broken\nthis is not a netlist"})
	if jerr == nil {
		t.Fatal("malformed netlist succeeded")
	}
	if status != http.StatusBadRequest || jerr.Kind != service.ErrBadRequest {
		t.Errorf("status %d kind %s, want 400 bad_request", status, jerr.Kind)
	}
	if got := coord.Metrics().Failovers.Load(); got != 0 {
		t.Errorf("failovers = %d, want 0 for a deterministic error", got)
	}
}

// TestResourceLimitIsDeterministic pins the failover contract for the
// resource governor: resource_limit is NOT in the transient-error
// whitelist, so the coordinator returns it to the client without
// retrying other workers.
func TestResourceLimitIsDeterministic(t *testing.T) {
	for _, kind := range []service.ErrorKind{service.ErrResourceLimit, service.ErrBadRequest} {
		if transientKind(kind) {
			t.Errorf("%s is treated as transient; it must not trigger failover", kind)
		}
	}
	for _, kind := range []service.ErrorKind{service.ErrDraining, service.ErrBusy, service.ErrUnavailable} {
		if !transientKind(kind) {
			t.Errorf("%s must stay transient (failover allowed)", kind)
		}
	}
}

// TestFleetUnavailable: with every worker dead the coordinator must
// shed the job with a typed 503 and a Retry-After hint, not hang.
func TestFleetUnavailable(t *testing.T) {
	coord, workers := newTestFleet(t, 2, nil, nil)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	for _, w := range workers {
		w.die()
	}
	status, _, _, jerr := postCoordinator(t, ts.URL, &service.JobRequest{Workload: "dmm"})
	if status != http.StatusServiceUnavailable || jerr == nil || jerr.Kind != service.ErrUnavailable {
		t.Fatalf("status %d err %+v, want 503 unavailable", status, jerr)
	}
}

// TestFleetMigration: kill the worker that owns a long checkpointed job
// once the coordinator has stashed a snapshot; the job must finish on a
// surviving worker, resumed from the checkpoint (not recomputed), with
// the exact uninterrupted result.
func TestFleetMigration(t *testing.T) {
	const k = 8_000_000
	src := counterNetlist(k)

	journalDir := t.TempDir()
	coord, workers := newTestFleet(t, 3,
		func(i int, cfg *service.Config) {
			cfg.JournalPath = filepath.Join(journalDir, fmt.Sprintf("w%d.wal", i))
			cfg.CheckpointEvery = 100_000
		}, nil)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	// Uninterrupted reference for the byte-identical check, computed on
	// a private server so it cannot warm any fleet worker's cache.
	refSvc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatalf("reference server: %v", err)
	}
	ref, err := refSvc.Submit(context.Background(), &service.JobRequest{Netlist: src, MaxCycles: 2 * k})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	type outcome struct {
		worker string
		res    *service.JobResult
		jerr   *service.JobError
	}
	done := make(chan outcome, 1)
	go func() {
		_, w, res, jerr := postCoordinator(t, ts.URL, &service.JobRequest{
			Netlist: src, MaxCycles: 2 * k, JobID: "mig-1",
		})
		done <- outcome{w, res, jerr}
	}()

	// Wait until the coordinator holds a migration payload, then kill
	// the worker that is running the job.
	deadline := time.Now().Add(10 * time.Second)
	for coord.Metrics().SnapshotsFetched.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never fetched a checkpoint snapshot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	killed := -1
	for i, w := range workers {
		if w.svc.Metrics().Running.Load() > 0 {
			w.die()
			killed = i
			break
		}
	}
	if killed < 0 {
		t.Fatal("no worker was running the job at kill time")
	}

	out := <-done
	if out.jerr != nil {
		t.Fatalf("migrated job failed: %v", out.jerr)
	}
	if out.worker == workers[killed].ts.URL {
		t.Errorf("job reportedly served by the killed worker %s", out.worker)
	}
	if out.res.Cycles != ref.Cycles || out.res.Completed != ref.Completed {
		t.Errorf("migrated result: %d cycles completed=%v, reference %d/%v",
			out.res.Cycles, out.res.Completed, ref.Cycles, ref.Completed)
	}
	if fmt.Sprint(out.res.Sinks) != fmt.Sprint(ref.Sinks) {
		t.Errorf("migrated sinks %v differ from reference %v", out.res.Sinks, ref.Sinks)
	}
	var resumed int64
	for i, w := range workers {
		if i != killed {
			resumed += w.svc.Metrics().JobsResumed.Load()
		}
	}
	if resumed != 1 {
		t.Errorf("surviving workers resumed %d jobs, want 1 (migration must resume, not recompute)", resumed)
	}
	if coord.Metrics().Migrations.Load() == 0 {
		t.Error("coordinator recorded no migration")
	}
}

// TestFleetBatch: a seed sweep must fan out across workers and come
// back exactly once per run — sorted by index when collected, tagged by
// index when streamed.
func TestFleetBatch(t *testing.T) {
	coord, _ := newTestFleet(t, 3, nil, nil)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	seeds := make([]int64, 16)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	post := func(stream bool) *http.Response {
		body, _ := json.Marshal(BatchRequest{Template: service.JobRequest{Workload: "dmm"}, Seeds: seeds, Stream: stream})
		resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/batches: %v", err)
		}
		return resp
	}

	// Buffered: one payload, rows in seed order.
	resp := post(false)
	defer resp.Body.Close()
	var result BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
		t.Fatalf("decode batch result: %v", err)
	}
	if result.Runs != 16 || result.Completed != 16 || result.Failed != 0 {
		t.Fatalf("batch summary %+v, want 16/16/0", result)
	}
	workersSeen := map[string]bool{}
	for i, row := range result.Rows {
		if row.Index != i || row.Seed != seeds[i] {
			t.Fatalf("row %d: index %d seed %d, want sorted by submission order", i, row.Index, row.Seed)
		}
		if row.Result == nil || !row.Result.Completed {
			t.Fatalf("row %d: missing or incomplete result (%+v)", i, row.Error)
		}
		workersSeen[row.Worker] = true
	}
	if len(workersSeen) < 2 {
		t.Errorf("batch used %d worker(s), want the sweep spread across >= 2", len(workersSeen))
	}

	// Streaming: NDJSON, every index exactly once.
	resp = post(true)
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	indices := map[int]int{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row BatchRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("decode stream row: %v\n%s", err, sc.Text())
		}
		indices[row.Index]++
		if row.Result == nil {
			t.Fatalf("stream row %d failed: %+v", row.Index, row.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(indices) != 16 {
		t.Fatalf("stream yielded %d distinct rows, want 16", len(indices))
	}
	for idx, n := range indices {
		if n != 1 {
			t.Errorf("row %d delivered %d times, want exactly once", idx, n)
		}
	}

	// Validation: mixing seeds and explicit requests is rejected.
	body, _ := json.Marshal(BatchRequest{
		Template: service.JobRequest{Workload: "dmm"},
		Seeds:    []int64{1},
		Requests: []service.JobRequest{{Workload: "dmm"}},
	})
	resp2, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("seeds+requests batch: status %d, want 400", resp2.StatusCode)
	}
}

// TestFleetDrainAndHealth: the coordinator's own drain sheds with the
// same 503 + Retry-After contract as its workers, and /healthz and
// /v1/fleet describe the fleet.
func TestFleetDrainAndHealth(t *testing.T) {
	coord, _ := newTestFleet(t, 2, nil, nil)
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	var info FleetInfo
	resp, err := http.Get(ts.URL + "/v1/fleet")
	if err != nil {
		t.Fatalf("GET /v1/fleet: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode fleet info: %v", err)
	}
	resp.Body.Close()
	if len(info.Workers) != 2 || info.WorkersHealthy != 2 {
		t.Fatalf("fleet info %+v, want 2 healthy workers", info)
	}

	coord.Drain()
	status, _, _, jerr := postCoordinator(t, ts.URL, &service.JobRequest{Workload: "dmm"})
	if status != http.StatusServiceUnavailable || jerr == nil || jerr.Kind != service.ErrDraining {
		t.Fatalf("draining coordinator: status %d err %+v", status, jerr)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status %d, want 503", hresp.StatusCode)
	}
	if hresp.Header.Get("Retry-After") == "" {
		// The draining job rejection carries the hint; healthz does not
		// need one, so only assert the job path above.
		_ = hresp
	}
}
