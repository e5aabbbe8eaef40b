package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"tia/internal/service"
)

// TestFleetE2E is the loopback multi-process acceptance scenario
// (`make fleet-smoke`): three real tiad worker processes with journals,
// a coordinator, and the three contracts the fleet exists for —
//
//	(a) an identical resubmitted job routes to the same worker and is
//	    served from that worker's result cache,
//	(b) a worker SIGKILL'd mid-job has its checkpointed job migrated to
//	    a survivor, finishing byte-identical to an uninterrupted run,
//	(c) a 64-seed batch fans across >= 2 workers and the streaming API
//	    yields all 64 rows exactly once (ordered by seed on collection).
//
// A tiad -coordinator process fronts the same fleet at the end, proving
// the cmd wiring end to end.
func TestFleetE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e (run via make fleet-smoke)")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tiad")
	build := exec.Command("go", "build", "-o", bin, "tia/cmd/tiad")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build tiad: %v\n%s", err, out)
	}

	// Three worker processes on loopback, each with its own journal.
	type proc struct {
		url string
		cmd *exec.Cmd
	}
	workers := make([]*proc, 3)
	var urls []string
	for i := range workers {
		port := freePort(t)
		url := fmt.Sprintf("http://127.0.0.1:%d", port)
		cmd := exec.Command(bin,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-workers", "2",
			"-journal", filepath.Join(dir, fmt.Sprintf("w%d.wal", i)),
			"-checkpoint-every", "100000",
		)
		if err := cmd.Start(); err != nil {
			t.Fatalf("start worker %d: %v", i, err)
		}
		workers[i] = &proc{url: url, cmd: cmd}
		urls = append(urls, url)
		t.Cleanup(func() { _ = cmd.Process.Kill(); _, _ = cmd.Process.Wait() })
	}
	for _, w := range workers {
		waitHealthy(t, w.url)
	}

	coord, err := New(Config{
		Workers:        urls,
		HeartbeatEvery: 200 * time.Millisecond,
		PollEvery:      10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	// (a) Cache affinity across resubmission.
	_, w1, res1, jerr := postCoordinator(t, ts.URL, &service.JobRequest{Workload: "dmm"})
	if jerr != nil {
		t.Fatalf("dmm: %v", jerr)
	}
	if res1.Cycles != 1221 {
		t.Errorf("dmm cycles = %d, want 1221", res1.Cycles)
	}
	_, w2, res2, jerr := postCoordinator(t, ts.URL, &service.JobRequest{Workload: "dmm"})
	if jerr != nil {
		t.Fatalf("dmm resubmit: %v", jerr)
	}
	if w1 == "" || w1 != w2 {
		t.Errorf("identical jobs served by %q and %q, want one worker", w1, w2)
	}
	if !res2.Cached {
		t.Error("resubmitted job missed the worker's result cache")
	}
	if hits := scrapeCounter(t, w1, "tia_result_cache_hits_total"); hits < 1 {
		t.Errorf("home worker %s result cache hits = %d, want >= 1", w1, hits)
	}

	// (b) SIGKILL migration, byte-identical to an uninterrupted run.
	const k = 20_000_000
	src := counterNetlist(k)
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

	deadline := time.Now().Add(15 * time.Second)
	for coord.Metrics().SnapshotsFetched.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never stashed a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	owner := -1
	for i, w := range workers {
		st, err := (&service.Client{BaseURL: w.url}).Status(context.Background(), "mig-1")
		if err == nil && st.State == service.JobStateRunning {
			owner = i
			break
		}
	}
	if owner < 0 {
		t.Fatal("no worker process reports mig-1 running")
	}
	if err := workers[owner].cmd.Process.Kill(); err != nil { // SIGKILL
		t.Fatalf("kill worker %d: %v", owner, err)
	}
	_, _ = workers[owner].cmd.Process.Wait()

	out := <-done
	if out.jerr != nil {
		t.Fatalf("migrated job failed: %v", out.jerr)
	}
	if out.worker == workers[owner].url {
		t.Errorf("result attributed to the killed worker %s", out.worker)
	}
	if !bytes.Equal(comparableResult(t, out.res), comparableResult(t, ref)) {
		t.Errorf("migrated result diverged from uninterrupted run:\nmigrated  %s\nreference %s",
			comparableResult(t, out.res), comparableResult(t, ref))
	}
	var resumed int64
	for i, w := range workers {
		if i != owner {
			resumed += scrapeCounter(t, w.url, "tia_jobs_resumed_total")
		}
	}
	if resumed != 1 {
		t.Errorf("survivors resumed %d jobs, want exactly 1 (checkpoint restore, not recompute)", resumed)
	}
	if coord.Metrics().Migrations.Load() == 0 {
		t.Error("coordinator counted no migration")
	}

	// (c) 64-seed batch: streaming exactly-once, collection seed-ordered,
	// spread across survivors.
	seeds := make([]int64, 64)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	body, _ := json.Marshal(BatchRequest{Template: service.JobRequest{Workload: "dmm"}, Seeds: seeds, Stream: true})
	resp, err := http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/batches: %v", err)
	}
	rowsSeen := map[int]int{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row BatchRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("stream row: %v\n%s", err, sc.Text())
		}
		if row.Error != nil {
			t.Fatalf("stream row %d failed: %v", row.Index, row.Error)
		}
		rowsSeen[row.Index]++
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(rowsSeen) != 64 {
		t.Fatalf("stream yielded %d distinct rows, want 64", len(rowsSeen))
	}
	for idx, n := range rowsSeen {
		if n != 1 {
			t.Errorf("row %d delivered %d times", idx, n)
		}
	}

	body, _ = json.Marshal(BatchRequest{Template: service.JobRequest{Workload: "dmm"}, Seeds: seeds})
	resp, err = http.Post(ts.URL+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/batches: %v", err)
	}
	var collected BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&collected); err != nil {
		t.Fatalf("decode collected batch: %v", err)
	}
	resp.Body.Close()
	if collected.Completed != 64 || collected.Failed != 0 {
		t.Fatalf("collected batch %d/%d, want 64 completed", collected.Completed, collected.Failed)
	}
	batchWorkers := map[string]bool{}
	for i, row := range collected.Rows {
		if row.Index != i || row.Seed != seeds[i] {
			t.Fatalf("collected row %d out of order: index %d seed %d", i, row.Index, row.Seed)
		}
		batchWorkers[row.Worker] = true
	}
	if len(batchWorkers) < 2 {
		t.Errorf("batch used %d worker(s), want >= 2", len(batchWorkers))
	}

	// (d) The tiad -coordinator process fronts the same fleet. Step (b)
	// killed one worker for good — and with the ring keyed by random
	// loopback ports, the victim is sometimes dmm's cache home — so
	// first re-establish which survivor serves dmm (home if it lived,
	// deterministic failover if not), then require the coordinator
	// process to route to that same worker's cache.
	_, whome, _, jerr := postCoordinator(t, ts.URL, &service.JobRequest{Workload: "dmm"})
	if jerr != nil {
		t.Fatalf("dmm re-home after kill: %v", jerr)
	}
	cport := freePort(t)
	curl := fmt.Sprintf("http://127.0.0.1:%d", cport)
	ccmd := exec.Command(bin,
		"-coordinator",
		"-addr", fmt.Sprintf("127.0.0.1:%d", cport),
		"-peers", strings.Join(urls, ","),
		"-heartbeat", "200ms",
	)
	if err := ccmd.Start(); err != nil {
		t.Fatalf("start coordinator process: %v", err)
	}
	t.Cleanup(func() { _ = ccmd.Process.Kill(); _, _ = ccmd.Process.Wait() })
	waitHealthy(t, curl)
	_, cworker, cres, cjerr := postCoordinator(t, curl, &service.JobRequest{Workload: "dmm"})
	if cjerr != nil {
		t.Fatalf("job through coordinator process: %v", cjerr)
	}
	if !cres.Cached {
		// The fleet just served dmm from whome's cache; the coordinator
		// process must build the same ring and route there too.
		t.Error("coordinator process missed the fleet-wide cache")
	}
	if cworker != whome {
		t.Errorf("coordinator process routed dmm to %q, in-process coordinator to %q (ring divergence)", cworker, whome)
	}
}

// comparableResult projects a JobResult onto its deterministic payload
// (everything but the job ID) for byte-identical comparison.
func comparableResult(t *testing.T, res *service.JobResult) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"key":         res.Key,
		"fingerprint": res.Fingerprint,
		"cycles":      res.Cycles,
		"completed":   res.Completed,
		"verified":    res.Verified,
		"sinks":       res.Sinks,
	})
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

// freePort reserves an ephemeral loopback port and releases it for the
// child process to bind.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// waitHealthy polls /healthz until the process answers 200.
func waitHealthy(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", url)
}

// scrapeCounter reads one counter off a worker's /metrics exposition.
func scrapeCounter(t *testing.T, url, name string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, name)), 10, 64)
			if err != nil {
				t.Fatalf("parse %s: %v (%q)", name, err, line)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found on %s", name, url)
	return 0
}
