package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tia/internal/chaos"
	"tia/internal/service"
)

// soakHandler is killable's restartable sibling: dead severs every
// connection byte-free (SIGKILL shape); the inner handler is swappable
// so a "restarted process" can take over the same URL.
type soakHandler struct {
	dead atomic.Bool
	h    atomic.Value // http.Handler
}

func (s *soakHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.dead.Load() {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	}
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

// soakWorker is one crash-restartable in-process tiad worker: Kill
// drops it mid-flight, Restart builds a fresh service.Server over the
// same journal (replaying it, exactly like a restarted process would).
type soakWorker struct {
	t   *testing.T
	cfg service.Config

	mu      sync.Mutex
	svc     *service.Server
	hs      *soakHandler
	ts      *httptest.Server
	drained []*service.Server // every server ever started, for cleanup
}

func newSoakWorker(t *testing.T, dir string, i int) *soakWorker {
	t.Helper()
	cfg := service.DefaultConfig()
	cfg.Workers = 2
	cfg.JournalPath = filepath.Join(dir, fmt.Sprintf("w%d.wal", i))
	cfg.CheckpointEvery = 50_000
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	hs := &soakHandler{}
	hs.h.Store(svc.Handler())
	ts := httptest.NewServer(hs)
	t.Cleanup(ts.Close)
	w := &soakWorker{t: t, cfg: cfg, svc: svc, hs: hs, ts: ts}
	w.drained = append(w.drained, svc)
	// Every server this worker ever ran must drain before the TempDir
	// goes away: a restarted server's journal replay re-runs interrupted
	// jobs in the background, checkpointing into the shared snapshot dir.
	t.Cleanup(func() {
		w.mu.Lock()
		svcs := w.drained
		w.mu.Unlock()
		for _, s := range svcs {
			s.Drain()
		}
	})
	return w
}

func (w *soakWorker) server() *service.Server {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.svc
}

func (w *soakWorker) alive() bool { return !w.hs.dead.Load() }

// kill severs the worker like a SIGKILL: in-flight handlers lose their
// connections (their jobs see cancellation), new connections die raw.
func (w *soakWorker) kill() {
	w.hs.dead.Store(true)
	w.ts.CloseClientConnections()
}

// restart replaces the dead process with a fresh one on the same URL
// and journal; the new server replays its journal on the way up.
func (w *soakWorker) restart() {
	if !w.hs.dead.Load() {
		return
	}
	svc, err := service.New(w.cfg)
	if err != nil {
		w.t.Errorf("soak worker restart: %v", err)
		return
	}
	w.mu.Lock()
	w.svc = svc
	w.drained = append(w.drained, svc)
	w.mu.Unlock()
	w.hs.h.Store(svc.Handler())
	w.hs.dead.Store(false)
}

// soakFleet adapts the workers to chaos.WorkerControl.
type soakFleet struct{ byURL map[string]*soakWorker }

func (f *soakFleet) Kill(url string)    { f.byURL[url].kill() }
func (f *soakFleet) Restart(url string) { f.byURL[url].restart() }

// soakOutcome is one full workload pass, in a comparable shape:
// result rows keyed by workload item, plus the deterministic fault log.
type soakOutcome struct {
	rows   []string // "item: cycles=N completed=V verified=V sinks=…"
	detLog string
}

const (
	soakLongK    = 4_000_000
	soakDMMSeeds = 6
	soakBatchLen = 10
)

// runSoakWorkload drives the canonical soak workload — sequential, so
// every site's submit-request order is a pure function of the routing
// decisions, which the deterministic-log contract depends on — and
// asserts the exactly-once contracts along the way.
func runSoakWorkload(t *testing.T, coordURL string, h *chaos.Harness) []string {
	t.Helper()
	rows := make([]string, 0, soakDMMSeeds+1+soakBatchLen)
	render := func(item string, res *service.JobResult) string {
		return fmt.Sprintf("%s: cycles=%d completed=%v verified=%v sinks=%v",
			item, res.Cycles, res.Completed, res.Verified, res.Sinks)
	}

	for seed := int64(1); seed <= soakDMMSeeds; seed++ {
		_, _, res, jerr := postCoordinator(t, coordURL, &service.JobRequest{Workload: "dmm", Seed: seed})
		if jerr != nil {
			t.Fatalf("dmm seed %d under chaos: %v", seed, jerr)
		}
		rows = append(rows, render(fmt.Sprintf("dmm-%d", seed), res))
	}

	// The long job: big enough to checkpoint, crash, and migrate
	// mid-run; NoCache so a same-seed rerun re-executes it (and re-arms
	// the crash trigger) instead of answering from the result cache.
	_, _, res, jerr := postCoordinator(t, coordURL, &service.JobRequest{
		Netlist: counterNetlist(soakLongK), MaxCycles: 2 * soakLongK, NoCache: true,
	})
	if jerr != nil {
		t.Fatalf("long job under chaos: %v\nfault log:\n%s", jerr, h.Log())
	}
	rows = append(rows, render("long", res))

	// Streamed batch: exactly-once per index is asserted here, and the
	// row payloads join the byte-identity check.
	seeds := make([]int64, soakBatchLen)
	for i := range seeds {
		seeds[i] = int64(101 + i)
	}
	body, _ := json.Marshal(BatchRequest{Template: service.JobRequest{Workload: "dmm"}, Seeds: seeds, Stream: true})
	resp, err := http.Post(coordURL+"/v1/batches", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/batches: %v", err)
	}
	defer resp.Body.Close()
	got := make(map[int]string, soakBatchLen)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row BatchRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("decode stream row: %v\n%s", err, sc.Text())
		}
		if _, dup := got[row.Index]; dup {
			t.Fatalf("stream row %d delivered twice", row.Index)
		}
		if row.Result == nil {
			t.Fatalf("stream row %d failed under chaos: %+v", row.Index, row.Error)
		}
		got[row.Index] = render(fmt.Sprintf("batch-%d", row.Seed), row.Result)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(got) != soakBatchLen {
		t.Fatalf("stream yielded %d rows, want %d (exactly once each)", len(got), soakBatchLen)
	}
	for i := 0; i < soakBatchLen; i++ {
		rows = append(rows, got[i])
	}
	return rows
}

// soakReference computes the same workload on a chaos-free private
// server — the byte-identity oracle.
func soakReference(t *testing.T) []string {
	t.Helper()
	svc, err := service.New(service.Config{Workers: 2})
	if err != nil {
		t.Fatalf("reference server: %v", err)
	}
	defer svc.Drain()
	rows := make([]string, 0, soakDMMSeeds+1+soakBatchLen)
	run := func(item string, req *service.JobRequest) {
		res, err := svc.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("reference %s: %v", item, err)
		}
		rows = append(rows, fmt.Sprintf("%s: cycles=%d completed=%v verified=%v sinks=%v",
			item, res.Cycles, res.Completed, res.Verified, res.Sinks))
	}
	for seed := int64(1); seed <= soakDMMSeeds; seed++ {
		run(fmt.Sprintf("dmm-%d", seed), &service.JobRequest{Workload: "dmm", Seed: seed})
	}
	run("long", &service.JobRequest{Netlist: counterNetlist(soakLongK), MaxCycles: 2 * soakLongK})
	for i := 0; i < soakBatchLen; i++ {
		seed := int64(101 + i)
		run(fmt.Sprintf("batch-%d", seed), &service.JobRequest{Workload: "dmm", Seed: seed})
	}
	return rows
}

// soakScenario is one seeded chaos shape the fleet must survive.
type soakScenario struct {
	name string
	plan chaos.Plan
	// heartbeat for the coordinator; 0 means off (1h) so routing-state
	// evolution stays a pure function of the fault sequence and the
	// deterministic-log rerun check is exact.
	heartbeat time.Duration
	// replay asserts the same-seed rerun contract (same fleet, harness
	// reset): identical deterministic fault log, identical results.
	// Scenarios with live heartbeats skip it — probe timing perturbs
	// candidate sets, which is reality, not a bug.
	replay bool
	check  func(t *testing.T, c *Coordinator, workers []*soakWorker, h *chaos.Harness)
}

// TestChaosSoak is the headline robustness contract: under seeded
// partitions, resets, truncation, slow-loris, snapshot corruption and
// crash-restart, every accepted job reaches exactly one terminal state,
// streamed batch rows arrive exactly once, completed results are
// byte-identical to a chaos-free reference, and (where the schedule is
// wall-clock-free) a same-seed rerun reproduces the identical injected
// fault log.
func TestChaosSoak(t *testing.T) {
	ref := soakReference(t)

	scenarios := []soakScenario{
		{
			name: "partitions",
			plan: chaos.Plan{
				Seed: 1, ResetRate: 0.15, ResetAfterRate: 0.10,
				LatencyRate: 0.30, LatencyMax: 3 * time.Millisecond,
				TruncateRate: 0.10, SlowLorisRate: 0.10, SlowLorisDelay: 200 * time.Microsecond,
				Partitions: 2, PartitionMax: 3, PartitionHorizon: 24,
			},
			replay: true,
			check: func(t *testing.T, c *Coordinator, _ []*soakWorker, h *chaos.Harness) {
				if h.DeterministicLog() == "" {
					t.Error("partition scenario injected nothing")
				}
			},
		},
		{
			name: "corrupt-snapshots",
			plan: chaos.Plan{
				Seed: 2, ResetRate: 0.05,
				CorruptSnapshotRate: 1.0, CrashAtCycle: 300_000, MaxCrashes: 1, // one worker dies mid-long-job, stays down
			},
			replay: true,
			check: func(t *testing.T, c *Coordinator, workers []*soakWorker, h *chaos.Harness) {
				if got := c.Metrics().CorruptSnapshots.Load(); got == 0 {
					t.Error("no corrupt snapshots quarantined at rate 1.0")
				}
				if !strings.Contains(h.DeterministicLog(), "crash[0] crash") {
					t.Errorf("no crash event in log:\n%s", h.DeterministicLog())
				}
				// Quarantine means the failover ran fresh: no survivor may
				// have restored a (corrupted) checkpoint.
				for i, w := range workers {
					if w.alive() {
						if n := w.server().Metrics().JobsResumed.Load(); n != 0 {
							t.Errorf("survivor w%d resumed %d jobs from quarantined snapshots", i, n)
						}
					}
				}
			},
		},
		{
			name: "crash-restart",
			plan: chaos.Plan{
				Seed: 3, ResetRate: 0.10,
				LatencyRate: 0.20, LatencyMax: time.Millisecond,
				CrashAtCycle: 300_000, RestartAfter: 300 * time.Millisecond,
				// The migrated job re-crosses the trigger on each landing;
				// cap the cascade so one worker always survives it (on fast
				// hosts all three would otherwise die inside RestartAfter).
				MaxCrashes: 2,
			},
			heartbeat: 25 * time.Millisecond, // the restarted worker must rejoin
			check: func(t *testing.T, c *Coordinator, workers []*soakWorker, h *chaos.Harness) {
				// The restart timer runs on wall time and the workload can
				// finish before it fires: wait for the schedule to play out.
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := h.WaitRestarts(ctx); err != nil {
					t.Fatalf("restart schedule never completed: %v\nfault log:\n%s", err, h.Log())
				}
				log := h.DeterministicLog()
				if !strings.Contains(log, "crash[0] crash") || !strings.Contains(log, "crash[1] restart") {
					t.Errorf("crash-restart schedule missing from log:\n%s", log)
				}
				for i, w := range workers {
					if !w.alive() {
						t.Errorf("worker w%d still dead after restart schedule", i)
					}
				}
				// The heartbeat must fold the restarted worker back in.
				deadline := time.Now().Add(10 * time.Second)
				for c.reg.healthyCount() < int64(len(workers)) {
					if time.Now().After(deadline) {
						t.Errorf("fleet never healed: %d/%d healthy", c.reg.healthyCount(), len(workers))
						break
					}
					time.Sleep(10 * time.Millisecond)
				}
			},
		},
	}

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			h, err := chaos.New(sc.plan)
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()

			workers := make([]*soakWorker, 3)
			urls := make([]string, 3)
			ctl := &soakFleet{byURL: map[string]*soakWorker{}}
			for i := range workers {
				workers[i] = newSoakWorker(t, dir, i)
				urls[i] = workers[i].ts.URL
				ctl.byURL[urls[i]] = workers[i]
				h.Alias(urls[i], fmt.Sprintf("w%d", i))
			}
			h.Bind(ctl)

			heartbeat := sc.heartbeat
			if heartbeat == 0 {
				heartbeat = time.Hour
			}
			coord, err := New(Config{
				Workers:        urls,
				HeartbeatEvery: heartbeat,
				PollEvery:      3 * time.Millisecond,
				RetryBudget:    64,
				RetryBackoff:   2 * time.Millisecond,
				// Breakers get their own unit tests; in the soak their
				// wall-clock cooldowns would make candidate selection
				// timing-dependent, so the threshold is set out of reach.
				BreakerThreshold: 1000,
				BatchConcurrency: 1, // deterministic batch fan-out order
				JournalPath:      filepath.Join(dir, "coord.wal"),
				HTTP:             &http.Client{Transport: h.Transport(&http.Transport{})},
			})
			if err != nil {
				t.Fatalf("fleet.New: %v", err)
			}
			defer coord.Close()
			ts := httptest.NewServer(coord.Handler())
			defer ts.Close()

			run1 := soakOutcome{rows: runSoakWorkload(t, ts.URL, h)}
			run1.detLog = h.DeterministicLog()
			for i, row := range run1.rows {
				if row != ref[i] {
					t.Errorf("run1 row %d under chaos:\n  got  %s\n  want %s", i, row, ref[i])
				}
			}
			if sc.check != nil {
				sc.check(t, coord, workers, h)
			}
			if !sc.replay {
				return
			}

			// Same-seed rerun on the same fleet: revive the dead, restore
			// registry health, reset the harness's per-run state, and the
			// injected fault stream must reproduce bit-identically.
			for _, w := range workers {
				w.restart()
			}
			h.Reset()
			for _, u := range urls {
				coord.reg.reportUp(coord.reg.get(u))
			}
			run2 := soakOutcome{rows: runSoakWorkload(t, ts.URL, h)}
			run2.detLog = h.DeterministicLog()
			if run1.detLog != run2.detLog {
				t.Errorf("same-seed rerun diverged:\n--- run1\n%s--- run2\n%s", run1.detLog, run2.detLog)
			}
			for i := range run1.rows {
				if run1.rows[i] != run2.rows[i] {
					t.Errorf("rerun row %d: %s vs %s", i, run1.rows[i], run2.rows[i])
				}
			}
		})
	}
}
