package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tia/internal/asm"
	"tia/internal/fleet"
	"tia/internal/gen"
	"tia/internal/isa"
	"tia/internal/pcpe"
	"tia/internal/service"
	"tia/internal/workloads"
)

const (
	serveWorkers = 2
	// repeatPool bounds the recently completed cold jobs that hits
	// repeat, summed over every client's two pools: half the 128-entry
	// program cache, so hits measure the hit path, not eviction. Each pool
	// gets an equal share and at least one entry, so above 32 clients the
	// sum is two per client.
	repeatPool = 64
	// baseNetlists is how many generated netlists the cold netlist jobs
	// of a run extend; they are generated before the window.
	baseNetlists = 1024
	// probesPerClass is how many requests of each class the traced run
	// replays through the asm and workloads probes after its window.
	probesPerClass = 256
	// batchRuns is the seeds per POST /v1/batches.
	batchRuns = 16
	// sampleJobs is how many single jobs per client feed the simulated
	// counts; the request sequence is a function of the seed, so these
	// counts repeat exactly.
	sampleJobs = 64
	// netlistBudget is the service's default netlist cycle budget.
	netlistBudget = 1_000_000
)

// coldKernels are the workloads cold and repeated workload jobs name.
var coldKernels = []string{"dmm", "kmp", "mergesort", "smvm"}

type reqClass int

const (
	coldNetlist reqClass = iota
	coldWorkload
	hitWorkload
	hitNetlist
	batchJob
	numClasses
)

var classNames = [numClasses]string{"cold_netlist", "cold_workload", "hit_workload", "hit_netlist", "batch"}

// classWeights is the request mix, per mixTotal requests. No record of
// real traffic exists to draw shares from, so every class gets the same
// share of jobs: 16 single jobs of each single-job class and one 16-row
// batch. Process CPU per job then weights every class alike.
var classWeights = [numClasses]int{16, 16, 16, 16, 1}

const mixTotal = 65

// request is one operation a client sent, and its reply reduced to what
// the checks after the window need.
type request struct {
	class    reqClass
	job      string
	workload string
	seed     int64    // kernel seed, or the seed a netlist's extra stream carries
	base     string   // the generated netlist a netlist job extends
	edit     int64    // cosmetic edit number of a netlist hit
	repeats  *request // for hits: the cold request repeated

	lat    time.Duration
	status int
	err    error
	rows   int

	ok       bool // 200 with a decodable reply
	verified bool
	cached   bool
	cycles   int64
	fires    int64
	raw      []byte              // a cold's reply, kept while it is in a repeat pool
	same     bool                // a hit's reply equals its cold's apart from cached and id
	sinks    map[string][]string // a cold netlist's sinks, checked in-process later
	batchBad int                 // batch rows failed or unverified
}

// netlist rebuilds the request's netlist source.
func (q *request) netlist() string {
	switch q.class {
	case coldNetlist:
		return uniqueNetlist(q.base, q.seed)
	case hitNetlist:
		return cosmetic(uniqueNetlist(q.base, q.seed), q.edit)
	}
	return ""
}

// httpServer is one loopback HTTP server.
type httpServer struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return s, nil
}

// close stops the server once its in-flight requests finish. Every
// request has been answered when it is called, so a connection still open
// after the grace period is one that never carried a request; it is
// closed outright.
func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close() // the grace period's error already says why
	}
	<-s.done
}

// fleetEnv is the served system: a coordinator fronting two workers.
type fleetEnv struct {
	url     string
	workers []*service.Server
	coord   *fleet.Coordinator
	servers []*httpServer // coordinator first

	// Traced runs only.
	tr      *Tracer
	parents *spanIndex // client spans by job id
	calls   *spanIndex // coordinator→worker spans by job id
	rtrips  atomic.Int64
	busy    atomic.Int64
}

// startFleet brings up the workers and the coordinator over loopback.
// With a tracer, the coordinator's worker transport and each worker's
// handler are wrapped with timers.
func startFleet(tr *Tracer) (*fleetEnv, error) {
	e := &fleetEnv{tr: tr}
	if tr != nil {
		e.parents, e.calls = newSpanIndex(), newSpanIndex()
	}
	var urls []string
	var workerSrvs []*httpServer
	for i := 0; i < serveWorkers; i++ {
		svc, err := service.New(service.DefaultConfig())
		if err != nil {
			e.closeWith(workerSrvs)
			return nil, err
		}
		e.workers = append(e.workers, svc)
		var h http.Handler = svc.Handler()
		if tr != nil {
			h = &tracedHandler{h: h, env: e}
		}
		s, err := serveLoopback(h)
		if err != nil {
			e.closeWith(workerSrvs)
			return nil, err
		}
		workerSrvs = append(workerSrvs, s)
		urls = append(urls, s.url)
	}
	cfg := fleet.Config{Workers: urls}
	if tr != nil {
		cfg.HTTP = &http.Client{Transport: &tracedTransport{base: http.DefaultTransport, env: e}}
	}
	coord, err := fleet.New(cfg)
	if err != nil {
		e.closeWith(workerSrvs)
		return nil, err
	}
	e.coord = coord
	cs, err := serveLoopback(coord.Handler())
	if err != nil {
		e.closeWith(workerSrvs)
		return nil, err
	}
	e.url = cs.url
	e.servers = append([]*httpServer{cs}, workerSrvs...)
	return e, nil
}

func (e *fleetEnv) close() { e.closeWith(e.servers) }

func (e *fleetEnv) closeWith(servers []*httpServer) {
	if len(servers) > 0 && e.coord != nil {
		servers[0].close()
		e.coord.Close()
		servers = servers[1:]
		// The coordinator's worker connections come from the default
		// transport; drop the idle ones, some of which were dialled and
		// never used, so the workers can shut down at once.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	}
	for _, s := range servers {
		s.close()
	}
	for _, w := range e.workers {
		w.Drain()
	}
}

// serveCounters are the coordinator's and workers' own counters.
type serveCounters struct {
	routed, affinity                         int64
	resHits, resMisses, progHits, progMisses int64
	simNanos                                 int64
	rtrips, busy                             int64
}

func (e *fleetEnv) counters() serveCounters {
	c := serveCounters{
		routed:   e.coord.Metrics().JobsRouted.Load(),
		affinity: e.coord.Metrics().AffinityHits.Load(),
		rtrips:   e.rtrips.Load(),
		busy:     e.busy.Load(),
	}
	for _, w := range e.workers {
		m := w.Metrics()
		c.resHits += m.ResultHits.Load()
		c.resMisses += m.ResultMisses.Load()
		c.progHits += m.ProgramHits.Load()
		c.progMisses += m.ProgramMisses.Load()
		c.simNanos += m.SimNanos.Load()
	}
	return c
}

// client is one closed-loop user: it has its own connection and sends
// its next request only after the previous reply arrived.
type client struct {
	id    int
	seed  int64
	hc    *http.Client
	env   *fleetEnv
	r     *rand.Rand
	n     int64 // requests generated so far
	bases []string
	pool  int // capacity of each repeat pool
	wl    []*request
	nl    []*request
	reqs  []*request
}

func newClient(id int, seed int64, env *fleetEnv, bases []string, pool int) *client {
	return &client{
		id:    id,
		seed:  seed,
		env:   env,
		bases: bases,
		pool:  pool,
		r:     rand.New(rand.NewSource(seed*7919 + int64(id))),
		hc:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
}

// genBases generates n netlists from seeds drawn from seed.
func genBases(seed int64, n int) []string {
	r := rand.New(rand.NewSource(seed))
	bases := make([]string, n)
	for i := range bases {
		bases[i] = gen.Netlist(gen.Params{Seed: r.Int63()})
	}
	return bases
}

// freshSeed is never repeated across clients, requests or seeds 1..2^26.
// Client slot 0 is reserved for warm-up requests.
func (c *client) freshSeed() int64 {
	c.n++
	return c.seed<<36 + int64(c.id+1)<<28 + c.n
}

// uniqueNetlist is a generated netlist made distinct from every other by
// one extra source→sink stream carrying a never-repeated seed, so a cold
// job never hits a cache by coincidence.
func uniqueNetlist(base string, seed int64) string {
	return base + fmt.Sprintf("source uniq : 0x%x 0x%x eod\nsink uniqk\nwire uniq.0 -> uniqk.0\n", uint32(seed), uint32(seed>>32))
}

// cosmetic returns src with an edit that must not change its assembled
// form: a comment line in front, or trailing blanks on the first line.
func cosmetic(src string, edit int64) string {
	if edit%2 == 0 {
		return fmt.Sprintf("// revision %d\n", edit) + src
	}
	i := strings.IndexByte(src, '\n')
	if i < 0 {
		i = len(src)
	}
	return src[:i] + strings.Repeat(" ", 1+int(edit/2%3)) + src[i:]
}

// next generates the client's next request.
func (c *client) next() *request {
	w := c.r.Intn(mixTotal)
	cl := reqClass(0)
	for ; cl < numClasses-1; cl++ {
		if w < classWeights[cl] {
			break
		}
		w -= classWeights[cl]
	}
	if cl == hitWorkload && len(c.wl) == 0 {
		cl = coldWorkload
	}
	if cl == hitNetlist && len(c.nl) == 0 {
		cl = coldNetlist
	}
	seed := c.freshSeed()
	q := &request{class: cl, job: fmt.Sprintf("c%d-%s-%d", c.id+1, strings.ReplaceAll(classNames[cl], "_", ""), c.n)}
	switch cl {
	case coldNetlist:
		q.seed, q.base = seed, c.bases[c.r.Intn(len(c.bases))]
	case coldWorkload, batchJob:
		q.workload, q.seed = coldKernels[c.r.Intn(len(coldKernels))], seed
	case hitWorkload:
		q.repeats = c.wl[c.r.Intn(len(c.wl))]
		q.workload, q.seed = q.repeats.workload, q.repeats.seed
	case hitNetlist:
		q.repeats = c.nl[c.r.Intn(len(c.nl))]
		q.seed, q.base, q.edit = q.repeats.seed, q.repeats.base, seed
	}
	return q
}

// remember adds a completed cold job to its pool, which keeps the c.pool
// most recent ones: an older result could have left the worker's result
// cache, and its repeat would not be a hit. A cold that leaves the pool
// drops its reply.
func (c *client) remember(q *request) {
	pool := &c.wl
	if q.class == coldNetlist {
		pool = &c.nl
	}
	if len(*pool) == c.pool {
		(*pool)[0].raw = nil
		*pool = (*pool)[1:]
	}
	*pool = append(*pool, q)
}

// post sends body to path and returns the status and the raw reply.
func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.env.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// batchJobID names row i of a batch.
func batchJobID(job string, i int) string { return fmt.Sprintf("%s.%d", job, i) }

// do sends one request, records its latency and reduces its reply.
func (c *client) do(q *request) {
	var path string
	var body []byte
	var err error
	if q.class == batchJob {
		br := fleet.BatchRequest{Requests: make([]service.JobRequest, batchRuns)}
		for i := range br.Requests {
			br.Requests[i] = service.JobRequest{Workload: q.workload, Seed: q.seed + int64(i)<<20, JobID: batchJobID(q.job, i)}
		}
		path, q.rows = "/v1/batches", batchRuns
		body, err = json.Marshal(br)
	} else {
		path, q.rows = "/v1/jobs", 1
		body, err = json.Marshal(service.JobRequest{Workload: q.workload, Seed: q.seed, Netlist: q.netlist(), JobID: q.job})
	}
	if err != nil {
		q.err = err
		return
	}

	var sp *Active
	var ids []string
	if tr := c.env.tr; tr != nil {
		name := "serve.job"
		ids = []string{q.job}
		if q.class == batchJob {
			name, ids = "serve.batch", nil
			for i := 0; i < batchRuns; i++ {
				ids = append(ids, batchJobID(q.job, i))
			}
		}
		sp = tr.Start(name, nil, q.job)
		for _, id := range ids {
			c.env.parents.put(id, sp)
		}
	}
	t0 := time.Now()
	status, raw, err := c.post(path, body)
	q.lat = time.Since(t0)
	sp.End()
	for _, id := range ids {
		c.env.parents.del(id)
	}
	q.status, q.err = status, err
	if err != nil || status != http.StatusOK {
		return
	}
	if q.class == batchJob {
		var br fleet.BatchResult
		if q.err = json.Unmarshal(raw, &br); q.err != nil {
			return
		}
		q.ok = true
		q.batchBad = br.Runs - br.Completed
		for _, row := range br.Rows {
			if row.Result != nil && !row.Result.Verified {
				q.batchBad++
			}
		}
		return
	}
	var res service.JobResult
	if q.err = json.Unmarshal(raw, &res); q.err != nil {
		return
	}
	q.ok, q.verified, q.cached, q.cycles = true, res.Verified, res.Cached, res.Cycles
	for _, e := range res.Elements {
		q.fires += e.Fired
	}
	switch q.class {
	case coldNetlist, coldWorkload:
		q.raw = raw
		if q.class == coldNetlist {
			q.sinks = res.Sinks
		}
	case hitNetlist, hitWorkload:
		q.same = sameResult(raw, q.repeats.raw)
	}
}

// sameResult reports whether two raw job results are byte-equal apart
// from their id and cached fields. The service encodes a JobResult's
// fields in declaration order: id first, then key and fingerprint, then
// cached.
func sameResult(a, b []byte) bool {
	a1, a2, okA := resultBody(a)
	b1, b2, okB := resultBody(b)
	return okA && okB && bytes.Equal(a1, b1) && bytes.Equal(a2, b2)
}

// resultBody cuts a raw job result around its id and cached values.
func resultBody(raw []byte) (mid, tail []byte, ok bool) {
	i := bytes.Index(raw, []byte(`"key":`))
	j := bytes.Index(raw, []byte(`"cached":`))
	if i < 0 || j < i {
		return nil, nil, false
	}
	k := bytes.IndexByte(raw[j:], ',')
	if k < 0 {
		return nil, nil, false
	}
	return raw[i:j], raw[j+k:], true
}

// probeLayers times the layer calls the served path makes on a request's
// input, under the request's job id. It runs after the traced window.
func probeLayers(tr *Tracer, q *request) {
	switch q.class {
	case coldNetlist:
		src := q.netlist()
		sp := tr.Start("asm.CheckNetlist", nil, q.job)
		_, _ = asm.CheckNetlist(src, isa.DefaultConfig(), pcpe.DefaultConfig())
		sp.End()
		sp = tr.Start("asm.ParseNetlist", nil, q.job)
		nl, err := asm.ParseNetlist(src, isa.DefaultConfig(), pcpe.DefaultConfig())
		sp.End()
		if err == nil {
			sp = tr.Start("asm.Fingerprint", nil, q.job)
			nl.Fingerprint()
			sp.End()
		}
	case hitNetlist:
		if nl, err := asm.ParseNetlist(q.netlist(), isa.DefaultConfig(), pcpe.DefaultConfig()); err == nil {
			sp := tr.Start("asm.Fingerprint", nil, q.job)
			nl.Fingerprint()
			sp.End()
		}
	case coldWorkload, hitWorkload:
		spec, err := workloads.ByName(q.workload)
		if err != nil {
			return
		}
		p := spec.Normalize(workloads.Params{Seed: q.seed})
		if q.class == coldWorkload {
			sp := tr.Start("workloads.Reference", nil, q.job)
			spec.Reference(p)
			sp.End()
		}
		sp := tr.Start("workloads.BuildTIA", nil, q.job)
		_, _ = spec.BuildTIA(p)
		sp.End()
	}
}

// loop runs the closed loop until the deadline.
func (c *client) loop(deadline time.Time) {
	defer c.hc.CloseIdleConnections()
	for time.Now().Before(deadline) {
		q := c.next()
		c.do(q)
		c.reqs = append(c.reqs, q)
		if q.ok && (q.class == coldNetlist || q.class == coldWorkload) {
			c.remember(q)
		}
	}
}

// probeSample replays up to probesPerClass requests of each class
// through probeLayers, in the order they were sent.
func probeSample(tr *Tracer, reqs []*request) {
	var n [numClasses]int
	for _, q := range reqs {
		if q.ok && n[q.class] < probesPerClass {
			n[q.class]++
			probeLayers(tr, q)
		}
	}
}

// servePhase is the measured time against one fleet.
type servePhase struct {
	clients       []*client
	reqs          []*request
	elapsed, cpu  time.Duration
	before, after serveCounters
}

// newPhase makes nproc closed-loop clients against env, their repeat
// pools sharing repeatPool entries.
func newPhase(env *fleetEnv, seed int64, bases []string) *servePhase {
	ph := &servePhase{before: env.counters(), clients: make([]*client, runtime.NumCPU())}
	pool := max(1, repeatPool/(2*len(ph.clients)))
	for i := range ph.clients {
		ph.clients[i] = newClient(i, seed, env, bases, pool)
	}
	return ph
}

// drive runs every client's closed loop for d.
func (ph *servePhase) drive(d time.Duration) {
	start, c0 := time.Now(), cpuTime()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range ph.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(deadline)
		}()
	}
	wg.Wait()
	ph.elapsed += time.Since(start)
	ph.cpu += cpuTime() - c0
}

// finish records the fleet's counters and gathers the requests.
func (ph *servePhase) finish(env *fleetEnv) {
	ph.after = env.counters()
	for _, c := range ph.clients {
		ph.reqs = append(ph.reqs, c.reqs...)
	}
}

// warmUp sends one request of each class (the hits repeat the colds),
// through a client whose seeds no measured client uses.
func warmUp(env *fleetEnv, seed int64) error {
	c := newClient(-1, seed, env, genBases(seed, 1), 1)
	defer c.hc.CloseIdleConnections()
	for cl := reqClass(0); cl < numClasses; cl++ {
		q := c.next()
		for q.class != cl {
			q = c.next()
		}
		c.do(q)
		if !q.ok {
			return fmt.Errorf("warm-up %s: status %d: %v", classNames[cl], q.status, q.err)
		}
		if cl == coldNetlist || cl == coldWorkload {
			c.remember(q)
		}
	}
	return nil
}

// runServe drives the fleet with nproc closed-loop clients.
func runServe(b *bench) error {
	setup := func(tr *Tracer) func(ready func()) (*fleetEnv, func(), error) {
		return func(ready func()) (*fleetEnv, func(), error) {
			env, err := startFleet(tr)
			if err != nil {
				return nil, nil, err
			}
			ready()
			if err := warmUp(env, b.seed); err != nil {
				env.close()
				return nil, nil, err
			}
			return env, env.close, nil
		}
	}
	env, err := measureSetup(b, setup(nil))
	if err != nil {
		return err
	}
	// The cold netlist jobs extend netlists generated here, so the window
	// charges no netlist generation to the program.
	bases := genBases(b.seed, baseNetlists)
	ph := newPhase(env, b.seed, bases)
	if !b.traced {
		ph.drive(b.window)
		ph.finish(env)
		env.close()
		return b.serveResults(ph, nil)
	}
	// A second fleet with timers on its transport and handlers. The
	// window alternates untraced and traced quarters, so a drift in the
	// machine's speed falls on both alike.
	tr := newTracer()
	tenv, _, err := setup(tr)(func() {})
	if err != nil {
		env.close()
		return err
	}
	tph := newPhase(tenv, b.seed, bases)
	for q := 0; q < 4; q++ {
		if q%2 == 0 {
			ph.drive(b.window / 4)
		} else {
			tph.drive(b.window / 4)
		}
	}
	ph.finish(env)
	tph.finish(tenv)
	env.close()
	tenv.close()
	// The layer probes run now, on one goroutine, so the traced quarters
	// differ from the untraced ones only by the timers.
	probeSample(tr, tph.reqs)
	spans := tr.Spans()
	b.serveLayers(spans, tph)
	if err := b.writeTrace(spans); err != nil {
		return err
	}
	return b.serveResults(ph, tph)
}

// serveResults records the untraced phase's metrics and simulated
// counts, the tracing overhead when there is a traced phase, and checks
// every reply of both.
func (b *bench) serveResults(ph, tph *servePhase) error {
	if err := b.recordRSS(); err != nil {
		return err
	}
	b.serveLatencies(ph)
	b.serveSim(ph.reqs)
	b.checkServe(ph.reqs)
	if tph == nil {
		return nil
	}
	b.overheadPct("job p50 ms (all single-job classes)", singleJobP50(ph), singleJobP50(tph))
	b.checkServe(tph.reqs)
	return nil
}

// serveLatencies records the end-to-end serve metrics.
func (b *bench) serveLatencies(ph *servePhase) {
	var cold, hit, single, batch []float64
	perClass := make([][]float64, numClasses)
	var jobs int64
	for _, q := range ph.reqs {
		if !q.ok {
			continue
		}
		l := ms(q.lat)
		perClass[q.class] = append(perClass[q.class], l)
		switch q.class {
		case coldNetlist, coldWorkload:
			cold = append(cold, l)
		case hitNetlist, hitWorkload:
			hit = append(hit, l)
		case batchJob:
			batch = append(batch, l)
			jobs += int64(q.rows - q.batchBad)
			continue
		}
		single = append(single, l)
		jobs++
	}
	b.latencyMetrics("job_cold", cold, true)
	b.latencyMetrics("job_hit", hit, true)
	b.latencyMetrics("batch", batch, false)
	jps := float64(jobs) / ph.elapsed.Seconds()
	b.addNamed("serve_jobs_per_s", jps, "jobs/s", fmt.Sprintf("%d closed-loop clients, batch rows counted", runtime.NumCPU()))
	for cl := reqClass(0); cl < batchJob; cl++ {
		b.addNamed(classNames[cl]+"_p50_ms", quantile(perClass[cl], 0.5), "ms", fmt.Sprintf("n=%d", len(perClass[cl])))
	}
	b.addNamed("job_p50_ms", quantile(single, 0.5), "ms", fmt.Sprintf("n=%d, every single-job class", len(single)))
	b.cpuPerOp(ph.cpu, float64(jobs), "job (clients, coordinator and workers; batch rows counted)")
}

// singleJobP50 is the p50 latency over every single-job class.
func singleJobP50(ph *servePhase) float64 {
	var lat []float64
	for _, q := range ph.reqs {
		if q.class != batchJob && q.ok {
			lat = append(lat, ms(q.lat))
		}
	}
	return quantile(lat, 0.5)
}

// serveLayers derives the per-layer metrics of the traced window.
func (b *bench) serveLayers(spans []Span, ph *servePhase) {
	agg := Aggregate(spans)
	var jobs int64
	for _, q := range ph.reqs {
		if q.ok {
			jobs += int64(q.rows - q.batchBad)
		}
	}
	d0, d1 := ph.before, ph.after
	check, parse := agg["asm.CheckNetlist"], agg["asm.ParseNetlist"]
	b.setLayer("asm.check_us", float64(check.MeanTotal())/1e3, "us")
	b.setLayer("asm.build_us", float64(parse.MeanTotal()-check.MeanTotal())/1e3, "us")
	b.setLayer("asm.fingerprint_us", float64(agg["asm.Fingerprint"].MeanTotal())/1e3, "us")
	b.setLayer("workloads.build_tia_us", float64(agg["workloads.BuildTIA"].MeanTotal())/1e3, "us")
	b.setLayer("workloads.reference_us", float64(agg["workloads.Reference"].MeanTotal())/1e3, "us")
	b.setLayer("fleet.self_ms", ms(agg["serve.job"].MeanSelf()), "ms")
	b.setLayer("fleet.worker_calls_per_job", ratio(float64(d1.rtrips-d0.rtrips), float64(jobs)), "ratio")
	b.setLayer("fleet.jobs", float64(jobs), "count")
	routed := d1.routed - d0.routed
	b.setLayer("fleet.affinity_hit_ratio", ratio(float64(d1.affinity-d0.affinity), float64(routed)), "ratio")
	b.setLayer("fleet.jobs_routed", float64(routed), "count")
	h := agg["service.handler"]
	b.setLayer("service.handler_ms", ms(h.MeanTotal()), "ms")
	b.setLayer("service.sim_share", ratio(float64(d1.simNanos-d0.simNanos), float64(h.Total)), "ratio")
	b.setLayer("service.handler_total_ms", ms(h.Total), "ms")
	resLook := (d1.resHits + d1.resMisses) - (d0.resHits + d0.resMisses)
	progLook := (d1.progHits + d1.progMisses) - (d0.progHits + d0.progMisses)
	b.setLayer("service.result_hit_ratio", ratio(float64(d1.resHits-d0.resHits), float64(resLook)), "ratio")
	b.setLayer("service.result_lookups", float64(resLook), "count")
	b.setLayer("service.program_hit_ratio", ratio(float64(d1.progHits-d0.progHits), float64(progLook)), "ratio")
	b.setLayer("service.program_lookups", float64(progLook), "count")
	b.setLayer("service.busy_rejects", float64(d1.busy-d0.busy), "count")
}

// checkServe counts every job as attempted and checks every reply.
func (b *bench) checkServe(reqs []*request) {
	ctx := context.Background()
	for _, q := range reqs {
		b.attempted.Add(int64(q.rows))
		if !q.ok {
			b.failed.Add(int64(q.rows) - 1)
			b.fail("%s %s: status %d: %v", classNames[q.class], q.job, q.status, q.err)
			continue
		}
		switch q.class {
		case batchJob:
			if q.batchBad > 0 {
				b.failed.Add(int64(q.batchBad) - 1)
				b.fail("batch %s: %d of %d rows failed or unverified", q.job, q.batchBad, q.rows)
			}
		case coldWorkload:
			if !q.verified {
				b.fail("%s: workload result not verified", q.job)
			}
		case coldNetlist:
			if err := checkNetlistResult(ctx, q.netlist(), q.cycles, q.sinks); err != nil {
				b.fail("%s: %v", q.job, err)
			}
		case hitWorkload, hitNetlist:
			switch {
			case !q.cached:
				b.fail("%s: repeat of %s was not a result-cache hit", q.job, q.repeats.job)
			case !q.same:
				b.fail("%s: hit differs from the cold result of %s", q.job, q.repeats.job)
			}
		}
	}
}

// checkNetlistResult compares a served netlist result with an
// in-process parse and run of the same source.
func checkNetlistResult(ctx context.Context, src string, cycles int64, sinks map[string][]string) error {
	nl, err := asm.ParseNetlist(src, isa.DefaultConfig(), pcpe.DefaultConfig())
	if err != nil {
		return err
	}
	run, err := nl.Fabric.RunContext(ctx, netlistBudget)
	if err != nil {
		return err
	}
	got := map[string][]string{}
	for name, snk := range nl.Sinks {
		toks := snk.Tokens()
		got[name] = make([]string, len(toks))
		for i, t := range toks {
			got[name][i] = t.String()
		}
	}
	if run.Cycles != cycles || !maps.EqualFunc(got, sinks, slices.Equal) {
		return fmt.Errorf("served result (%d cycles) differs from an in-process run (%d cycles, sinks %v)", cycles, run.Cycles, got)
	}
	return nil
}

// serveSim records the simulated counts of each client's first
// sampleJobs single jobs.
func (b *bench) serveSim(reqs []*request) {
	seen := map[string]int{}
	var cycles, fires int64
	for _, q := range reqs {
		if q.class == batchJob || !q.ok {
			continue
		}
		c, _, _ := strings.Cut(q.job, "-")
		if seen[c] >= sampleJobs {
			continue
		}
		seen[c]++
		cycles += q.cycles
		fires += q.fires
	}
	b.addSim("serve.sample_cycles", cycles)
	b.addSim("serve.sample_fires", fires)
	b.setLayer("sim.cycles", float64(cycles), "count")
	b.setLayer("sim.fires", float64(fires), "count")
}

// spanIndex maps job ids to the span their next layer's spans nest under.
type spanIndex struct {
	mu sync.Mutex
	m  map[string]*Active
}

func newSpanIndex() *spanIndex { return &spanIndex{m: map[string]*Active{}} }

func (x *spanIndex) put(job string, a *Active) {
	x.mu.Lock()
	x.m[job] = a
	x.mu.Unlock()
}

func (x *spanIndex) get(job string) *Active {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.m[job]
}

func (x *spanIndex) del(job string) {
	x.mu.Lock()
	delete(x.m, job)
	x.mu.Unlock()
}

// jobOf extracts the job id a worker-bound request carries: the job_id
// field of a POST /v1/jobs body (which it replaces with an unread copy),
// or the id in a /v1/jobs/{id} path. Health probes carry none.
func jobOf(method, path string, body *io.ReadCloser) string {
	if method == http.MethodPost && path == "/v1/jobs" && *body != nil {
		raw, err := io.ReadAll(*body)
		(*body).Close()
		*body = io.NopCloser(bytes.NewReader(raw))
		if err != nil {
			return ""
		}
		var req struct {
			JobID string `json:"job_id"`
		}
		_ = json.Unmarshal(raw, &req) // a malformed body has no job to attribute
		return req.JobID
	}
	if rest, ok := strings.CutPrefix(path, "/v1/jobs/"); ok {
		id, _, _ := strings.Cut(rest, "/")
		return id
	}
	return ""
}

// tracedTransport times each coordinator→worker round trip, from the
// request to the close of the reply body.
type tracedTransport struct {
	base http.RoundTripper
	env  *fleetEnv
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	body := req.Body
	job := jobOf(req.Method, req.URL.Path, &body)
	if job == "" {
		return t.base.RoundTrip(req)
	}
	r2 := req.Clone(req.Context())
	r2.Body = body
	e := t.env
	e.rtrips.Add(1)
	sp := e.tr.StartTrack("fleet.worker_call", e.parents.get(job), job)
	e.calls.put(job, sp)
	end := func() {
		sp.End()
		e.calls.del(job)
	}
	resp, err := t.base.RoundTrip(r2)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: end}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// tracedHandler times each worker request and counts busy rejections.
type tracedHandler struct {
	h   http.Handler
	env *fleetEnv
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	job := jobOf(r.Method, r.URL.Path, &r.Body)
	if job == "" {
		t.h.ServeHTTP(w, r)
		return
	}
	name := "service.handler"
	if r.Method != http.MethodPost {
		name = "service.handler.status"
	}
	sp := t.env.tr.Start(name, t.env.calls.get(job), job)
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	t.h.ServeHTTP(sw, r)
	sp.End()
	if sw.code == http.StatusTooManyRequests || sw.code == http.StatusServiceUnavailable {
		t.env.busy.Add(1)
	}
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (s *statusWriter) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}
