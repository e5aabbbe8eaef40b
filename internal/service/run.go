package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"tia/internal/asm"
	"tia/internal/fabric"
	"tia/internal/isa"
	"tia/internal/limits"
	"tia/internal/mem"
	"tia/internal/metrics"
	"tia/internal/pcpe"
	"tia/internal/pe"
	"tia/internal/trace"
	"tia/internal/workloads"
)

// resultKey is the canonical content-address of a job result: every
// field that can change the response payload. Hashing its JSON encoding
// keys the completed-result cache.
type resultKey struct {
	Kind        string `json:"kind"` // "workload" or "netlist"
	Name        string `json:"name,omitempty"`
	Fingerprint string `json:"fingerprint"`
	// Tokens is set, with Fingerprint empty, only in a netlist job's
	// pre-parse key (see Server.simulate).
	Tokens     string `json:"tokens,omitempty"`
	Size       int    `json:"size,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Policy     int    `json:"policy,omitempty"`
	IssueWidth int    `json:"issue_width,omitempty"`
	MemLatency int    `json:"mem_latency,omitempty"`
	ChanCap    int    `json:"chan_cap,omitempty"`
	ChanLat    int    `json:"chan_lat,omitempty"`
	MaxCycles  int64  `json:"max_cycles"`
	Trace      bool   `json:"trace,omitempty"`
}

func (k resultKey) hash() string {
	b, err := json.Marshal(k)
	if err != nil {
		panic(fmt.Sprintf("service: result key marshal: %v", err)) // struct of scalars; cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runJob executes one job: build or parse the program, consult the
// completed-result cache, and only simulate on a miss. ctx carries the
// job's deadline/cancellation all the way into the fabric stepping
// loop; id is the journaled job identity (checkpoints and resume
// snapshots are keyed by it).
func (s *Server) runJob(ctx context.Context, id string, req *JobRequest) (*JobResult, error) {
	// Submit rejects bad knobs at the boundary; guard replayed or
	// embedded requests too rather than silently running the server
	// default or panicking in a kernel builder.
	if err := checkKnobs(req); err != nil {
		return nil, err
	}
	switch {
	case req.Workload != "" && req.Netlist != "":
		return nil, jobErrorf(ErrBadRequest, "submit either a workload or a netlist, not both")
	case req.Workload != "":
		if req.Faults != nil {
			return s.runFaultCampaign(ctx, id, req)
		}
		return s.runWorkloadJob(ctx, id, req)
	case req.Netlist != "":
		if req.Faults != nil {
			return nil, jobErrorf(ErrBadRequest, "fault campaigns require a workload job")
		}
		return s.runNetlistJob(ctx, id, req)
	default:
		return nil, jobErrorf(ErrBadRequest, "job needs a workload name or a netlist")
	}
}

// cachedResult consults the result cache under key, a content key or
// a pre-build key; hits are counted and returned as shallow copies
// flagged Cached (the cached entry is never mutated afterwards). A miss
// is not counted here: a job that misses its pre-build key looks up its
// content key next, and Server.simulate counts one miss per job.
func (s *Server) cachedResult(key string, noCache bool) (*JobResult, bool) {
	if noCache {
		return nil, false
	}
	v, ok := s.results.get(key)
	if !ok {
		return nil, false
	}
	s.metrics.ResultHits.Add(1)
	res := *(v.(*JobResult))
	res.Cached = true
	return &res, true
}

// accountSim adds one finished simulation to the throughput counters.
func (s *Server) accountSim(cycles int64, elapsed time.Duration) {
	s.metrics.CyclesSimulated.Add(cycles)
	s.metrics.SimNanos.Add(int64(elapsed))
}

// simError converts a fabric run error into the typed job error,
// distinguishing deadline expiry, cancellation, deadlock and cycle-
// budget exhaustion. The cycles the run reached are preserved.
func simError(ctx context.Context, err error, cycles int64) *JobError {
	je := &JobError{Cycles: cycles, Message: err.Error()}
	switch {
	case errors.Is(err, fabric.ErrCancelled):
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			je.Kind = ErrDeadline
		} else {
			je.Kind = ErrCancelled
		}
	case errors.Is(err, fabric.ErrDeadlock):
		je.Kind = ErrDeadlock
	case errors.Is(err, fabric.ErrTimeout):
		je.Kind = ErrCycleBudget
	default:
		je.Kind = ErrInternal
	}
	return je
}

// checkKnobs applies the request rules that hold for every job before
// it is queued or run. The channel knobs follow the rules the netlist
// assembler applies to its own cap and lat: a workload's kernel builder
// wires with them and would panic on a negative latency, and a huge
// capacity allocates that many slots for every channel.
func checkKnobs(req *JobRequest) error {
	if req.MaxCycles < 0 {
		return jobErrorf(ErrBadRequest, "max_cycles %d: must be non-negative (0 means the server default)", req.MaxCycles)
	}
	if req.ChannelLatency < 0 {
		return jobErrorf(ErrBadRequest, "channel_latency %d: must be non-negative", req.ChannelLatency)
	}
	if req.ChannelCapacity < 0 {
		return jobErrorf(ErrBadRequest, "channel_capacity %d: must be non-negative (0 means the fabric default)", req.ChannelCapacity)
	}
	if req.ChannelCapacity > asm.MaxChannelCap {
		return jobErrorf(ErrBadRequest, "channel_capacity %d exceeds the %d-token fabric limit", req.ChannelCapacity, asm.MaxChannelCap)
	}
	return nil
}

// cycleBudget is a job's cycle budget: the request's max_cycles, or def
// when it names none, capped by the server's ceiling.
func (s *Server) cycleBudget(req *JobRequest, def int64) int64 {
	if req.MaxCycles > 0 {
		def = req.MaxCycles
	}
	return min(def, s.cfg.MaxCyclesCap)
}

// workloadParams maps a request's workload knobs onto kernel parameters.
func workloadParams(req *JobRequest) workloads.Params {
	p := workloads.Params{
		Size:       req.Size,
		Seed:       req.Seed,
		Policy:     workloads.PolicyFromInt(req.Policy),
		IssueWidth: req.IssueWidth,
		MemLatency: req.MemLatency,
	}
	if req.ChannelCapacity > 0 || req.ChannelLatency > 0 {
		p.FabricCfg = fabric.DefaultConfig()
		if req.ChannelCapacity > 0 {
			p.FabricCfg.ChannelCapacity = req.ChannelCapacity
		}
		p.FabricCfg.ChannelLatency = req.ChannelLatency
	}
	return p
}

// runWorkloadJob runs a named kernel of the built-in suite. The output
// is verified token-for-token against the golden Go reference before the
// result is trusted or cached.
func (s *Server) runWorkloadJob(ctx context.Context, id string, req *JobRequest) (*JobResult, error) {
	spec, err := workloads.ByName(req.Workload)
	if err != nil {
		return nil, jobErrorf(ErrBadRequest, "%v", err)
	}
	p := spec.Normalize(workloadParams(req))
	key := resultKey{
		Kind: "workload", Name: spec.Name,
		Size: p.Size, Seed: p.Seed, Policy: req.Policy, IssueWidth: p.IssueWidth,
		MemLatency: p.MemLatency, ChanCap: p.FabricCfg.ChannelCapacity,
		ChanLat: p.FabricCfg.ChannelLatency, MaxCycles: s.cycleBudget(req, spec.MaxCycles(p)),
		Trace: req.Trace,
	}
	// The kernel is a pure function of the key's other fields, so the
	// key without its fingerprint finds a result before any build.
	preKey := key.hash()
	if res, ok := s.cachedResult(preKey, req.NoCache); ok {
		return res, nil
	}
	inst, err := spec.BuildTIA(p)
	if err != nil {
		return nil, jobErrorf(ErrCompile, "build %s: %v", spec.Name, err)
	}
	fp := ""
	for _, pr := range inst.PEs {
		fp += asm.HashTIAProgram(pr.Program())
	}
	key.Fingerprint = hashString(fp)
	return s.simulate(ctx, id, req, simJob{
		key:    key,
		preKey: preKey,
		fabric: inst.Fabric,
		pes:    inst.PEs,
		sinks:  map[string]*fabric.Sink{inst.Sink.Name(): inst.Sink},
		verify: func() error {
			if got, want := inst.Sink.Words(), spec.Reference(p); !wordsEqual(got, want) {
				return jobErrorf(ErrVerify, "%s: output mismatch vs golden reference (%d vs %d words)",
					spec.Name, len(got), len(want))
			}
			return nil
		},
	})
}

// CheckNetlist parses and validates netlist source against the PE
// configuration a worker builds with, without building it: a non-nil
// error is what a netlist job with this source fails with as
// bad_request.
func CheckNetlist(src string) error {
	_, err := asm.CheckNetlist(src, isa.DefaultConfig(), pcpe.DefaultConfig())
	return err
}

// runNetlistJob parses a netlist and simulates it. Every job parses its
// own fabric, so no simulator state is shared between jobs; the parse
// passes governor admission before any element is built. A source whose
// tokens match a cached job's is answered before the parse.
func (s *Server) runNetlistJob(ctx context.Context, id string, req *JobRequest) (*JobResult, error) {
	key := resultKey{Kind: "netlist", Tokens: asm.TokenHash(req.Netlist),
		MaxCycles: s.cycleBudget(req, defaultMaxCycles), Trace: req.Trace}
	preKey := key.hash()
	if res, ok := s.cachedResult(preKey, req.NoCache); ok {
		return res, nil
	}
	s.metrics.ProgramMisses.Add(1)
	var release func()
	nl, err := asm.ParseNetlistAdmit(req.Netlist, isa.DefaultConfig(), pcpe.DefaultConfig(),
		func(c asm.Census) error {
			var aerr error
			release, aerr = s.governor.Admit(c)
			return aerr
		})
	if err != nil {
		if release != nil {
			release() // admission passed but construction failed
		}
		if limits.IsResourceLimit(err) {
			s.metrics.JobsRejectedResource.Add(1)
			return nil, jobErrorf(ErrResourceLimit, "%v", err)
		}
		// Validation failures are the client's malformed input, not a
		// compiler defect: typed bad_request, deterministic for failover.
		return nil, jobErrorf(ErrBadRequest, "%v", err)
	}
	defer release()
	key.Tokens, key.Fingerprint = "", nl.Fingerprint()
	return s.simulate(ctx, id, req, simJob{
		key:    key,
		preKey: preKey,
		fabric: nl.Fabric,
		pes:    byName(nl.PEs),
		pcpes:  byName(nl.PCPEs),
		mems:   byName(nl.Mems),
		sinks:  nl.Sinks,
	})
}

// simJob is a built workload or netlist job, ready to simulate.
type simJob struct {
	// key content-addresses the result; key.MaxCycles is the budget.
	key resultKey
	// preKey is the hash of the key the job computed before it built
	// anything: the workload key without its fingerprint, or the
	// netlist's token key. It becomes the result's second cache key.
	preKey string
	fabric *fabric.Fabric
	// The result's Elements list the triggered PEs (traced on request),
	// then the PC PEs, then the scratchpads, each in slice order.
	pes   []*pe.PE
	pcpes []*pcpe.PE
	mems  []*mem.Scratchpad
	sinks map[string]*fabric.Sink
	// verify, when set, checks the outputs against a golden reference
	// before the result is trusted; the result is then Verified.
	verify func() error
}

// simulate is the one simulate path of workload and netlist jobs:
// result-cache lookup, trace attach, resume or restart, checkpoint
// hook, run, verification, result assembly and caching.
//
// A result is cached under its content key with j.preKey as a second
// key, so the next identical job skips the build or parse. The second
// key is only ever valid in this process: the journal records the
// content key alone, and a restarted daemon finds a replayed result
// after one build, which registers the second key again.
func (s *Server) simulate(ctx context.Context, id string, req *JobRequest, j simJob) (*JobResult, error) {
	keyHash := j.key.hash()
	if res, ok := s.cachedResult(keyHash, req.NoCache); ok {
		s.results.alias(j.preKey, keyHash)
		return res, nil
	}
	if !req.NoCache {
		s.metrics.ResultMisses.Add(1)
	}

	var rec *trace.Recorder
	if req.Trace {
		rec = trace.New(traceEventLimit)
		for _, pr := range j.pes {
			rec.Attach(pr)
		}
	}
	// Resume staging is independent of checkpointing: a migrated job
	// carries its snapshot inline (ResumeSnapshot) and restores even on
	// a server without a journal; only writing new checkpoints needs
	// durability configured.
	fp, f := j.key.Fingerprint, j.fabric
	budget := s.restoreOrRestart(id, fp, f, j.key.MaxCycles)
	if s.checkpointsOn(req) {
		f.SetCheckpoint(s.cfg.CheckpointEvery, func(cycle int64) error {
			return s.writeCheckpoint(id, fp, f, cycle)
		})
	}
	start, startCycle := time.Now(), f.Cycle()
	runRes, err := f.RunContext(ctx, budget)
	s.accountSim(runRes.Cycles-startCycle, time.Since(start))
	if err != nil {
		return nil, simError(ctx, err, runRes.Cycles)
	}
	if j.verify != nil {
		if err := j.verify(); err != nil {
			return nil, err
		}
	}

	res := &JobResult{
		ID:          id,
		Key:         keyHash,
		Fingerprint: fp,
		Cycles:      runRes.Cycles,
		Completed:   runRes.Completed,
		Verified:    j.verify != nil,
		Sinks:       make(map[string][]string, len(j.sinks)),
	}
	for name, snk := range j.sinks {
		res.Sinks[name] = renderTokens(snk)
	}
	for _, pr := range j.pes {
		u := metrics.TIAUtilization(pr)
		res.Elements = append(res.Elements, ElementStats{
			Name: u.Name, Kind: "pe", Fired: u.Fired, Occupancy: u.Occupancy,
			InputStall: u.InputStall, OutputStall: u.OutputStall, Idle: u.Idle,
		})
	}
	for _, pr := range j.pcpes {
		u := metrics.PCUtilization(pr)
		res.Elements = append(res.Elements, ElementStats{
			Name: u.Name, Kind: "pcpe", Fired: u.Fired, Occupancy: u.Occupancy,
			InputStall: u.InputStall, OutputStall: u.OutputStall, Penalty: u.Penalty,
		})
	}
	for _, m := range j.mems {
		res.Elements = append(res.Elements, ElementStats{
			Name: m.Name(), Kind: "scratchpad", Reads: m.Reads(), Writes: m.Writes(),
		})
	}
	if rec != nil {
		if res.Trace, err = chromeJSON(rec); err != nil {
			return nil, jobErrorf(ErrInternal, "encode trace: %v", err)
		}
	}
	s.results.put(keyHash, res)
	s.results.alias(j.preKey, keyHash)
	return res, nil
}

// renderTokens renders a sink's received tokens in netlist token syntax.
func renderTokens(snk *fabric.Sink) []string {
	toks := snk.Tokens()
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.String()
	}
	return out
}

// chromeJSON serializes a recorder's events as Chrome trace-event JSON.
func chromeJSON(rec *trace.Recorder) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := rec.WriteChromeJSON(&buf); err != nil {
		return nil, err
	}
	return json.RawMessage(buf.Bytes()), nil
}

func wordsEqual(a, b []isa.Word) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// byName returns m's values in the order of their sorted keys.
func byName[V any](m map[string]V) []V {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]V, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

func hashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
