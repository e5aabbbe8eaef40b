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
	"tia/internal/metrics"
	"tia/internal/pcpe"
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
	Size        int    `json:"size,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	Policy      int    `json:"policy,omitempty"`
	IssueWidth  int    `json:"issue_width,omitempty"`
	MemLatency  int    `json:"mem_latency,omitempty"`
	ChanCap     int    `json:"chan_cap,omitempty"`
	ChanLat     int    `json:"chan_lat,omitempty"`
	MaxCycles   int64  `json:"max_cycles"`
	Trace       bool   `json:"trace,omitempty"`
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
	if req.MaxCycles < 0 {
		// Submit rejects this at the boundary; guard replayed or embedded
		// requests too rather than silently running the server default.
		return nil, jobErrorf(ErrBadRequest, "max_cycles %d: must be non-negative (0 means the server default)", req.MaxCycles)
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

// lookupResult consults the result cache; hits are returned as shallow
// copies flagged Cached (the cached entry is never mutated afterwards).
func (s *Server) lookupResult(key string, noCache bool) (*JobResult, bool) {
	if noCache {
		return nil, false
	}
	v, ok := s.results.get(key)
	if !ok {
		s.metrics.ResultMisses.Add(1)
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

	budget := spec.MaxCycles(p)
	if req.MaxCycles > 0 {
		budget = req.MaxCycles
	}
	budget = min(budget, s.cfg.MaxCyclesCap)

	inst, err := spec.BuildTIA(p)
	if err != nil {
		return nil, jobErrorf(ErrCompile, "build %s: %v", spec.Name, err)
	}
	fp := ""
	for _, pr := range inst.PEs {
		fp += asm.HashTIAProgram(pr.Program())
	}
	key := resultKey{
		Kind: "workload", Name: spec.Name, Fingerprint: hashString(fp),
		Size: p.Size, Seed: p.Seed, Policy: req.Policy, IssueWidth: p.IssueWidth,
		MemLatency: p.MemLatency, ChanCap: p.FabricCfg.ChannelCapacity,
		ChanLat: p.FabricCfg.ChannelLatency, MaxCycles: budget, Trace: req.Trace,
	}
	keyHash := key.hash()
	if res, ok := s.lookupResult(keyHash, req.NoCache); ok {
		return res, nil
	}

	var rec *trace.Recorder
	if req.Trace {
		rec = trace.New(s.cfg.TraceEventLimit)
		for _, pr := range inst.PEs {
			rec.Attach(pr)
		}
	}
	// Resume staging is independent of checkpointing: a migrated job
	// carries its snapshot inline (ResumeSnapshot) and restores even on
	// a server without a journal; only writing new checkpoints needs
	// durability configured.
	budget = s.restoreOrRestart(id, key.Fingerprint, inst.Fabric, budget)
	if s.checkpointsOn(req) {
		inst.Fabric.SetCheckpoint(s.cfg.CheckpointEvery, func(cycle int64) error {
			return s.writeCheckpoint(id, key.Fingerprint, inst.Fabric, cycle)
		})
	}
	start, startCycle := time.Now(), inst.Fabric.Cycle()
	runRes, err := inst.Fabric.RunContext(ctx, budget)
	s.accountSim(runRes.Cycles-startCycle, time.Since(start))
	if err != nil {
		return nil, simError(ctx, err, runRes.Cycles)
	}
	if got, want := inst.Sink.Words(), spec.Reference(p); !wordsEqual(got, want) {
		return nil, jobErrorf(ErrVerify, "%s: output mismatch vs golden reference (%d vs %d words)",
			spec.Name, len(got), len(want))
	}

	res := &JobResult{
		ID:          id,
		Key:         keyHash,
		Fingerprint: key.Fingerprint,
		Cycles:      runRes.Cycles,
		Completed:   runRes.Completed,
		Verified:    true,
		Sinks:       map[string][]string{inst.Sink.Name(): renderTokens(inst.Sink)},
	}
	for _, pr := range inst.PEs {
		u := metrics.TIAUtilization(pr)
		res.Elements = append(res.Elements, ElementStats{
			Name: u.Name, Kind: "pe", Fired: u.Fired, Occupancy: u.Occupancy,
			InputStall: u.InputStall, OutputStall: u.OutputStall, Idle: u.Idle,
		})
	}
	if rec != nil {
		if res.Trace, err = chromeJSON(rec); err != nil {
			return nil, jobErrorf(ErrInternal, "encode trace: %v", err)
		}
	}
	s.results.put(keyHash, res)
	return res, nil
}

// runNetlistJob parses a netlist and simulates it. Every job parses its
// own fabric, so no simulator state is shared between jobs; the parse
// passes governor admission before any element is built.
func (s *Server) runNetlistJob(ctx context.Context, id string, req *JobRequest) (*JobResult, error) {
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

	budget := s.cfg.DefaultMaxCycles
	if req.MaxCycles > 0 {
		budget = req.MaxCycles
	}
	budget = min(budget, s.cfg.MaxCyclesCap)

	fp := nl.Fingerprint()
	key := resultKey{Kind: "netlist", Fingerprint: fp, MaxCycles: budget, Trace: req.Trace}
	keyHash := key.hash()
	if res, ok := s.lookupResult(keyHash, req.NoCache); ok {
		return res, nil
	}

	var rec *trace.Recorder
	if req.Trace {
		rec = trace.New(s.cfg.TraceEventLimit)
		for _, pr := range nl.PEs {
			rec.Attach(pr)
		}
	}
	budget = s.restoreOrRestart(id, fp, nl.Fabric, budget)
	if s.checkpointsOn(req) {
		nl.Fabric.SetCheckpoint(s.cfg.CheckpointEvery, func(cycle int64) error {
			return s.writeCheckpoint(id, fp, nl.Fabric, cycle)
		})
	}
	start, startCycle := time.Now(), nl.Fabric.Cycle()
	runRes, err := nl.Fabric.RunContext(ctx, budget)
	s.accountSim(runRes.Cycles-startCycle, time.Since(start))
	if err != nil {
		return nil, simError(ctx, err, runRes.Cycles)
	}

	res := &JobResult{
		ID:          id,
		Key:         keyHash,
		Fingerprint: fp,
		Cycles:      runRes.Cycles,
		Completed:   runRes.Completed,
		Sinks:       map[string][]string{},
	}
	for name, snk := range nl.Sinks {
		res.Sinks[name] = renderTokens(snk)
	}
	for _, name := range sortedKeys(nl.PEs) {
		u := metrics.TIAUtilization(nl.PEs[name])
		res.Elements = append(res.Elements, ElementStats{
			Name: u.Name, Kind: "pe", Fired: u.Fired, Occupancy: u.Occupancy,
			InputStall: u.InputStall, OutputStall: u.OutputStall, Idle: u.Idle,
		})
	}
	for _, name := range sortedKeys(nl.PCPEs) {
		u := metrics.PCUtilization(nl.PCPEs[name])
		res.Elements = append(res.Elements, ElementStats{
			Name: u.Name, Kind: "pcpe", Fired: u.Fired, Occupancy: u.Occupancy,
			InputStall: u.InputStall, OutputStall: u.OutputStall, Penalty: u.Penalty,
		})
	}
	for _, name := range sortedKeys(nl.Mems) {
		m := nl.Mems[name]
		res.Elements = append(res.Elements, ElementStats{
			Name: name, Kind: "scratchpad", Reads: m.Reads(), Writes: m.Writes(),
		})
	}
	if rec != nil {
		if res.Trace, err = chromeJSON(rec); err != nil {
			return nil, jobErrorf(ErrInternal, "encode trace: %v", err)
		}
	}
	s.results.put(keyHash, res)
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

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func hashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
