package service

import (
	"fmt"
	"io"
	"sync/atomic"
)

// Metrics aggregates the daemon's operational counters. All fields are
// monotonic totals except QueueDepth and Running, which are gauges.
type Metrics struct {
	JobsStarted   atomic.Int64 // accepted for execution
	JobsCompleted atomic.Int64 // finished with a result (cache hits included)
	JobsFailed    atomic.Int64 // finished with a non-cancellation error
	JobsCancelled atomic.Int64 // stopped by cancellation or deadline
	JobsRejected  atomic.Int64 // refused at admission (queue full)
	JobsReplayed  atomic.Int64 // re-enqueued from the journal at startup
	JobsResumed   atomic.Int64 // runs that restored from a checkpoint snapshot

	JobsRejectedResource atomic.Int64 // refused by the resource governor (internal/limits)

	SnapshotExports atomic.Int64 // checkpoint snapshots served to migrators
	StatusLookups   atomic.Int64 // GET /v1/jobs/{id} answers

	ResultHits   atomic.Int64
	ResultMisses atomic.Int64
	// ProgramHits and ProgramMisses feed the benchmark's
	// service.program_* rows. Every netlist job parses its own fabric,
	// so ProgramMisses counts netlist parses and ProgramHits stays 0.
	// Neither is exported on /metrics.
	ProgramHits   atomic.Int64
	ProgramMisses atomic.Int64

	QueueDepth atomic.Int64 // jobs submitted but not yet executing
	Running    atomic.Int64 // jobs executing right now

	CyclesSimulated atomic.Int64 // fabric cycles across all jobs
	SimNanos        atomic.Int64 // wall time spent inside simulations

	// Fault-campaign outcomes (see internal/core's resilience taxonomy).
	FaultsInjected    atomic.Int64 // discrete fault events injected
	FaultRunsMasked   atomic.Int64 // runs byte-identical to golden
	FaultRunsDetected atomic.Int64 // runs failing loudly or structurally
	FaultRunsSilent   atomic.Int64 // runs with silent data corruption
	FaultRunsHang     atomic.Int64 // runs that deadlocked or timed out
}

// CyclesPerSecond is the aggregate simulation throughput since start.
func (m *Metrics) CyclesPerSecond() float64 {
	ns := m.SimNanos.Load()
	if ns == 0 {
		return 0
	}
	return float64(m.CyclesSimulated.Load()) / (float64(ns) / 1e9)
}

// WritePrometheus renders the counters in Prometheus text exposition
// format.
func (m *Metrics) WritePrometheus(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("tia_jobs_started_total", "Jobs accepted for execution.", m.JobsStarted.Load())
	counter("tia_jobs_completed_total", "Jobs finished with a result, cache hits included.", m.JobsCompleted.Load())
	counter("tia_jobs_failed_total", "Jobs finished with a non-cancellation error.", m.JobsFailed.Load())
	counter("tia_jobs_cancelled_total", "Jobs stopped by cancellation or deadline expiry.", m.JobsCancelled.Load())
	counter("tia_jobs_rejected_total", "Jobs refused at admission because the queue was full.", m.JobsRejected.Load())
	counter("tia_jobs_rejected_resource_total", "Jobs refused by the resource governor's per-job or server budget.", m.JobsRejectedResource.Load())
	counter("tia_jobs_replayed_total", "Jobs re-enqueued from the journal at startup.", m.JobsReplayed.Load())
	counter("tia_jobs_resumed_total", "Runs restored from a checkpoint snapshot (replay or migration).", m.JobsResumed.Load())
	counter("tia_snapshot_exports_total", "Checkpoint snapshots served to migrators.", m.SnapshotExports.Load())
	counter("tia_status_lookups_total", "Job status lookups answered.", m.StatusLookups.Load())
	counter("tia_result_cache_hits_total", "Completed-result cache hits.", m.ResultHits.Load())
	counter("tia_result_cache_misses_total", "Completed-result cache misses.", m.ResultMisses.Load())
	gauge("tia_job_queue_depth", "Jobs submitted but not yet executing.", m.QueueDepth.Load())
	gauge("tia_jobs_running", "Jobs executing right now.", m.Running.Load())
	counter("tia_cycles_simulated_total", "Fabric cycles simulated across all jobs.", m.CyclesSimulated.Load())
	counter("tia_faults_injected_total", "Discrete fault events injected by campaigns.", m.FaultsInjected.Load())
	counter("tia_fault_runs_masked_total", "Campaign runs byte-identical to the golden run.", m.FaultRunsMasked.Load())
	counter("tia_fault_runs_detected_total", "Campaign runs that failed loudly or structurally.", m.FaultRunsDetected.Load())
	counter("tia_fault_runs_silent_total", "Campaign runs with silent data corruption.", m.FaultRunsSilent.Load())
	counter("tia_fault_runs_hang_total", "Campaign runs that deadlocked or timed out.", m.FaultRunsHang.Load())
	fmt.Fprintf(w, "# HELP tia_sim_cycles_per_second Aggregate simulation throughput since start.\n"+
		"# TYPE tia_sim_cycles_per_second gauge\ntia_sim_cycles_per_second %g\n", m.CyclesPerSecond())
}
