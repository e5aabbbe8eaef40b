GO ?= go

.PHONY: all build test race vet fmt bench-smoke perfbench-smoke alloc-gate fault-smoke batch-smoke snapshot-smoke fleet-smoke chaos-smoke chaos-soak fuzz-smoke check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole suite under the race detector, without -short: every
# differential (interpreted vs compiled dispatch, dense vs event,
# batched vs serial, snapshot/restore), the fault-campaign pins, the
# fleet e2e and the chaos soak all run here. The *-smoke targets below
# re-run one slice of it as a focused entry point; `make check` does not
# repeat them.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# CI's gofmt gate: fail on any Go file gofmt would rewrite. git lists the
# files, tracked and new alike, so the gitignored .bench_build/ (which
# perfbench-smoke fills with Go module sources) is skipped.
fmt:
	@out=$$(gofmt -l $$(git ls-files --cached --others --exclude-standard '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

# One iteration of every benchmark: catches bit-rot in bench harnesses
# without paying for a real measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# perfbench is a Go module of its own, so `go test ./...` never builds
# it: vet and test the module, then run each workload of BENCHMARK.json
# for one second and fail unless its final JSON line reports every
# operation correct and none failed. An API break between the simulator
# and the benchmark fails here instead of in a benchmark run. The traced
# campaign runs too: it drives internal/batchrun directly, over a batch
# of 8 lanes, which no other run outside the tests does.
perfbench-smoke:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test -count=1 ./...
	@for wt in paper:0 campaign:0 serve:0 campaign:1; do \
		w=$${wt%:*}; tr=$${wt#*:}; \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace $$tr) || exit 1; \
		line=$$(printf '%s\n' "$$out" | tail -n 1); \
		echo "perfbench-smoke $$w trace=$$tr: $$line"; \
		case "$$line" in *'"correct":true'*) ;; *) echo "perfbench-smoke: $$w trace=$$tr is not correct" >&2; exit 1 ;; esac; \
		case "$$line" in *'"failed":0,'*|*'"failed":0}'*) ;; *) echo "perfbench-smoke: $$w trace=$$tr has failed operations" >&2; exit 1 ;; esac; \
	done

# Zero-allocation gates on the per-cycle hot paths (the fabric cycle
# loop — compiled dispatch and the interpreted oracle, under the dense
# and event wake policies — the interpreter's trigger classifier
# classifyRef, channel restore reuse, every kernel's Reset + run in
# both its triggered and PC forms, a reused instance's Reset + Rearm +
# run under stall and freeze windows): any regression to >0 allocs/op
# fails these tests, not just a benchmark number. One-time
# compilation cost is gated separately as a bounded constant, and so is
# the service's result-cache hit path: a repeated workload or netlist
# job must allocate far less than the kernel build or netlist parse it
# skips. Run with -count=1 outside the race detector, whose
# instrumentation allocates.
alloc-gate:
	$(GO) test -run 'AllocationFree|AllocationBounded|ReusesCapacity' -count=1 ./internal/fabric ./internal/pe ./internal/channel ./internal/workloads ./internal/batchrun ./internal/faults ./internal/service

# Seeded fault-campaign smoke: one kernel, fixed seed, exact expected
# masked/detected/sdc/hang taxonomy (see internal/core/resilience_test.go).
fault-smoke:
	$(GO) test -run 'TestFaultCampaignSmoke' -count=1 ./internal/core

# Batched-campaign differential smoke under the race detector: a
# campaign on one reused instance (internal/batchrun) must produce
# reports bit-identical to the fresh-build serial runner for every
# kernel (data + timing plans), build the kernel only twice, and keep
# the batch's own bookkeeping and allocation contracts (see
# internal/core/batch_test.go and internal/batchrun).
batch-smoke:
	$(GO) test -race -count=1 ./internal/batchrun
	$(GO) test -race -run 'TestBatchedCampaign|TestBatchedTiming|TestCampaignBuildsOnce' -count=1 ./internal/core

# Checkpoint/restore differential smoke under the race detector: two
# kernels in every stepping mode (dense and event interpreted, and
# compiled), run-to-completion vs snapshot-then-restore
# must be byte-identical (see internal/workloads/snapshot_differential_test.go).
snapshot-smoke:
	$(GO) test -race -run 'TestSnapshotRestoreDifferential$$/(dmm|mergesort)/' -count=1 ./internal/workloads

# Loopback multi-process fleet e2e: three real tiad worker processes
# plus a coordinator — cache-affinity routing across resubmission,
# SIGKILL mid-job with snapshot migration to a survivor (byte-identical
# completion), and a 64-seed batch fanned out with exactly-once
# streaming delivery (see internal/fleet/e2e_test.go). The routing-key
# properties ride along: what must and must not change a job's affinity
# key (see internal/fleet/affinity_test.go).
fleet-smoke:
	$(GO) test -race -run 'TestFleetE2E|TestAffinityKey' -count=1 ./internal/fleet

# Deterministic chaos soak under the race detector: the seeded fault
# harness's own replay contracts (internal/chaos) plus the fleet-level
# scenarios — partitions, corrupt snapshots, worker crash-restart —
# where every accepted job reaches exactly one terminal state, results
# match a chaos-free reference byte for byte, and a same-seed rerun
# injects the identical fault log. The breaker, stash, journal and
# goroutine-leak gates ride along (see internal/fleet/chaos_soak_test.go).
chaos-smoke:
	$(GO) test -race -count=1 ./internal/chaos
	$(GO) test -race -run 'TestChaosSoak|TestBreaker|TestStaleHeartbeatSkew|TestRegistryConcurrentProbes|TestStash|TestCoordinatorJournal|TestCoordinatorShutdownGoroutines' -count=1 ./internal/fleet

# The fleet chaos soak again, without the race detector and five times
# over. -race slows the simulator enough that the soak's long job
# outlasts the crash-restart scenario's wall-clock restart timer, which
# hides races against that timer: a check that ran before the restart
# fired passed under -race and failed about two runs in three without it.
chaos-soak:
	$(GO) test -run 'TestChaosSoak$$' -count=5 ./internal/fleet

# Generative differential fuzz smoke: 60 seconds of FuzzSimulate —
# seeded random netlists (plus hostile mutations) assembled, validated
# and run on the interpreter under both wake policies and on compiled
# dispatch to bit-identical results, with a mid-run snapshot/restore
# arm (see internal/gen). The committed corpus also replays as an
# ordinary test in `make test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzSimulate' -fuzztime 60s ./internal/gen

# Each test runs once under -race: race covers the fault, batch,
# snapshot, fleet and chaos smokes, so they are not prerequisites here.
# chaos-soak repeats the soak without -race (see its comment).
check: fmt vet race bench-smoke perfbench-smoke alloc-gate chaos-soak fuzz-smoke
