package service_test

// The compiled-plan cache contract: every job steps its triggered PEs
// through compiled closures, and compiled plans are content-addressed by
// assembled-form fingerprint, so cosmetically different netlist sources
// that assemble identically share one plan.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"tia/internal/compile"
	"tia/internal/service"
)

func normalizeResult(t *testing.T, r *service.JobResult) []byte {
	t.Helper()
	c := *r
	c.ID = ""
	c.Cached = false
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

// TestCompiledPlanSharedAcrossCosmeticSources pins the compiled-plan
// cache to the assembled form: two netlist sources that differ only in
// comments, whitespace and declaration order produce equal fingerprints,
// so the second job reuses the first job's plan — cache hits grow,
// misses do not — and both results are byte-identical.
func TestCompiledPlanSharedAcrossCosmeticSources(t *testing.T) {
	svc := newServer(t, testConfig())
	defer svc.Drain()
	ctx := context.Background()

	// The baseline precedes the netlist's first submission: that job
	// compiles its PEs, and the cached netlist keeps their closures, so
	// a later job on the same source does no plan lookup.
	c0 := compile.Counters()
	first, err := svc.Submit(ctx, &service.JobRequest{Netlist: mergeNetlist, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	c1 := compile.Counters()
	// The plan may already be cached from an earlier test in this
	// process (the cache is content-addressed and process-wide — that is
	// the point), so assert engagement (a lookup happened), not a miss.
	if c1.Hits+c1.Misses == c0.Hits+c0.Misses {
		t.Fatalf("first netlist job never consulted the plan cache (%+v -> %+v)", c0, c1)
	}

	// The cosmetic respelling has a different source hash (separate
	// cached program, separate PE objects) but an equal assembled-form
	// fingerprint — NoCache forces it past the result cache so it really
	// simulates, and the plan cache must serve it without a new compile.
	second, err := svc.Submit(ctx, &service.JobRequest{Netlist: mergeNetlistCosmetic, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	c2 := compile.Counters()
	if c2.Misses != c1.Misses {
		t.Errorf("cosmetic respelling compiled %d new plans, want 0 (shared by fingerprint)", c2.Misses-c1.Misses)
	}
	if c2.Hits == c1.Hits {
		t.Error("cosmetic respelling did not hit the compiled-plan cache")
	}

	if first.Fingerprint != second.Fingerprint {
		t.Errorf("fingerprints differ across cosmetic edits:\n%s\n%s", first.Fingerprint, second.Fingerprint)
	}
	if !bytes.Equal(normalizeResult(t, first), normalizeResult(t, second)) {
		t.Errorf("cosmetic respelling diverges:\n%s\n%s", normalizeResult(t, first), normalizeResult(t, second))
	}
}
