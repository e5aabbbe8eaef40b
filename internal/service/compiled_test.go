package service_test

// Netlist jobs share no simulator state: every job parses its own
// fabric and steps its triggered PEs through compiled closures, so
// cosmetic respellings, concurrent submissions of one source and traced
// and untraced runs all give the same result.

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
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

// TestNetlistJobCompilesEachSubmission pins that a netlist job steps
// its PEs compiled (it runs a plan analysis), and that two sources that
// differ only in comments, whitespace and declaration order give equal
// fingerprints and byte-identical results when both really simulate.
func TestNetlistJobCompilesEachSubmission(t *testing.T) {
	svc := newServer(t, testConfig())
	defer svc.Drain()
	ctx := context.Background()

	c0 := compile.Counters()
	first, err := svc.Submit(ctx, &service.JobRequest{Netlist: mergeNetlist, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	c1 := compile.Counters()
	if c1.Misses <= c0.Misses {
		t.Fatalf("netlist job ran no plan analysis (%+v -> %+v)", c0, c1)
	}

	second, err := svc.Submit(ctx, &service.JobRequest{Netlist: mergeNetlistCosmetic, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if c2 := compile.Counters(); c2.Misses <= c1.Misses {
		t.Errorf("cosmetic respelling ran no plan analysis (%+v -> %+v)", c1, c2)
	}
	if first.Fingerprint != second.Fingerprint {
		t.Errorf("fingerprints differ across cosmetic edits:\n%s\n%s", first.Fingerprint, second.Fingerprint)
	}
	if !bytes.Equal(normalizeResult(t, first), normalizeResult(t, second)) {
		t.Errorf("cosmetic respelling diverges:\n%s\n%s", normalizeResult(t, first), normalizeResult(t, second))
	}
}

// TestSameNetlistConcurrentJobs submits one source 8 times at once,
// past the result cache, so the jobs simulate side by side; every
// result must be byte-identical. A traced run followed by an untraced
// one must leave the untraced result without trace events.
func TestSameNetlistConcurrentJobs(t *testing.T) {
	svc := newServer(t, testConfig())
	defer svc.Drain()
	ctx := context.Background()

	const n = 8
	results := make([]*service.JobResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = svc.Submit(ctx, &service.JobRequest{Netlist: mergeNetlist, NoCache: true})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	want := normalizeResult(t, results[0])
	for i, r := range results[1:] {
		if got := normalizeResult(t, r); !bytes.Equal(got, want) {
			t.Errorf("concurrent submission %d diverges:\n%s\n%s", i+1, got, want)
		}
	}

	traced, err := svc.Submit(ctx, &service.JobRequest{Netlist: mergeNetlist, NoCache: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Trace) == 0 {
		t.Fatal("traced submission returned no trace")
	}
	plain, err := svc.Submit(ctx, &service.JobRequest{Netlist: mergeNetlist, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := normalizeResult(t, plain); !bytes.Equal(got, want) {
		t.Errorf("untraced run after a traced one diverges:\n%s\n%s", got, want)
	}
}
