package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"tia/internal/workloads"
)

func TestRunSingleExperiments(t *testing.T) {
	p := workloads.Params{Seed: 1, Size: 16}
	for _, exp := range []string{"e4", "e6"} {
		if err := run(context.Background(), io.Discard, p, exp); err != nil {
			t.Errorf("experiment %s: %v", exp, err)
		}
	}
}

// TestRunRejectsUnknownExperiment: an id outside all/e1..e8 is an error
// naming the valid ids, and nothing is printed.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"e9", "E1", ""} {
		var out bytes.Buffer
		err := run(context.Background(), &out, workloads.Params{Seed: 1, Size: 16}, exp)
		if err == nil || !strings.Contains(err.Error(), "all, e1, e2, e3, e4, e5, e6, e7, e8") {
			t.Errorf("experiment %q: error %v, want one listing the valid ids", exp, err)
		}
		if out.Len() != 0 {
			t.Errorf("experiment %q: printed %q", exp, out.String())
		}
	}
}

func TestRunE1Small(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run")
	}
	if err := run(context.Background(), io.Discard, workloads.Params{Seed: 1, Size: 16}, "e1"); err != nil {
		t.Fatal(err)
	}
}

// TestRunTimeoutPartial: an expired budget must not be an error — the
// suite reports whatever finished, labeled partial.
func TestRunTimeoutPartial(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	if err := run(ctx, io.Discard, workloads.Params{Seed: 1, Size: 16}, "e1"); err != nil {
		t.Fatalf("timed-out run: %v", err)
	}
	if err := emitJSON(ctx, io.Discard, workloads.Params{Seed: 1, Size: 16}); err != nil {
		t.Fatalf("timed-out emitJSON: %v", err)
	}
}

func TestPrintListing(t *testing.T) {
	for _, name := range []string{"mergesort", "smvm"} {
		if err := printListing(io.Discard, workloads.Params{Seed: 1, Size: 8}, name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := printListing(io.Discard, workloads.Params{}, "nope"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// TestFaultCampaignStateResume runs the campaign sweep with a progress
// file, then reruns it: the second pass must serve every kernel from the
// recorded state instead of re-simulating. Tampering with a recorded row
// and seeing the tampered value printed proves the skip.
func TestFaultCampaignStateResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign sweep")
	}
	p := workloads.Params{Seed: 1, Size: 8}
	state := t.TempDir() + "/campaigns.json"
	var first bytes.Buffer
	if err := runFaultCampaigns(context.Background(), &first, p, 3, 4242, state); err != nil {
		t.Fatal(err)
	}
	// The state is written by wal.WriteFile (fsync'd, renamed into place;
	// wal's TestOnlyWriteFileRenames keeps it so), which leaves no
	// temporary behind.
	if _, err := os.Stat(state + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("state write left %s.tmp behind (%v)", state, err)
	}

	var second bytes.Buffer
	if err := runFaultCampaigns(context.Background(), &second, p, 3, 4242, state); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("resumed sweep diverges from original:\n%s\n%s", first.String(), second.String())
	}

	// Mark one kernel's recorded row with a sentinel golden-cycle count:
	// if the resumed run prints it, the kernel was not re-simulated.
	raw, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	var st campaignState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	row := st.Kernels["mergesort"]
	row.GoldenCycles = 987654321
	st.Kernels["mergesort"] = row
	if err := st.save(state); err != nil {
		t.Fatal(err)
	}
	var third bytes.Buffer
	if err := runFaultCampaigns(context.Background(), &third, p, 3, 4242, state); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(third.String(), "987654321") {
		t.Error("tampered state row not served: the kernel was re-simulated instead of resumed")
	}

	// Parameter drift is refused, not silently mixed into stale rows.
	if err := runFaultCampaigns(context.Background(), io.Discard, p, 5, 4242, state); err == nil {
		t.Error("state recorded under different -fault-runs accepted")
	}
}
