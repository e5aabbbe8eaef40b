package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"tia/internal/workloads"
)

// TestWorkerPoolDeterminism pins GOMAXPROCS above one so the bounded
// worker pool actually fans out, then checks that suite and sweep results
// are identical to a serial run: simulations are single-threaded and
// deterministic, so only the fan-out schedule may differ, never results.
func TestWorkerPoolDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	prevWorkers := MaxWorkers
	defer func() { MaxWorkers = prevWorkers }()

	p := workloads.Params{Seed: 5, Size: 10}
	spec, err := workloads.ByName("mergesort")
	if err != nil {
		t.Fatal(err)
	}
	depths := []int{1, 2, 4, 8}
	lats := []int{0, 1, 3}

	MaxWorkers = 1
	serialRows, err := RunSuiteContext(context.Background(), p)
	if err != nil {
		t.Fatalf("serial RunSuiteContext: %v", err)
	}
	serialDepth, err := DepthSweepContext(context.Background(), spec, p, depths)
	if err != nil {
		t.Fatalf("serial DepthSweepContext: %v", err)
	}
	serialLat, err := LatencySweepContext(context.Background(), spec, p, lats)
	if err != nil {
		t.Fatalf("serial LatencySweepContext: %v", err)
	}
	serialMem, err := MemLatencySweepContext(context.Background(), spec, p, lats)
	if err != nil {
		t.Fatalf("serial MemLatencySweepContext: %v", err)
	}
	serialReqs, err := SuiteRequirements(p)
	if err != nil {
		t.Fatalf("serial SuiteRequirements: %v", err)
	}

	MaxWorkers = 4
	parRows, err := RunSuiteContext(context.Background(), p)
	if err != nil {
		t.Fatalf("parallel RunSuiteContext: %v", err)
	}
	parDepth, err := DepthSweepContext(context.Background(), spec, p, depths)
	if err != nil {
		t.Fatalf("parallel DepthSweepContext: %v", err)
	}
	parLat, err := LatencySweepContext(context.Background(), spec, p, lats)
	if err != nil {
		t.Fatalf("parallel LatencySweepContext: %v", err)
	}
	parMem, err := MemLatencySweepContext(context.Background(), spec, p, lats)
	if err != nil {
		t.Fatalf("parallel MemLatencySweepContext: %v", err)
	}
	parReqs, err := SuiteRequirements(p)
	if err != nil {
		t.Fatalf("parallel SuiteRequirements: %v", err)
	}

	if !reflect.DeepEqual(serialRows, parRows) {
		t.Error("RunSuiteContext rows differ between serial and parallel execution")
	}
	if !reflect.DeepEqual(serialDepth, parDepth) {
		t.Errorf("DepthSweepContext differs: serial %+v parallel %+v", serialDepth, parDepth)
	}
	if !reflect.DeepEqual(serialLat, parLat) {
		t.Errorf("LatencySweepContext differs: serial %+v parallel %+v", serialLat, parLat)
	}
	if !reflect.DeepEqual(serialMem, parMem) {
		t.Errorf("MemLatencySweepContext differs: serial %+v parallel %+v", serialMem, parMem)
	}
	if !reflect.DeepEqual(serialReqs, parReqs) {
		t.Errorf("SuiteRequirements differs: serial %+v parallel %+v", serialReqs, parReqs)
	}
}

// TestForEachCoversAllIndices checks the pool helper itself: every index
// runs exactly once for worker counts below, at, and above the item count.
func TestForEachCoversAllIndices(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	prevWorkers := MaxWorkers
	defer func() { MaxWorkers = prevWorkers }()
	for _, w := range []int{1, 2, 7, 16} {
		MaxWorkers = w
		const n = 7
		var hits [n]int32
		done := make(chan int, n)
		forEachCtx(context.Background(), n, func(i int) { done <- i })
		close(done)
		for i := range done {
			hits[i]++
		}
		for i, h := range hits {
			if h != 1 {
				t.Errorf("workers=%d: index %d ran %d times", w, i, h)
			}
		}
	}
}
