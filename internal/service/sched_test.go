package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubScheduler builds a scheduler around a stub run function.
func stubScheduler(workers, queueCap int, run func(context.Context, string, *JobRequest) (*JobResult, error)) (*scheduler, *Metrics) {
	m := &Metrics{}
	return newScheduler(workers, queueCap, m, run), m
}

func wantKind(t *testing.T, err error, kind ErrorKind) {
	t.Helper()
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("got %v, want *JobError of kind %s", err, kind)
	}
	if je.Kind != kind {
		t.Fatalf("got error kind %s (%s), want %s", je.Kind, je.Message, kind)
	}
}

// TestSchedulerBoundsConcurrency floods the pool with more submissions
// than worker slots and checks that concurrency never exceeds the bound
// while every job still completes.
func TestSchedulerBoundsConcurrency(t *testing.T) {
	const workers, jobs = 3, 12
	var cur, peak atomic.Int64
	run := func(context.Context, string, *JobRequest) (*JobResult, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		cur.Add(-1)
		return &JobResult{ID: "ok"}, nil
	}
	s, m := stubScheduler(workers, jobs, run)
	defer s.close()

	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.submit(context.Background(), "job-t", &JobRequest{})
			if err == nil && res.ID != "ok" {
				err = errors.New("wrong result")
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds %d workers", p, workers)
	}
	if got := m.JobsStarted.Load(); got != jobs {
		t.Errorf("JobsStarted = %d, want %d", got, jobs)
	}
	if got := m.JobsCompleted.Load(); got != jobs {
		t.Errorf("JobsCompleted = %d, want %d", got, jobs)
	}
	if got := m.QueueDepth.Load(); got != 0 {
		t.Errorf("QueueDepth = %d after drain, want 0", got)
	}
}

// TestSchedulerQueuedCancellation cancels a job while it waits behind a
// busy worker; it must be reported cancelled without ever running.
func TestSchedulerQueuedCancellation(t *testing.T) {
	release := make(chan struct{})
	var ran atomic.Int64
	run := func(context.Context, string, *JobRequest) (*JobResult, error) {
		ran.Add(1)
		<-release
		return &JobResult{}, nil
	}
	s, m := stubScheduler(1, 4, run)
	defer s.close()

	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		if _, err := s.submit(context.Background(), "job-t", &JobRequest{}); err != nil {
			t.Errorf("first submit: %v", err)
		}
	}()
	for ran.Load() == 0 { // wait until the worker is occupied
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	secondDone := make(chan error, 1)
	go func() {
		_, err := s.submit(ctx, "job-t", &JobRequest{})
		secondDone <- err
	}()
	time.Sleep(5 * time.Millisecond) // let it enqueue behind the busy worker
	cancel()
	close(release)
	<-firstDone

	wantKind(t, <-secondDone, ErrCancelled)
	if got := ran.Load(); got != 1 {
		t.Errorf("run invoked %d times, want 1 (cancelled job must not run)", got)
	}
	if got := m.JobsCancelled.Load(); got != 1 {
		t.Errorf("JobsCancelled = %d, want 1", got)
	}
}

// TestSchedulerFullQueueRejectsBusy fills the queue and checks that the
// next submission is shed immediately with a typed busy rejection
// carrying a Retry-After hint — admission control, not unbounded
// queueing — and that capacity freeing up re-admits work.
func TestSchedulerFullQueueRejectsBusy(t *testing.T) {
	release := make(chan struct{})
	var executing atomic.Int64
	run := func(context.Context, string, *JobRequest) (*JobResult, error) {
		executing.Add(1)
		<-release
		return &JobResult{}, nil
	}
	s, m := stubScheduler(1, 1, run)
	releaseJobs := sync.OnceFunc(func() { close(release) })
	defer s.close()
	defer releaseJobs() // unblock workers before close() waits on them

	var wg sync.WaitGroup
	deadline := time.Now().Add(2 * time.Second)
	// Full means: the worker occupied by the first job, the second job
	// sitting in the single queue slot. The second is submitted only once
	// the worker has taken the first; submitted together, both can reach
	// the one-slot queue before the worker dequeues, and one is shed.
	for _, full := range []func() bool{
		func() bool { return executing.Load() >= 1 },
		func() bool { return m.QueueDepth.Load() >= 1 },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.submit(context.Background(), "job-t", &JobRequest{}); err != nil {
				t.Errorf("background submit: %v", err)
			}
		}()
		for !full() {
			if time.Now().After(deadline) {
				t.Fatal("queue never filled")
			}
			time.Sleep(time.Millisecond)
		}
	}

	_, err := s.submit(context.Background(), "job-t", &JobRequest{})
	wantKind(t, err, ErrBusy)
	var je *JobError
	if errors.As(err, &je) && je.RetryAfter <= 0 {
		t.Errorf("busy rejection has no Retry-After hint: %+v", je)
	}
	if got := m.JobsRejected.Load(); got != 1 {
		t.Errorf("JobsRejected = %d, want 1", got)
	}

	releaseJobs() // free the running and queued jobs
	wg.Wait()

	// With the queue drained, submissions are admitted again.
	if _, err := s.submit(context.Background(), "job-t", &JobRequest{}); err != nil {
		t.Errorf("post-drain submit rejected: %v", err)
	}
}

// TestSchedulerDrain checks that close() lets queued and running jobs
// finish and that later submissions are refused.
func TestSchedulerDrain(t *testing.T) {
	var completed atomic.Int64
	run := func(context.Context, string, *JobRequest) (*JobResult, error) {
		time.Sleep(2 * time.Millisecond)
		completed.Add(1)
		return &JobResult{}, nil
	}
	s, m := stubScheduler(2, 8, run)

	const jobs = 6
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.submit(context.Background(), "job-t", &JobRequest{}); err != nil {
				t.Errorf("submit during drain: %v", err)
			}
		}()
	}
	time.Sleep(3 * time.Millisecond) // let submissions land, some mid-flight
	s.close()
	wg.Wait()

	if got := completed.Load(); got != jobs {
		t.Errorf("completed %d jobs across drain, want %d", got, jobs)
	}
	if got := m.JobsCompleted.Load(); got != jobs {
		t.Errorf("JobsCompleted = %d, want %d", got, jobs)
	}
	_, err := s.submit(context.Background(), "job-t", &JobRequest{})
	wantKind(t, err, ErrDraining)

	s.close() // idempotent
}
