package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// block returns a job that parks until released (or ctx done), and a
// release func.
func block() (Func, func()) {
	ch := make(chan struct{})
	var once sync.Once
	fn := func(ctx context.Context, _ func(any)) error {
		select {
		case <-ch:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return fn, func() { once.Do(func() { close(ch) }) }
}

func mustSubmit(t *testing.T, p *Pool, fn Func, opts ...SubmitOption) *Task {
	t.Helper()
	task, err := p.Submit(fn, opts...)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return task
}

func waitState(t *testing.T, task *Task, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for task.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("task stuck in %v, want %v", task.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunsJobs(t *testing.T) {
	p := New(Options{Workers: 2, QueueCap: 8})
	defer p.Shutdown(context.Background())
	var mu sync.Mutex
	got := map[int]bool{}
	var tasks []*Task
	for i := 0; i < 6; i++ {
		i := i
		tasks = append(tasks, mustSubmit(t, p, func(ctx context.Context, _ func(any)) error {
			mu.Lock()
			got[i] = true
			mu.Unlock()
			return nil
		}))
	}
	for _, task := range tasks {
		if err := task.Wait(context.Background()); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if task.State() != StateDone {
			t.Fatalf("state = %v, want done", task.State())
		}
	}
	if len(got) != 6 {
		t.Fatalf("ran %d jobs, want 6", len(got))
	}
}

func TestQueueFullRejection(t *testing.T) {
	p := New(Options{Workers: 1, QueueCap: 1})
	defer p.Shutdown(context.Background())
	fn, release := block()
	defer release()
	running := mustSubmit(t, p, fn)
	waitState(t, running, StateRunning)

	// Worker is busy; exactly QueueCap jobs may wait.
	queued := mustSubmit(t, p, fn)
	if _, err := p.Submit(fn); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit on full queue: err = %v, want ErrQueueFull", err)
	}
	if s := p.Stats(); s.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", s.Rejected)
	}

	// SubmitWait blocks until space opens.
	done := make(chan *Task, 1)
	go func() {
		task, err := p.SubmitWait(context.Background(), fn)
		if err != nil {
			t.Errorf("SubmitWait: %v", err)
		}
		done <- task
	}()
	select {
	case <-done:
		t.Fatal("SubmitWait returned while queue was full")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	waited := <-done
	for _, task := range []*Task{running, queued, waited} {
		if err := task.Wait(context.Background()); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
}

// TestSubmitWaitIsNotRejected: a SubmitWait that waits behind a full
// queue and then gets a slot counts no rejection, in the pool or its
// class.
func TestSubmitWaitIsNotRejected(t *testing.T) {
	p := New(Options{Workers: 1, QueueCap: 1})
	defer p.Shutdown(context.Background())
	fn, release := block()
	defer release()
	running := mustSubmit(t, p, fn)
	waitState(t, running, StateRunning)
	mustSubmit(t, p, fn)
	start := time.Now()
	go func() {
		time.Sleep(20 * time.Millisecond)
		release()
	}()
	task, err := p.SubmitWait(context.Background(), fn)
	if err != nil {
		t.Fatalf("SubmitWait: %v", err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("SubmitWait returned after %v, before the queue had room", waited)
	}
	if err := task.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	s := p.Stats()
	if s.Rejected != 0 || s.Classes[ClassStandard.String()].Rejected != 0 {
		t.Errorf("Rejected = %d (standard class %d), want 0", s.Rejected, s.Classes[ClassStandard.String()].Rejected)
	}
}

func TestSubmitWaitHonorsContext(t *testing.T) {
	p := New(Options{Workers: 1, QueueCap: 1})
	defer p.Shutdown(context.Background())
	fn, release := block()
	defer release()
	running := mustSubmit(t, p, fn)
	waitState(t, running, StateRunning)
	mustSubmit(t, p, fn)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.SubmitWait(ctx, fn); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SubmitWait err = %v, want deadline exceeded", err)
	}
}

func TestCancelMidRun(t *testing.T) {
	p := New(Options{Workers: 1, QueueCap: 4})
	defer p.Shutdown(context.Background())
	started := make(chan struct{})
	task := mustSubmit(t, p, func(ctx context.Context, _ func(any)) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	})
	<-started
	task.Cancel()
	if err := task.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", err)
	}
	if task.State() != StateCanceled {
		t.Fatalf("state = %v, want canceled", task.State())
	}
	if s := p.Stats(); s.Canceled != 1 {
		t.Fatalf("Canceled = %d, want 1", s.Canceled)
	}
}

func TestCancelWhileQueuedNeverRuns(t *testing.T) {
	p := New(Options{Workers: 1, QueueCap: 4})
	defer p.Shutdown(context.Background())
	fn, release := block()
	running := mustSubmit(t, p, fn)
	waitState(t, running, StateRunning)

	ran := false
	queued := mustSubmit(t, p, func(ctx context.Context, _ func(any)) error {
		ran = true
		return nil
	})
	queued.Cancel()
	release()
	if err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatal("canceled-while-queued job still ran")
	}
}

func TestPanicRecovery(t *testing.T) {
	p := New(Options{Workers: 1, QueueCap: 4})
	defer p.Shutdown(context.Background())
	task := mustSubmit(t, p, func(ctx context.Context, _ func(any)) error {
		panic("boom")
	})
	err := task.Wait(context.Background())
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "boom" {
		t.Fatalf("Wait err = %v, want *PanicError{boom}", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
	if task.State() != StateFailed {
		t.Fatalf("state = %v, want failed", task.State())
	}
	// The worker survived: the pool still runs jobs.
	next := mustSubmit(t, p, func(ctx context.Context, _ func(any)) error { return nil })
	if err := next.Wait(context.Background()); err != nil {
		t.Fatalf("job after panic: %v", err)
	}
	if s := p.Stats(); s.Failed != 1 || s.Done != 1 {
		t.Fatalf("stats = %+v, want Failed=1 Done=1", s)
	}
}

func TestProgressDelivery(t *testing.T) {
	p := New(Options{Workers: 1, QueueCap: 4})
	defer p.Shutdown(context.Background())
	var got []int
	task := mustSubmit(t, p, func(ctx context.Context, progress func(any)) error {
		for i := 0; i < 5; i++ {
			progress(i)
		}
		return nil
	}, WithProgress(func(v any) { got = append(got, v.(int)) }), WithLabel("prog"))
	if err := task.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if task.Label() != "prog" {
		t.Fatalf("label = %q", task.Label())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("progress out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("got %d progress values, want 5", len(got))
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	p := New(Options{Workers: 2, QueueCap: 16})
	var ran int64
	var mu sync.Mutex
	var tasks []*Task
	for i := 0; i < 10; i++ {
		tasks = append(tasks, mustSubmit(t, p, func(ctx context.Context, _ func(any)) error {
			time.Sleep(2 * time.Millisecond)
			mu.Lock()
			ran++
			mu.Unlock()
			return nil
		}))
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran != 10 {
		t.Fatalf("drained %d jobs, want 10", ran)
	}
	for _, task := range tasks {
		if task.State() != StateDone {
			t.Fatalf("task state after drain = %v", task.State())
		}
	}
	if _, err := p.Submit(func(ctx context.Context, _ func(any)) error { return nil }); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Submit after shutdown: err = %v, want ErrShutdown", err)
	}
}

func TestShutdownDeadlineCancels(t *testing.T) {
	p := New(Options{Workers: 1, QueueCap: 8})
	fn, release := block()
	defer release()
	running := mustSubmit(t, p, fn)
	waitState(t, running, StateRunning)
	queued := mustSubmit(t, p, fn)

	// The running job only exits on ctx-done, so Shutdown must hit the
	// deadline, cancel the stragglers, and still return.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	// The queued task is drained by cancelAll; the running one is
	// canceled through its own handle (the daemon does the same).
	go func() {
		<-ctx.Done()
		running.Cancel()
	}()
	if err := p.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want deadline exceeded", err)
	}
	if err := running.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("running task err = %v, want canceled", err)
	}
	if err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued task err = %v, want canceled", err)
	}
}

// TestShutdownDeadlineCancelsClaimedTask: a task a worker claims after
// Shutdown began, and whose function exits only when canceled, is
// canceled at the deadline. A worker claims the next queued task as soon
// as the running one returns, which can be just before the deadline's
// cancelAll drains the queue; the pool then canceled only queued tasks,
// and Shutdown waited forever.
func TestShutdownDeadlineCancelsClaimedTask(t *testing.T) {
	p := New(Options{Workers: 1, QueueCap: 8})
	fn, release := block()
	defer release()
	first := mustSubmit(t, p, fn)
	waitState(t, first, StateRunning)
	second := mustSubmit(t, p, func(ctx context.Context, _ func(any)) error {
		<-ctx.Done()
		return ctx.Err()
	})

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- p.Shutdown(ctx) }()
	for !isClosed(p) {
		time.Sleep(time.Millisecond)
	}
	release()
	waitState(t, second, StateRunning)
	select {
	case err := <-shut:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Shutdown err = %v, want deadline exceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return 5 s after its 200 ms deadline: the claimed task was never canceled")
	}
	if err := first.Wait(context.Background()); err != nil {
		t.Errorf("released task err = %v, want nil", err)
	}
	if err := second.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Errorf("claimed task err = %v, want canceled", err)
	}
}

// isClosed reports whether Shutdown has closed p to new work.
func isClosed(p *Pool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// TestConcurrentSubmitCancel races submitters against cancelers; run
// with -race. Every task must reach a terminal state.
func TestConcurrentSubmitCancel(t *testing.T) {
	p := New(Options{Workers: 4, QueueCap: 128})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var tasks []*Task
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				task, err := p.SubmitWait(context.Background(), func(ctx context.Context, progress func(any)) error {
					progress(g)
					select {
					case <-ctx.Done():
						return ctx.Err()
					case <-time.After(time.Duration(i%3) * time.Millisecond):
						return nil
					}
				}, WithProgress(func(any) {}))
				if err != nil {
					t.Errorf("SubmitWait: %v", err)
					return
				}
				if i%2 == 0 {
					go task.Cancel()
				}
				mu.Lock()
				tasks = append(tasks, task)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	for _, task := range tasks {
		task.Wait(context.Background())
		if s := task.State(); s < StateDone {
			t.Fatalf("task not terminal: %v", s)
		}
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	s := p.Stats()
	if s.Done+s.Failed+s.Canceled != s.Submitted {
		t.Fatalf("stats don't balance: %+v", s)
	}
	if s.Failed != 0 {
		t.Fatalf("unexpected failures: %+v", s)
	}
}

func TestStatsLatencies(t *testing.T) {
	p := New(Options{Workers: 1, QueueCap: 8})
	defer p.Shutdown(context.Background())
	for i := 0; i < 3; i++ {
		task := mustSubmit(t, p, func(ctx context.Context, _ func(any)) error {
			time.Sleep(time.Millisecond)
			return nil
		})
		if err := task.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	if s.AvgRunLatency < 500*time.Microsecond {
		t.Fatalf("AvgRunLatency = %v, want >= ~1ms", s.AvgRunLatency)
	}
	if s.AvgQueueLatency < 0 {
		t.Fatalf("negative queue latency: %v", s.AvgQueueLatency)
	}
	if got := fmt.Sprint(StateQueued, StateRunning, StateDone, StateFailed, StateCanceled); got != "queued running done failed canceled" {
		t.Fatalf("state names: %q", got)
	}
}
