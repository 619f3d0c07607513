// Package sched provides the job scheduler under cmd/avfd and the
// parallel experiment grid: a bounded worker pool with per-SLO-class
// priority queues, per-job cancellation, panic containment, progress
// reporting, and atomic counters.
//
// Fault-injection campaigns are embarrassingly parallel across
// independent runs — every benchmark × structure cell of the paper's
// evaluation is its own simulation — so the pool is deliberately
// generic: a Job is any func(ctx, progress) error, and callers decide
// what "progress" means (the AVF runner reports one core.Estimate per
// completed estimation interval).
//
// Dispatch is strict priority across the four SLO classes (see
// class.go): within a class, FIFO. The queue capacity is shared across
// classes; when it saturates, an arriving job may evict the
// newest-queued job of a strictly lower *evictable* class
// (sheddable/batch), which goes terminal in StateShed — so overload
// sheds background work first and critical traffic is never evicted.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"avfsim/internal/obs"
)

// Func is the work a job performs. It must return promptly once ctx is
// done (cancellation, pool shutdown). progress is never nil; jobs may
// call it with per-interval updates, which are delivered synchronously
// to the WithProgress callback.
type Func func(ctx context.Context, progress func(v any)) error

// Sentinel errors.
var (
	// ErrQueueFull is returned by Submit when the FIFO queue is at
	// capacity (backpressure: the caller decides whether to retry,
	// shed, or block via SubmitWait).
	ErrQueueFull = errors.New("sched: queue full")
	// ErrShutdown is returned by Submit/SubmitWait after Shutdown.
	ErrShutdown = errors.New("sched: pool shut down")
)

// PanicError wraps a panic recovered from a job so the job fails
// instead of the process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: job panicked: %v", e.Value)
}

// Options configures a Pool.
type Options struct {
	// Workers is the number of concurrent workers; default GOMAXPROCS.
	Workers int
	// QueueCap is the total queue capacity shared across SLO classes
	// (jobs waiting beyond the ones running); default 64. Beyond it,
	// Submit either evicts a queued lower-priority sheddable/batch job
	// or rejects with ErrQueueFull.
	QueueCap int
	// Metrics, when non-nil, registers the pool's observability in the
	// given registry: queue depth/capacity and running/workers gauges,
	// avfd_jobs_total{state} counters, and queue-wait / run-time
	// histograms. Registration happens in New, before any job runs.
	Metrics *obs.Registry
}

func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
}

// State is a task's lifecycle stage.
type State int32

const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCanceled
	// StateShed marks a queued job evicted under saturation to admit
	// higher-priority work (terminal; the job never ran). Its Err is
	// ErrShed.
	StateShed
)

var stateNames = [...]string{"queued", "running", "done", "failed", "canceled", "shed"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Task is a submitted job's handle.
type Task struct {
	fn       Func
	label    string
	class    Class
	exemplar string // trace ID attached to latency observations
	onProg   func(v any)
	onStart  func()

	ctx    context.Context
	cancel context.CancelFunc

	state atomic.Int32

	submitted time.Time
	started   time.Time // valid once running
	finished  time.Time // valid once done

	err  error
	done chan struct{}
}

// SubmitOption customizes a Task at submission.
type SubmitOption func(*Task)

// WithProgress registers a callback invoked synchronously (from the
// worker goroutine) for every progress value the job reports.
func WithProgress(cb func(v any)) SubmitOption {
	return func(t *Task) { t.onProg = cb }
}

// WithLabel attaches a display label to the task.
func WithLabel(label string) SubmitOption {
	return func(t *Task) { t.label = label }
}

// WithOnStart registers a callback invoked from the worker goroutine
// immediately before the job function runs (job-lifecycle logging).
func WithOnStart(cb func()) SubmitOption {
	return func(t *Task) { t.onStart = cb }
}

// WithExemplar attaches a trace ID to the task's queue/run latency
// histogram observations, so a latency-bucket exemplar in /v1/stats
// names the trace of the job that landed there.
func WithExemplar(traceID string) SubmitOption {
	return func(t *Task) { t.exemplar = traceID }
}

// Label returns the task's label ("" if none).
func (t *Task) Label() string { return t.label }

// State returns the task's current lifecycle stage.
func (t *Task) State() State { return State(t.state.Load()) }

// Done is closed when the task reaches a terminal state.
func (t *Task) Done() <-chan struct{} { return t.done }

// Err returns the job's error (nil while not terminal or on success;
// the ctx error on cancellation; a *PanicError on panic).
func (t *Task) Err() error {
	select {
	case <-t.done:
		return t.err
	default:
		return nil
	}
}

// Cancel asks the job to stop. A queued task is marked canceled without
// running; a running task's ctx is canceled and the job is expected to
// return promptly. Safe to call multiple times and concurrently.
func (t *Task) Cancel() { t.cancel() }

// Timing returns the task's submit, start, and finish times (zero
// values for phases that have not happened). Started and finished are
// safe to read only after Done is closed.
func (t *Task) Timing() (submitted, started, finished time.Time) {
	return t.submitted, t.started, t.finished
}

// Wait blocks until the task is terminal or ctx is done. It returns the
// task's error in the former case, ctx.Err() in the latter.
func (t *Task) Wait(ctx context.Context) error {
	select {
	case <-t.done:
		return t.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stats is a snapshot of the pool's counters.
type Stats struct {
	// Workers and QueueCap echo the configuration.
	Workers  int `json:"workers"`
	QueueCap int `json:"queue_cap"`
	// Queued and Running are current occupancy.
	Queued  int64 `json:"queued"`
	Running int64 `json:"running"`
	// Submitted, Done, Failed, Canceled, Shed, Rejected are cumulative.
	Submitted int64 `json:"submitted"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Shed      int64 `json:"shed"`
	Rejected  int64 `json:"rejected"`
	// Bypassed counts jobs admitted and completed without consuming a
	// queue slot or worker: result-cache hits and single-flight
	// followers. They are deliberately not part of Submitted — the
	// scheduler never saw them — so Submitted still reconciles with
	// queue/worker accounting.
	Bypassed int64 `json:"bypassed"`
	// Classes breaks the counters down by SLO tier, keyed by class name.
	Classes map[string]ClassStats `json:"classes,omitempty"`
	// AvgQueueLatency / AvgRunLatency are means over completed waits
	// and runs.
	AvgQueueLatency time.Duration `json:"avg_queue_latency_ns"`
	AvgRunLatency   time.Duration `json:"avg_run_latency_ns"`
	// QueueLatency / RunLatency are approximate quantile summaries
	// (seconds) from the pool's latency histograms; nil without
	// Options.Metrics, where only the means above are tracked.
	QueueLatency *obs.Quantiles `json:"queue_latency_seconds,omitempty"`
	RunLatency   *obs.Quantiles `json:"run_latency_seconds,omitempty"`
}

// classCounters are one SLO tier's cumulative counters.
type classCounters struct {
	queued, submitted, done, failed atomic.Int64
	canceled, shed, rejected        atomic.Int64
	bypassed                        atomic.Int64
}

// Pool is a bounded worker pool with strict-priority per-class FIFO
// queues.
type Pool struct {
	opts Options
	wg   sync.WaitGroup

	// mu guards the queues and closed; cond is signaled on every push
	// and on close so idle workers wake, and space whenever a worker
	// takes a task from the queues and on close, so SubmitWait callers
	// waiting for a slot wake.
	mu      sync.Mutex
	cond    *sync.Cond
	space   *sync.Cond
	queues  [NumClasses][]*Task
	queuedN int
	closed  bool

	// ctx is every task context's parent; Shutdown's deadline cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	// Counters (atomics; the stats block of the issue).
	queued, running                  atomic.Int64
	submitted, nDone, nFail, nCancel atomic.Int64
	nShed, rejected, bypassed        atomic.Int64
	queueLatencyNS, runLatencyNS     atomic.Int64
	queueLatencyN, runLatencyN       atomic.Int64
	classes                          [NumClasses]classCounters

	// queueSeconds/runSeconds are the per-job latency histograms (nil
	// without Options.Metrics).
	queueSeconds, runSeconds *obs.Histogram
}

// registerMetrics publishes the pool's counters in r. The gauges and
// counters sample the pool's existing atomics at scrape time — no
// double accounting in the submit/finish paths — while the latency
// histograms are explicit cells observed as jobs move through.
func (p *Pool) registerMetrics(r *obs.Registry) {
	r.GaugeFunc("avfd_sched_queue_depth",
		"Jobs waiting in the scheduler's FIFO queue.",
		func() float64 { return float64(p.queued.Load()) })
	r.GaugeFunc("avfd_sched_queue_capacity",
		"Capacity of the scheduler's FIFO queue (queue_depth/queue_capacity is saturation).",
		func() float64 { return float64(p.opts.QueueCap) })
	r.GaugeFunc("avfd_sched_running",
		"Jobs currently executing on pool workers.",
		func() float64 { return float64(p.running.Load()) })
	r.GaugeFunc("avfd_sched_workers",
		"Configured worker count.",
		func() float64 { return float64(p.opts.Workers) })
	jobs := r.CounterVec("avfd_jobs_total",
		"Cumulative jobs by lifecycle state (submitted, done, failed, canceled, shed, rejected).",
		"state")
	for state, src := range map[string]*atomic.Int64{
		"submitted": &p.submitted,
		"done":      &p.nDone,
		"failed":    &p.nFail,
		"canceled":  &p.nCancel,
		"shed":      &p.nShed,
		"rejected":  &p.rejected,
		"bypassed":  &p.bypassed,
	} {
		src := src
		jobs.WithFunc(func() int64 { return src.Load() }, state)
	}
	classDepth := r.GaugeVec("avfd_sched_class_queue_depth",
		"Jobs waiting in the scheduler queue, by SLO class.",
		"class")
	classJobs := r.CounterVec("avfd_sched_class_jobs_total",
		"Cumulative jobs by SLO class and lifecycle state.",
		"class", "state")
	for c := 0; c < NumClasses; c++ {
		cc := &p.classes[c]
		name := Class(c).String()
		classDepth.WithFunc(func() float64 { return float64(cc.queued.Load()) }, name)
		for state, src := range map[string]*atomic.Int64{
			"submitted": &cc.submitted,
			"done":      &cc.done,
			"failed":    &cc.failed,
			"canceled":  &cc.canceled,
			"shed":      &cc.shed,
			"rejected":  &cc.rejected,
			"bypassed":  &cc.bypassed,
		} {
			src := src
			classJobs.WithFunc(func() int64 { return src.Load() }, name, state)
		}
	}
	phases := r.HistogramVec("avfd_sched_job_seconds",
		"Job latency by phase: queue (submit to start) and run (start to finish).",
		obs.ExpBuckets(0.001, 4, 12), "phase")
	p.queueSeconds = phases.With("queue")
	p.runSeconds = phases.With("run")
}

// New starts a pool. Callers must eventually Shutdown it.
func New(opts Options) *Pool {
	opts.defaults()
	p := &Pool{opts: opts}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	p.cond = sync.NewCond(&p.mu)
	p.space = sync.NewCond(&p.mu)
	if opts.Metrics != nil {
		p.registerMetrics(opts.Metrics)
	}
	p.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the configured worker count.
func (p *Pool) Workers() int { return p.opts.Workers }

// NoteBypass records a job that was admitted and completed without ever
// touching the pool — a result-cache hit or a single-flight follower.
// The census keeps the consumer-scale story honest: "10k submits/sec"
// with 9.9k bypassed is a very different machine than 10k dispatched.
func (p *Pool) NoteBypass(c Class) {
	p.bypassed.Add(1)
	if int(c) < NumClasses {
		p.classes[c].bypassed.Add(1)
	}
}

func (p *Pool) newTask(fn Func, opts []SubmitOption) *Task {
	ctx, cancel := context.WithCancel(p.ctx)
	t := &Task{
		fn:        fn,
		class:     ClassStandard,
		ctx:       ctx,
		cancel:    cancel,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Submit enqueues fn. It returns ErrQueueFull when the queue is at
// capacity (and no lower-priority sheddable/batch job can be evicted to
// make room) and ErrShutdown after Shutdown; otherwise the returned
// Task tracks the job.
func (p *Pool) Submit(fn Func, opts ...SubmitOption) (*Task, error) {
	return p.submit(context.Background(), false, fn, opts)
}

// SubmitWait is Submit that blocks for queue space instead of rejecting
// (the internal-grid path wants backpressure-by-blocking; the HTTP path
// wants reject-when-full). It returns ctx.Err() if ctx is done before a
// slot opens. Waiting is not a rejection: only Submit's ErrQueueFull
// counts in Stats.Rejected.
func (p *Pool) SubmitWait(ctx context.Context, fn Func, opts ...SubmitOption) (*Task, error) {
	// Wake the wait below when ctx is done; it rechecks under the lock,
	// so the wake cannot fall between its check and its wait.
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.space.Broadcast()
		p.mu.Unlock()
	})
	defer stop()
	return p.submit(ctx, true, fn, opts)
}

// submit queues a task for fn. When the queue is full and no lower class
// can be shed, it rejects with ErrQueueFull, or with wait set waits for a
// slot until ctx is done.
func (p *Pool) submit(ctx context.Context, wait bool, fn Func, opts []SubmitOption) (*Task, error) {
	t := p.newTask(fn, opts)
	p.mu.Lock()
	var victim *Task
	for !p.closed && p.queuedN >= p.opts.QueueCap {
		if victim = p.evictLocked(t.class); victim != nil || !wait || ctx.Err() != nil {
			break
		}
		p.space.Wait()
	}
	var err error
	switch {
	case p.closed:
		err = ErrShutdown
	case victim != nil || p.queuedN < p.opts.QueueCap:
	case !wait:
		p.rejected.Add(1)
		p.classes[t.class].rejected.Add(1)
		err = ErrQueueFull
	default:
		err = ctx.Err()
	}
	if err != nil {
		p.mu.Unlock()
		t.cancel()
		return nil, err
	}
	p.queues[t.class] = append(p.queues[t.class], t)
	p.queuedN++
	p.queued.Add(1)
	p.classes[t.class].queued.Add(1)
	p.submitted.Add(1)
	p.classes[t.class].submitted.Add(1)
	p.cond.Signal()
	p.mu.Unlock()
	if victim != nil {
		// The victim goes terminal outside the queue lock: finishTask
		// only touches the victim's own state and the pool atomics. The
		// ShedError names the evicting class for the victim's status.
		p.finishTask(victim, &ShedError{By: t.class}, false)
	}
	return t, nil
}

// evictLocked picks a queued job to shed so a job of class c can be
// admitted: the newest-queued task of the lowest-priority *evictable*
// class strictly below c (the newest has waited least, so shedding it
// wastes the least queue time). Returns nil when nothing may be shed —
// the queue holds only classes at or above c, or only non-evictable
// tiers. Callers hold mu.
func (p *Pool) evictLocked(c Class) *Task {
	for vc := Class(NumClasses - 1); vc > c; vc-- {
		if !vc.Evictable() {
			break // critical/standard (and everything above) never shed
		}
		q := p.queues[vc]
		if n := len(q); n > 0 {
			t := q[n-1]
			q[n-1] = nil
			p.queues[vc] = q[:n-1]
			p.queuedN--
			p.queued.Add(-1)
			p.classes[vc].queued.Add(-1)
			return t
		}
	}
	return nil
}

// Shutdown stops accepting jobs and waits for queued and running work
// to drain. If ctx expires first, all remaining tasks are canceled and
// Shutdown keeps waiting for the workers to observe that and exit, then
// returns ctx.Err(). Safe to call once.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrShutdown
	}
	p.closed = true
	p.cond.Broadcast()
	p.space.Broadcast()
	p.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed: cancel everything still in flight. Workers mark
	// the canceled tasks terminal as they get to them.
	p.cancelAll()
	<-drained
	return ctx.Err()
}

// cancelAll cancels every task the pool holds through the pool context,
// so a task a worker claims just before the deadline runs canceled too,
// and drains the class queues, finishing the queued tasks as canceled.
func (p *Pool) cancelAll() {
	p.cancel()
	p.mu.Lock()
	var all []*Task
	for c := range p.queues {
		all = append(all, p.queues[c]...)
		p.queues[c] = nil
		p.classes[c].queued.Store(0)
	}
	p.queuedN = 0
	p.queued.Store(0)
	p.mu.Unlock()
	for _, t := range all {
		p.finishTask(t, t.ctx.Err(), false)
	}
}

// next blocks until a task is available — the head of the
// highest-priority nonempty class queue — or the pool is closed and
// fully drained (nil).
func (p *Pool) next() *Task {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for c := range p.queues {
			q := p.queues[c]
			if len(q) == 0 {
				continue
			}
			t := q[0]
			q[0] = nil
			if len(q) == 1 {
				p.queues[c] = nil // reclaim the backing array at idle
			} else {
				p.queues[c] = q[1:]
			}
			p.queuedN--
			p.queued.Add(-1)
			p.classes[c].queued.Add(-1)
			p.space.Signal()
			return t
		}
		if p.closed {
			return nil
		}
		p.cond.Wait()
	}
}

// worker is the run loop of one pool worker.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		t := p.next()
		if t == nil {
			return
		}
		p.runTask(t)
	}
}

// runTask executes one task with panic containment.
func (p *Pool) runTask(t *Task) {
	// A task canceled while still queued never runs.
	if t.ctx.Err() != nil {
		p.finishTask(t, t.ctx.Err(), false)
		return
	}
	t.started = time.Now()
	p.queueLatencyNS.Add(int64(t.started.Sub(t.submitted)))
	p.queueLatencyN.Add(1)
	if p.queueSeconds != nil {
		p.queueSeconds.ObserveEx(t.started.Sub(t.submitted).Seconds(), t.exemplar)
	}
	t.state.Store(int32(StateRunning))
	p.running.Add(1)
	if t.onStart != nil {
		t.onStart()
	}

	err := p.invoke(t)
	p.running.Add(-1)
	p.finishTask(t, err, true)
}

// invoke calls the job function, converting a panic into a *PanicError
// so a faulty job fails alone instead of taking the daemon down.
func (p *Pool) invoke(t *Task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 8<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Value: r, Stack: buf}
		}
	}()
	progress := func(v any) {
		if t.onProg != nil {
			t.onProg(v)
		}
	}
	return t.fn(t.ctx, progress)
}

// finishTask records the terminal state. ran reports whether the job
// function actually executed (false for canceled-while-queued).
func (p *Pool) finishTask(t *Task, err error, ran bool) {
	if t.State() >= StateDone {
		return
	}
	t.finished = time.Now()
	if ran {
		p.runLatencyNS.Add(int64(t.finished.Sub(t.started)))
		p.runLatencyN.Add(1)
		if p.runSeconds != nil {
			p.runSeconds.ObserveEx(t.finished.Sub(t.started).Seconds(), t.exemplar)
		}
	}
	t.err = err
	switch {
	case err == nil:
		t.state.Store(int32(StateDone))
		p.nDone.Add(1)
		p.classes[t.class].done.Add(1)
	case errors.Is(err, ErrShed):
		t.state.Store(int32(StateShed))
		p.nShed.Add(1)
		p.classes[t.class].shed.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		t.state.Store(int32(StateCanceled))
		p.nCancel.Add(1)
		p.classes[t.class].canceled.Add(1)
	default:
		t.state.Store(int32(StateFailed))
		p.nFail.Add(1)
		p.classes[t.class].failed.Add(1)
	}
	t.cancel() // release the ctx's resources
	close(t.done)
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	s := Stats{
		Workers:   p.opts.Workers,
		QueueCap:  p.opts.QueueCap,
		Queued:    p.queued.Load(),
		Running:   p.running.Load(),
		Submitted: p.submitted.Load(),
		Done:      p.nDone.Load(),
		Failed:    p.nFail.Load(),
		Canceled:  p.nCancel.Load(),
		Shed:      p.nShed.Load(),
		Rejected:  p.rejected.Load(),
		Bypassed:  p.bypassed.Load(),
		Classes:   make(map[string]ClassStats, NumClasses),
	}
	for c := 0; c < NumClasses; c++ {
		cc := &p.classes[c]
		s.Classes[Class(c).String()] = ClassStats{
			Queued:    cc.queued.Load(),
			Submitted: cc.submitted.Load(),
			Done:      cc.done.Load(),
			Failed:    cc.failed.Load(),
			Canceled:  cc.canceled.Load(),
			Shed:      cc.shed.Load(),
			Rejected:  cc.rejected.Load(),
			Bypassed:  cc.bypassed.Load(),
		}
	}
	if n := p.queueLatencyN.Load(); n > 0 {
		s.AvgQueueLatency = time.Duration(p.queueLatencyNS.Load() / n)
	}
	if n := p.runLatencyN.Load(); n > 0 {
		s.AvgRunLatency = time.Duration(p.runLatencyNS.Load() / n)
	}
	if p.queueSeconds != nil {
		q := p.queueSeconds.Summary()
		s.QueueLatency = &q
	}
	if p.runSeconds != nil {
		q := p.runSeconds.Summary()
		s.RunLatency = &q
	}
	return s
}
