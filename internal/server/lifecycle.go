package server

// The job lifecycle. A job's state lives in one field that only the
// code in this file writes: start moves it from queued to running (in
// memory only — a job without a terminal WAL frame resumes at the next
// boot either way), and finish makes it terminal. finish is the one way
// a job ends, whatever ends it: its own run, a cache hit, a
// single-flight follower, a restore from the WAL or from the cache at
// recovery, or an orphan that cannot resume. Every ending takes the
// same steps in the same order, and persists before it publishes.

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"avfsim/internal/cache"
	"avfsim/internal/flight"
	"avfsim/internal/microtel"
	"avfsim/internal/obs"
	"avfsim/internal/sched"
	"avfsim/internal/span"
	"avfsim/internal/store"
)

// subCap buffers a stream subscriber; a client that falls this many
// estimates behind is dropped rather than stalling the simulation.
const subCap = 4096

// job tracks one submitted run.
type job struct {
	id        string
	spec      JobSpec
	submitted time.Time
	task      *sched.Task
	// watched is closed once the watcher has finished the terminal
	// transition of the job's own run (nil for jobs without a task).
	watched chan struct{}
	// tracer records the injection lifecycle (nil without WithMetrics).
	tracer *obs.JobTracer
	// flight records error-bit events for propagation-trace export (nil
	// unless the spec asked for it).
	flight *flight.Recorder
	// microtel accumulates occupancy residency, injection coverage, and
	// confidence surfaces (nil unless the spec asked for it).
	microtel *microtel.Collector

	// Request tracing (zero values when the server runs without
	// WithSpans): the job's trace identity, the remote parent span ID
	// adopted from an inbound traceparent, and the root span, which
	// lives submit→terminal.
	trace      span.TraceID
	parentSpan span.SpanID
	root       *span.Active

	// skipTo, set when the job was recovered from the WAL, maps structure
	// name → count of intervals already persisted (and preloaded into
	// points): the resumed run re-emits them deterministically and the
	// OnInterval callback drops them so clients see each interval once.
	skipTo map[string]int

	// Result-cache participation (see cache.go), all set before the job
	// is observable: cacheKey is the spec's content address; cacheLead
	// marks the single-flight leader (settles the flight at terminal);
	// cachePopulate marks a run that feeds the cache without leading.
	cacheKey      cache.Key
	cacheLead     bool
	cachePopulate bool
	// recorded marks a job whose spec frame the store holds, set before
	// the job can run or end. Only recorded jobs get a terminal frame:
	// cache hits and followers are never persisted.
	recorded bool

	mu sync.Mutex
	// state is queued, running, or terminal (done, failed, canceled,
	// shed). Only start and finish write it.
	state  string
	points []IntervalPoint
	// walPoints counts the leading points the WAL already holds (or was
	// asked to hold); finish persists the rest before the terminal frame.
	walPoints int
	subs      map[chan IntervalPoint]struct{}
	result    *JobResult
	errMsg    string
	shedBy    string
	// finishedAt drives retention; zero until terminal.
	finishedAt time.Time
	// queueSpan and dispatchSpan are open while the job waits and while
	// the worker hands it over; finish closes whichever is still open.
	queueSpan    *span.Active
	dispatchSpan *span.Active
	// cached/cacheLeader mirror JobStatus: this job's series was served
	// by the cache (or a live leader) instead of its own run.
	cached      bool
	cacheLeader string
	// leader, while non-nil, is the live run this follower rides;
	// followers is the leader-side fan-out list (guarded by the *leader's*
	// mu, the same mutex publish holds). Lock order: leader.mu → follower.mu.
	leader    *job
	followers []*job
	// streamRefs counts attached NDJSON readers (stream/trace/flight/
	// spans/coverage); retention defers eviction while nonzero so a live
	// reader's job can never be deleted under it.
	streamRefs int
	// lookedUp marks a job some request has asked for by ID. Until then,
	// and for janitorPeriod after it ends, the count cap keeps it: a
	// cache hit is born terminal, and its client may hold the 202 but
	// not yet have asked. Guarded by the Server's mu, not the job's.
	lookedUp bool
}

func newJob(id string, spec JobSpec, submitted time.Time) *job {
	return &job{id: id, spec: spec, submitted: submitted, state: "queued",
		subs: map[chan IntervalPoint]struct{}{}}
}

// terminal reports whether state is an end state.
func terminal(state string) bool { return state != "queued" && state != "running" }

// currentState reads the job's state.
func (j *job) currentState() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// start is the queued → running transition, from the worker's OnStart
// hook; attached followers mirror it.
func (j *job) start() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = "running"
	for _, f := range j.followers {
		f.mu.Lock()
		f.state = "running"
		f.mu.Unlock()
	}
}

// publish appends an estimate and fans it out to live subscribers and
// single-flight followers. Called from the worker goroutine driving the
// simulation; walHeld says the WAL already holds the point. The
// follower snapshot is taken in the same critical section that appends
// the point, and attachFollower copies points and joins the list in one
// section too, so every follower sees each estimate exactly once
// (either in its initial copy or via fan-out).
func (j *job) publish(pt IntervalPoint, walHeld bool) {
	j.mu.Lock()
	if terminal(j.state) { // a detached follower: its series is final
		j.mu.Unlock()
		return
	}
	if walHeld && j.walPoints == len(j.points) {
		j.walPoints++
	}
	j.points = append(j.points, pt)
	for ch := range j.subs {
		select {
		case ch <- pt:
		default: // subscriber too slow: drop it, never block the run
			delete(j.subs, ch)
			close(ch)
		}
	}
	fs := j.followers
	if len(fs) > 0 {
		fs = append([]*job(nil), fs...)
	}
	j.mu.Unlock()
	for _, f := range fs { // outside j.mu: lock order is leader → follower
		f.publish(pt, false)
	}
}

// subscribe returns the estimates so far plus a channel of subsequent
// ones; the channel is closed when the job ends (or nil if it already
// has). cancelSub must be called when the consumer goes away. points is
// append-only, so replay shares its backing array instead of copying.
func (j *job) subscribe() (replay []IntervalPoint, ch chan IntervalPoint) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = j.points[:len(j.points):len(j.points)]
	if terminal(j.state) {
		return replay, nil
	}
	ch = make(chan IntervalPoint, subCap)
	j.subs[ch] = struct{}{}
	return replay, ch
}

func (j *job) cancelSub(ch chan IntervalPoint) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.subs[ch]; ok {
		delete(j.subs, ch)
		close(ch)
	}
}

// status snapshots the job for the API.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:          j.id,
		State:       j.state,
		Benchmark:   j.spec.Benchmark,
		Submitted:   j.submitted,
		Intervals:   append([]IntervalPoint(nil), j.points...),
		Result:      j.result,
		Error:       j.errMsg,
		TraceID:     j.traceID(),
		ShedBy:      j.shedBy,
		Cached:      j.cached,
		CacheLeader: j.cacheLeader,
	}
}

// endKind names what ended a job; it decides which of finish's steps
// apply.
type endKind int

const (
	endRun      endKind = iota // the job's own run ended (the watcher)
	endHit                     // born terminal from a cache entry
	endFollower                // mirrored its single-flight leader, or detached
	// Endings decided at recovery charge no SLO and leave retention to
	// Recover's closing sweep.
	endRestore      // restored terminal from its WAL record (persists nothing)
	endCacheRestore // recovered unfinished, finished from a cache entry
	endOrphan       // recovered but cannot resume: failed
)

// ending is how a job ended.
type ending struct {
	kind    endKind
	state   string // done | failed | canceled | shed
	outcome string // span/SLO noun (outcomeOf); "" means state
	errMsg  string
	result  *JobResult
	shedBy  string
	// start and at bound the job's latency; zero means its submission
	// and now.
	start, at time.Time
	// checkpoint marks a cancel during drain: not a verdict, so nothing
	// is persisted and the next boot resumes the job.
	checkpoint bool
}

// finish is the one terminal transition. In order, it:
//
//  1. closes the job's open spans (queue, dispatch, root);
//  2. persists the terminal frame, if the store recorded the job;
//  3. settles the job's cache obligations, with their cache frame;
//  4. publishes state, error, result and finishedAt in one critical
//     section, then releases stream subscribers;
//  5. finishes attached followers through this same function;
//  6. charges the SLO, except client cancels and recovery endings;
//  7. runs retention: a sweep for own runs, batched for hits and
//     followers.
//
// So whenever a client can see a terminal state, the WAL holds it and
// the cache is settled: an identical submission after "done" is a hit.
func (s *Server) finish(j *job, e ending) {
	if e.start.IsZero() {
		e.start = j.submitted
	}
	if e.at.IsZero() {
		e.at = time.Now()
	}
	if e.outcome == "" {
		e.outcome = e.state
	}

	j.mu.Lock()
	queue, dispatch := j.queueSpan, j.dispatchSpan
	j.queueSpan, j.dispatchSpan = nil, nil
	j.mu.Unlock()
	queue.End(e.outcome) // died queued: shed or canceled before start
	dispatch.End(e.outcome)
	if j.root != nil {
		if e.shedBy != "" {
			j.root.SetAttr("shed_by", e.shedBy)
		}
		j.root.SetAttr("latency_seconds",
			strconv.FormatFloat(e.at.Sub(e.start).Seconds(), 'g', 6, 64))
		j.root.EndAt(e.outcome, e.at)
	}

	if j.recorded && s.st != nil && e.kind != endRestore && !e.checkpoint {
		s.persistTerminal(j, &e)
	}
	s.settleCache(j, &e)

	j.mu.Lock()
	j.state, j.errMsg, j.result, j.shedBy = e.state, e.errMsg, e.result, e.shedBy
	j.finishedAt = e.at
	j.leader = nil
	for ch := range j.subs {
		delete(j.subs, ch)
		close(ch)
	}
	fs := j.followers
	j.followers = nil
	j.mu.Unlock()

	for _, f := range fs {
		s.finish(f, ending{kind: endFollower, state: e.state, errMsg: e.errMsg, result: e.result,
			checkpoint: e.checkpoint})
	}

	// Client cancels are excluded by design: a user abort is not a
	// service failure. Deadline overruns are the service's miss and do
	// count.
	if s.slo != nil && e.outcome != "canceled" && e.kind < endRestore {
		s.slo.Record(j.class().String(), e.outcome, e.at.Sub(e.start).Seconds(), j.id, j.traceID())
	}
	switch e.kind {
	case endRun:
		s.sweepRetention(time.Now())
	case endHit, endFollower:
		s.maybeSweep()
	}
}

// persistTerminal writes the points the WAL does not hold yet (a job
// finished from a cache entry or a recovered follower), then the one
// terminal frame: state, error, result and span summary. If a point
// cannot be written the job stays unfinished in the WAL and resumes.
func (s *Server) persistTerminal(j *job, e *ending) {
	j.mu.Lock()
	tail := j.points[min(j.walPoints, len(j.points)):]
	j.mu.Unlock()
	for i := range tail {
		if err := s.st.AppendInterval(j.id, &tail[i]); err != nil {
			s.logPersist("persist interval", j.id, err)
			return
		}
	}
	var res, spans any
	if e.result != nil {
		res = e.result
	}
	if s.spans != nil {
		if sp := s.spans.ForJob(j.id); len(sp) > 0 {
			spans = sp
		}
	}
	s.logPersist("persist terminal state", j.id, s.st.AppendState(j.id, e.state, e.errMsg, res, spans))
}

// logPersist logs a failed store write. A closed store is what a crash
// looks like to the jobs still in flight, so it is not an error.
func (s *Server) logPersist(what, id string, err error) {
	if err != nil && !errors.Is(err, store.ErrClosed) {
		s.log.Error(what, "job", id, "error", err)
	}
}

// register makes j visible to the API.
func (s *Server) register(j *job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
}

// openTrace adopts the spec's traceparent (client-supplied or persisted
// by a previous boot) or mints one, opens the job's root span, and
// rewrites the spec's traceparent to the canonical value — trace ID plus
// *this* root's span ID — so a job resumed after a crash chains its new
// root under the pre-crash one on the same trace. Own runs, hits and
// followers all carry a trace this way.
func (s *Server) openTrace(j *job, class sched.Class) {
	if s.spans == nil {
		return
	}
	if t, p, _, err := span.ParseTraceparent(j.spec.Traceparent); err == nil {
		j.trace, j.parentSpan = t, p
	} else {
		// Per the trace-context spec an invalid traceparent restarts
		// the trace rather than failing the request.
		j.trace, j.parentSpan = span.MintTraceID(), span.SpanID{}
	}
	j.root = s.spans.StartAt(j.trace, j.parentSpan, "job", j.submitted)
	j.root.SetJob(j.id, class.String())
	j.spec.Traceparent = span.FormatTraceparent(j.trace, j.root.ID(), 0x01)
}
