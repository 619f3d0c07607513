// Package server implements the avfd HTTP API: submit AVF-estimation
// jobs, watch per-interval estimates stream out live while the workload
// executes (the paper's online-monitoring use case, §1), fetch final
// series, cancel, and read scheduler stats.
//
// Routes (all JSON):
//
//	POST   /v1/jobs           submit a JobSpec; 202 + {"id": ...}
//	GET    /v1/jobs           list job summaries
//	GET    /v1/jobs/{id}      status + per-interval estimates (+ final series when done)
//	GET    /v1/jobs/{id}/stream  NDJSON live stream, one line per estimate
//	GET    /v1/jobs/{id}/trace   NDJSON injection-lifecycle trace (needs WithMetrics)
//	GET    /v1/jobs/{id}/flight  NDJSON propagation traces (needs "flight": true)
//	GET    /v1/jobs/{id}/spans   NDJSON request spans of the job's trace (needs WithSpans)
//	GET    /v1/jobs/{id}/coverage  NDJSON microarchitectural telemetry (needs "microtel": true)
//	DELETE /v1/jobs/{id}      cancel (idempotent)
//	GET    /v1/healthz        liveness
//	GET    /v1/occupancy      aggregate occupancy/coverage surface across microtel jobs
//	GET    /v1/stats          scheduler counters + queue saturation + job-state census + drop counters
//	GET    /v1/drift          drift-monitor snapshot: stream charts + alarm log
//	GET    /v1/traces         trace summaries (?min_dur=&class=&state=&limit=; needs WithSpans)
//	GET    /v1/slo            per-class error budgets + burn rates (needs WithSLO)
//	GET    /metrics           Prometheus text exposition (needs WithMetrics)
//	GET    /v1/metrics        same registry as JSON (needs WithMetrics)
//	GET    /debug/avf         live dashboard (HTML; SSE feed at /debug/avf/stream)
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"avfsim/internal/cache"
	"avfsim/internal/core"
	"avfsim/internal/drift"
	"avfsim/internal/experiment"
	"avfsim/internal/flight"
	"avfsim/internal/microtel"
	"avfsim/internal/obs"
	"avfsim/internal/pipeline"
	"avfsim/internal/sched"
	"avfsim/internal/span"
	"avfsim/internal/store"
	"avfsim/internal/workload"
)

// JobSpec is the wire shape of one estimation run — a JSON rendering of
// experiment.RunConfig. Zero fields take the RunConfig defaults (the
// paper's M = N = 1000, 10 intervals, the four paper structures).
type JobSpec struct {
	Benchmark      string   `json:"benchmark"`
	Scale          float64  `json:"scale,omitempty"`
	Seed           uint64   `json:"seed,omitempty"`
	M              int64    `json:"m,omitempty"`
	N              int      `json:"n,omitempty"`
	Intervals      int      `json:"intervals,omitempty"`
	Structures     []string `json:"structures,omitempty"`
	Window         int      `json:"window,omitempty"` // at most softarch.MaxWindow
	RandomEntry    bool     `json:"random_entry,omitempty"`
	RandomSchedule bool     `json:"random_schedule,omitempty"`
	Multiplex      bool     `json:"multiplex,omitempty"`
	// Lanes > 1 runs the multi-lane injection engine: up to 64
	// concurrent experiments share the cycle loop (round-robin across
	// the monitored structures), shrinking wall-clock per estimate by
	// ~Lanes/len(structures). 0 or 1 keeps the classic estimator.
	// Incompatible with multiplex.
	Lanes int `json:"lanes,omitempty"`
	// Flight attaches a flight recorder: every error-bit event of the
	// run is retained (bounded ring, newest wins) and served as
	// propagation traces at GET /v1/jobs/{id}/flight. FlightCap bounds
	// the ring (events; default flight.DefaultCap, at most
	// flight.MaxCap).
	Flight    bool `json:"flight,omitempty"`
	FlightCap int  `json:"flight_cap,omitempty"`
	// Microtel attaches the microarchitectural telemetry collector:
	// occupancy residency histograms sampled at injection boundaries,
	// (structure × entry × cycle-bucket) coverage maps, per-lane
	// utilization, and Wilson confidence intervals on every streamed
	// estimate. Served at GET /v1/jobs/{id}/coverage and aggregated at
	// GET /v1/occupancy.
	Microtel bool `json:"microtel,omitempty"`
	// DeadlineSeconds bounds the job's run time (admission control): the
	// run is canceled once it has executed this long. 0 inherits the
	// server-wide default; values beyond the server's cap are clamped.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// SLOClass is the job's scheduling tier: critical | standard |
	// sheddable | batch ("" = standard). Dispatch is strict priority;
	// under queue saturation sheddable/batch jobs may be evicted
	// (terminal state "shed") to admit higher tiers, and rejected
	// submissions get a class-dependent Retry-After.
	SLOClass string `json:"slo_class,omitempty"`
	// Traceparent is the job's W3C trace context ("00-<trace>-<span>-<flags>").
	// Clients may set it (or send a traceparent header) to stitch the
	// job into a distributed trace; otherwise the server mints one. The
	// server rewrites it to the canonical value before persisting, so a
	// job resumed after a crash stays on its original trace.
	Traceparent string `json:"traceparent,omitempty"`
}

// class resolves the spec's SLO tier (empty = standard).
func (js *JobSpec) class() (sched.Class, error) { return sched.ParseClass(js.SLOClass) }

// runConfig translates the spec and runs the checks RunCtx runs first
// (experiment.RunConfig.Validate), so submission errors surface as 400s
// instead of failed jobs.
func (js *JobSpec) runConfig() (experiment.RunConfig, error) {
	rc := experiment.RunConfig{
		Benchmark:      js.Benchmark,
		Scale:          js.Scale,
		Seed:           js.Seed,
		M:              js.M,
		N:              js.N,
		Intervals:      js.Intervals,
		Window:         js.Window,
		RandomEntry:    js.RandomEntry,
		RandomSchedule: js.RandomSchedule,
		Multiplex:      js.Multiplex,
		Lanes:          js.Lanes,
	}
	if js.FlightCap > flight.MaxCap {
		return rc, fmt.Errorf("flight_cap %d exceeds %d", js.FlightCap, flight.MaxCap)
	}
	if _, err := workload.ByName(js.Benchmark); err != nil {
		return rc, err
	}
	for _, name := range js.Structures {
		s, err := pipeline.ParseStructure(name)
		if err != nil {
			return rc, err
		}
		rc.Structures = append(rc.Structures, s)
	}
	return rc, rc.Validate()
}

// IntervalPoint is one streamed per-interval estimate.
type IntervalPoint struct {
	Structure  string  `json:"structure"`
	Interval   int     `json:"interval"`
	StartCycle int64   `json:"start_cycle"`
	EndCycle   int64   `json:"end_cycle"`
	AVF        float64 `json:"avf"`
	Failures   int     `json:"failures"`
	Injections int     `json:"injections"`
	// Confidence carries the estimate's standard error and Wilson score
	// interval (only on jobs submitted with "microtel": true).
	Confidence *microtel.Confidence `json:"confidence,omitempty"`
}

// StreamEvent is one NDJSON line of GET /v1/jobs/{id}/stream: "interval"
// events carry an estimate; the final "end" event carries the terminal
// job state.
type StreamEvent struct {
	Type     string         `json:"type"` // "interval" | "end"
	Interval *IntervalPoint `json:"interval,omitempty"`
	State    string         `json:"state,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// SeriesJSON is the final per-structure AVF series triple.
type SeriesJSON struct {
	Structure   string    `json:"structure"`
	Online      []float64 `json:"online"`
	Reference   []float64 `json:"reference"`
	Utilization []float64 `json:"utilization,omitempty"`
}

// JobResult is the final outcome of a completed job.
type JobResult struct {
	Benchmark string       `json:"benchmark"`
	M         int64        `json:"m"`
	N         int          `json:"n"`
	Intervals int          `json:"intervals"`
	Series    []SeriesJSON `json:"series"`
}

// JobStatus is the GET /v1/jobs/{id} response.
type JobStatus struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Benchmark string          `json:"benchmark"`
	Submitted time.Time       `json:"submitted"`
	Intervals []IntervalPoint `json:"intervals"`
	Result    *JobResult      `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
	// TraceID is the job's trace (set when the server runs WithSpans).
	TraceID string `json:"trace_id,omitempty"`
	// ShedBy names the SLO class whose arrival evicted this job (only
	// on state "shed").
	ShedBy string `json:"shed_by,omitempty"`
	// Cached marks a job served from the result cache without executing;
	// CacheLeader names the job whose run produced the replayed series
	// (also set on single-flight followers riding a live run).
	Cached      bool   `json:"cached,omitempty"`
	CacheLeader string `json:"cache_leader,omitempty"`
}

// Server is the avfd HTTP API over a sched.Pool.
type Server struct {
	pool *sched.Pool
	log  *slog.Logger

	// Observability (nil without WithMetrics): the shared registry, the
	// HTTP middleware, the per-structure injection-outcome counters
	// every job's tracer aggregates into, and the streamed-point
	// counter.
	reg            *obs.Registry
	httpm          *obs.HTTPMetrics
	injc           *obs.InjectionCounters
	streamedPoints *obs.Counter
	// microtelMetrics mirrors every microtel collector into the shared
	// registry (nil without WithMetrics; collectors take nil gracefully).
	microtelMetrics *obs.MicrotelMetrics

	// spans is the bounded ring of completed request spans (nil without
	// WithSpans — every recording site is nil-safe, so disabled tracing
	// costs only a pointer check). slo is the per-class error-budget
	// engine fed by terminal job outcomes (nil without WithSLO).
	spans *span.Recorder
	slo   *span.Engine

	// drift watches the per-interval AVF streams (always on; metrics
	// mirrors are nil without WithMetrics). hub feeds the SSE dashboard.
	drift       *drift.Monitor
	hub         *sseHub
	driftAlarms *obs.CounterVec
	driftEWMA   *obs.GaugeVec

	// Durability & admission control (see WithStore / WithRetention /
	// WithJobDeadline / WithMaxBodyBytes).
	st            *store.Store
	retTTL        time.Duration
	retMax        int
	jobDeadline   time.Duration
	maxBody       int64
	streamTimeout time.Duration
	recoveredJobs *obs.Counter
	evictedJobs   *obs.Counter
	// draining flips at BeginDrain: jobs canceled from then on persist
	// no terminal frame (their checkpoints resume at the next boot)
	// instead of a terminal "canceled".
	draining    atomic.Bool
	janitorStop chan struct{}
	closeOnce   sync.Once

	// cache is the content-addressed result cache + single-flight table
	// (nil without WithResultCache; see cache.go). pendingSweep/sweeping
	// batch retention sweeps on the cache-served fast path: hits finish
	// jobs at 10k+/s, far above what per-completion sweeps can absorb.
	cache        *cache.Cache
	cacheMetrics *obs.CacheMetrics
	pendingSweep atomic.Int64
	sweeping     atomic.Bool

	mu   sync.Mutex
	jobs map[string]*job
	seq  uint64
}

// Option customizes a Server.
type Option func(*Server)

// WithMetrics wires the server's observability into r: HTTP middleware
// on every route, the /metrics and /v1/metrics expositions, and
// per-job injection-lifecycle tracing (the /v1/jobs/{id}/trace
// endpoint plus avfd_injections_total{structure,outcome}).
func WithMetrics(r *obs.Registry) Option {
	return func(s *Server) {
		s.reg = r
		s.httpm = obs.NewHTTPMetrics(r)
		s.injc = obs.NewInjectionCounters(r)
		s.microtelMetrics = obs.NewMicrotelMetrics(r)
		s.streamedPoints = r.Counter("avfd_http_streamed_points_total",
			"Per-interval estimate events written to NDJSON stream clients.")
		s.driftAlarms = r.CounterVec("avfd_drift_alarms_total",
			"Drift-detector alarms by monitored stream and chart (ewma|cusum).",
			"stream", "kind")
		s.driftEWMA = r.GaugeVec("avfd_drift_last",
			"Latest observation of each drift-monitored stream (AVF or divergence).",
			"stream")
		s.recoveredJobs = r.Counter("avfd_recovered_jobs_total",
			"Interrupted jobs re-enqueued from the WAL at boot (crash/restart recovery).")
		s.evictedJobs = r.Counter("avfd_jobs_evicted_total",
			"Terminal jobs removed by the retention policy (TTL or max-completed cap).")
	}
}

// WithSpans turns on request tracing: every job gets a trace (adopted
// from an inbound traceparent or minted at submit) whose spans —
// admission, queue wait, dispatch, run, per-interval batches, WAL
// appends, stream sessions — land in rec and serve GET
// /v1/jobs/{id}/spans and GET /v1/traces. Terminal span summaries are
// persisted when the server also runs WithStore.
func WithSpans(rec *span.Recorder) Option {
	return func(s *Server) { s.spans = rec }
}

// WithSLO wires the per-class error-budget engine: terminal job
// outcomes feed eng, which serves GET /v1/slo, the slo block of
// /v1/stats, and (WithMetrics) the avfd_slo_budget_remaining /
// avfd_slo_burn_rate gauges.
func WithSLO(eng *span.Engine) Option {
	return func(s *Server) { s.slo = eng }
}

// WithStore makes the server durable: job specs, per-interval
// estimates, and one terminal frame per finished job (state, result,
// span summary) are appended to st's WAL, and Recover re-enqueues
// unfinished jobs after a restart.
func WithStore(st *store.Store) Option {
	return func(s *Server) { s.st = st }
}

// WithRetention bounds the in-memory (and persisted) job history:
// terminal jobs older than ttl, or beyond the newest maxCompleted, are
// evicted. Zero disables the respective limit. Jobs still running are
// never evicted. Eviction runs after every job completion and on a
// periodic janitor started by New (stopped by Close).
func WithRetention(ttl time.Duration, maxCompleted int) Option {
	return func(s *Server) { s.retTTL, s.retMax = ttl, maxCompleted }
}

// WithJobDeadline caps every job's run time: a job executing longer is
// canceled. Specs may ask for a shorter deadline_seconds; longer asks
// are clamped to d. Zero means unlimited.
func WithJobDeadline(d time.Duration) Option {
	return func(s *Server) { s.jobDeadline = d }
}

// WithMaxBodyBytes bounds the POST /v1/jobs request body (default 1
// MiB); larger bodies get 413.
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// WithStreamWriteTimeout sets the per-write deadline on streaming
// responses (NDJSON job streams, SSE dashboard; default 30s). These
// routes are exempt from http.Server.WriteTimeout — a stream lives as
// long as its job — so this rolling deadline is what sheds clients
// whose connection has gone dead mid-write. Zero disables it.
func WithStreamWriteTimeout(d time.Duration) Option {
	return func(s *Server) { s.streamTimeout = d }
}

// WithLogger sets the job-lifecycle logger (default slog.Default()).
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// defaultMaxBody bounds POST /v1/jobs bodies: a job spec is a handful
// of scalar fields, so 1 MiB is generous and still starves slow-body
// memory exhaustion.
const defaultMaxBody = 1 << 20

// defaultStreamWriteTimeout is the rolling per-write deadline on
// streaming responses (see WithStreamWriteTimeout).
const defaultStreamWriteTimeout = 30 * time.Second

// New builds a Server submitting to pool. Call Close on servers built
// with a retention policy to stop the janitor goroutine.
func New(pool *sched.Pool, opts ...Option) *Server {
	s := &Server{
		pool:          pool,
		jobs:          map[string]*job{},
		log:           slog.Default(),
		maxBody:       defaultMaxBody,
		streamTimeout: defaultStreamWriteTimeout,
	}
	for _, o := range opts {
		o(s)
	}
	if s.retTTL > 0 || s.retMax > 0 {
		s.janitorStop = make(chan struct{})
		go s.janitor()
	}
	s.hub = newSSEHub()
	// The drift monitor runs regardless of metrics: /v1/drift and the
	// dashboard are part of the core API. The callback mirrors alarms
	// into the registry (when present), the log, and the SSE feed.
	s.drift = drift.NewMonitor(drift.OnAlarm(func(a drift.StreamAlarm) {
		if s.driftAlarms != nil {
			s.driftAlarms.With(a.Stream, string(a.Kind)).Inc()
		}
		s.log.Warn("avf drift alarm", "stream", a.Stream, "chart", string(a.Kind),
			"value", a.Value, "baseline", a.Mean, "sigma", a.Sigma, "up", a.Up)
		s.hub.broadcast("alarm", a)
	}))
	// SLO gauges are sampled cells: exposition reads the live engine, so
	// no goroutine keeps them fresh. Registered here (not in WithMetrics)
	// because they need both the registry and the engine, whatever the
	// option order.
	// Drop accounting: every bounded buffer that can shed data under
	// pressure (flight rings, trace rings, span ring) reports its drops
	// as a counter, so "the telemetry is lying to me" is itself observable.
	if s.reg != nil {
		s.reg.CounterFunc("avfd_flight_dropped_total",
			"Flight-recorder events dropped by ring overwrite, summed across jobs.",
			func() int64 { f, _ := s.dropTotals(); return f })
		s.reg.CounterFunc("avfd_trace_records_dropped_total",
			"Injection-trace records dropped by ring overwrite, summed across jobs.",
			func() int64 { _, tr := s.dropTotals(); return tr })
	}
	if s.reg != nil && s.spans != nil {
		s.reg.CounterFunc("avfd_spans_dropped_total",
			"Completed request spans dropped by the bounded span ring.",
			s.spans.Dropped)
	}
	// Cache metrics need both the registry and the cache, whatever the
	// option order (same pattern as the SLO gauges below).
	s.registerCacheMetrics()
	if s.reg != nil && s.slo != nil {
		budget := s.reg.GaugeVec("avfd_slo_budget_remaining",
			"Fraction of the class's rolling 1h error budget still unspent.", "class")
		burn := s.reg.GaugeVec("avfd_slo_burn_rate",
			"Error-budget burn rate by class and window (1.0 = exactly on budget).",
			"class", "window")
		for _, class := range s.slo.Classes() {
			class := class
			budget.WithFunc(func() float64 { return s.slo.BudgetRemaining(class) }, class)
			burn.WithFunc(func() float64 { return s.slo.BurnRate(class, "5m") }, class, "5m")
			burn.WithFunc(func() float64 { return s.slo.BurnRate(class, "1h") }, class, "1h")
		}
	}
	return s
}

// Drift exposes the drift monitor (tests and embedding callers).
func (s *Server) Drift() *drift.Monitor { return s.drift }

// dropTotals sums per-job flight-recorder and injection-trace drops
// across all retained jobs (live and terminal).
func (s *Server) dropTotals() (flightDrops, traceDrops int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if j.flight != nil {
			flightDrops += j.flight.Dropped()
		}
		if j.tracer != nil {
			traceDrops += j.tracer.Dropped()
		}
	}
	return flightDrops, traceDrops
}

// Handler returns the route table, instrumented per-route when the
// server was built WithMetrics (route labels are the patterns below,
// so per-job paths aggregate into one series each).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		if s.httpm != nil {
			h = s.httpm.Wrap(pattern, h)
		}
		mux.HandleFunc(pattern, h)
	}
	handle("POST /v1/jobs", s.handleSubmit)
	handle("GET /v1/jobs", s.handleList)
	handle("GET /v1/jobs/{id}", s.handleStatus)
	handle("GET /v1/jobs/{id}/stream", s.handleStream)
	handle("GET /v1/jobs/{id}/trace", s.handleTrace)
	handle("GET /v1/jobs/{id}/flight", s.handleFlight)
	handle("GET /v1/jobs/{id}/spans", s.handleSpans)
	handle("GET /v1/jobs/{id}/coverage", s.handleCoverage)
	handle("GET /v1/occupancy", s.handleOccupancy)
	handle("DELETE /v1/jobs/{id}", s.handleCancel)
	handle("GET /v1/healthz", s.handleHealthz)
	handle("GET /v1/stats", s.handleStats)
	handle("GET /v1/drift", s.handleDrift)
	handle("GET /v1/traces", s.handleTraces)
	handle("GET /v1/slo", s.handleSLO)
	handle("GET /debug/avf", s.handleDashboard)
	handle("GET /debug/avf/stream", s.handleDashboardStream)
	if s.reg != nil {
		handle("GET /metrics", s.reg.TextHandler().ServeHTTP)
		handle("GET /v1/metrics", s.handleMetricsJSON)
	}
	return mux
}

// BeginDrain marks the server as draining (SIGTERM received): jobs
// canceled from here on persist no terminal frame — their per-interval
// checkpoints are already durable — so the next boot's Recover
// re-enqueues them, while a client's DELETE before the drain stays a
// terminal "canceled".
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close stops the retention janitor and returns once every job whose
// task has ended has finished its terminal transition, so its terminal
// frame is in the WAL. Call it after the pool's Shutdown (then that is
// every job) and before closing the store. It does not touch running
// jobs — the pool's Shutdown and the HTTP server's own shutdown own
// those.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.janitorStop != nil {
			close(s.janitorStop)
		}
	})
	s.mu.Lock()
	var ended []*job
	for _, j := range s.jobs {
		if j.task == nil {
			continue
		}
		select {
		case <-j.task.Done():
			ended = append(ended, j)
		default:
		}
	}
	s.mu.Unlock()
	for _, j := range ended {
		<-j.watched
	}
}

// CancelAll cancels every non-terminal job (shutdown-deadline path).
func (s *Server) CancelAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if j.task != nil {
			j.task.Cancel()
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// armStreamWrite exempts a streaming response from the http.Server's
// absolute WriteTimeout and returns a func to call before each write:
// it rolls a per-write deadline forward so only a client that cannot
// absorb one write within streamTimeout is shed, while the stream
// itself may live as long as its job. Idle waits between estimates
// don't write, so a stale deadline from the previous write is harmless.
func (s *Server) armStreamWrite(w http.ResponseWriter) func() {
	rc := http.NewResponseController(w)
	if s.streamTimeout <= 0 {
		rc.SetWriteDeadline(time.Time{}) // WriteTimeout exemption only
		return func() {}
	}
	return func() { rc.SetWriteDeadline(time.Now().Add(s.streamTimeout)) }
}

// lookup returns the job the request names, or nil, and marks it looked
// up for retention.
func (s *Server) lookup(r *http.Request) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[r.PathValue("id")]
	if j != nil {
		j.lookedUp = true
	}
	return j
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Admission control starts at the wire: a spec is a handful of
	// fields, so cap the body before the decoder touches it.
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	admitStart := time.Now()
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"job spec exceeds %d bytes", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	// The spec's traceparent wins over the transport header: a spec is
	// replayable (recovery re-reads it) while headers are not.
	if spec.Traceparent == "" {
		spec.Traceparent = r.Header.Get("traceparent")
	}
	rc, err := spec.runConfig()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	class, err := spec.class()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}

	s.mu.Lock()
	s.seq++
	j := newJob(fmt.Sprintf("job-%d", s.seq), spec, time.Now())
	s.mu.Unlock()

	// Content-addressed cache resolution (see cache.go): an exact hit is
	// served terminal without touching the scheduler, an identical run
	// already in flight absorbs this submission as a follower, and
	// otherwise this job leads — its completed series populates the
	// cache. Both short-circuit paths bypass the queue entirely, so
	// duplicates keep being served even under full backpressure.
	if s.cache != nil {
		switch cacheModeOf(&spec) {
		case cacheFull:
			j.cacheKey = cacheKeyOf(&spec)
			switch out := s.cache.Begin(j.cacheKey, j.id, j); {
			case out.Hit:
				s.serveCacheHit(w, j, out.Value.(*cacheValue), class, admitStart)
				return
			case out.Flight != nil:
				s.serveFollower(w, j, out.Flight, class, admitStart)
				return
			default:
				j.cacheLead = true
			}
		case cachePopulate:
			j.cacheKey = cacheKeyOf(&spec)
			j.cachePopulate = true
		}
	}

	// A rejection burns error budget — it is the service failing to
	// accept work the class was promised — so it feeds the SLO engine
	// with the admission latency, never a run latency.
	if err := s.launch(j, rc); err != nil {
		if j.cacheLead {
			s.cache.Abort(j.cacheKey, err)
		}
		s.writeAdmissionError(w, j, class, admitStart, err)
		return
	}

	// The admission span covers decode → validate → enqueue; recorded
	// only now so rejected submissions carry status "rejected" instead.
	s.admitted(j, class, admitStart, "ok")

	state := j.currentState()
	s.log.Info("job submitted", "job", j.id, "benchmark", spec.Benchmark, "state", state)
	resp := map[string]string{"id": j.id, "state": state}
	if tid := j.traceID(); tid != "" {
		resp["trace_id"] = tid
		w.Header().Set("traceparent", j.spec.Traceparent)
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// finishRejected closes the trace of a submission the pool refused
// (queue full, shutdown) and charges the rejection to the class's
// error budget with the admission latency.
func (s *Server) finishRejected(j *job, class sched.Class, admitStart time.Time) {
	lat := time.Since(admitStart).Seconds()
	s.admitted(j, class, admitStart, "rejected")
	j.root.End("rejected")
	s.slo.Record(class.String(), "rejected", lat, j.id, j.traceID())
}

// admitted records the submission's admission span: decode → validate
// → enqueue or cache resolution, ending with status.
func (s *Server) admitted(j *job, class sched.Class, start time.Time, status string) {
	adm := s.spans.StartAt(j.trace, j.root.ID(), "admission", start)
	adm.SetJob(j.id, class.String())
	adm.End(status)
}

// traceID returns the job's trace ID as a hex string ("" when tracing
// is off).
func (j *job) traceID() string {
	if j.trace.IsZero() {
		return ""
	}
	return j.trace.String()
}

// retryAfterSeconds is the class-dependent 429 backoff hint: interactive
// tiers may retry almost immediately, background tiers are pushed out so
// the queue slots they would contend for go to latency-sensitive work.
func retryAfterSeconds(c sched.Class) int {
	switch c {
	case sched.ClassSheddable:
		return 5
	case sched.ClassBatch:
		return 15
	default: // critical, standard
		return 1
	}
}

// effectiveDeadline resolves the per-job run-time bound from the spec
// and the server cap (see WithJobDeadline).
func (s *Server) effectiveDeadline(spec *JobSpec) time.Duration {
	d := time.Duration(spec.DeadlineSeconds * float64(time.Second))
	if d <= 0 {
		return s.jobDeadline
	}
	if s.jobDeadline > 0 && d > s.jobDeadline {
		return s.jobDeadline
	}
	return d
}

// launch wires a job's callbacks, persists its spec (fresh
// submissions) and submits it to the pool. It is the shared path of
// fresh submissions and WAL recovery; on success the job is registered
// and a watcher goroutine finishes it once its task ends.
func (s *Server) launch(j *job, rc experiment.RunConfig) error {
	class := j.class()
	s.openTrace(j, class)

	spec := j.spec
	var (
		res *JobResult // the finished run's series, handed to the watcher
		// Interval spans: a structure's wall window runs from its previous
		// estimate, replayed ones included, or from the run's start.
		runStart    time.Time
		windowStart = map[string]time.Time{}
	)
	rc.OnInterval = func(est core.Estimate) {
		pt := pointOf(est)
		if j.microtel != nil {
			cf := microtel.Interval(est.Failures, est.Injections, 0)
			pt.Confidence = &cf
		}
		// Resumed jobs replay deterministically through intervals the WAL
		// already holds; drop those so clients see each interval once.
		replayed := pt.Interval < j.skipTo[pt.Structure]
		if !replayed {
			// WAL first, then fan-out: an estimate a client saw is always
			// durable, so a crash can never un-deliver data.
			if s.st != nil {
				wal := s.spans.Start(j.trace, j.root.ID(), "wal")
				if err := s.st.AppendInterval(j.id, &pt); err != nil && !errors.Is(err, store.ErrClosed) {
					s.log.Error("persist interval", "job", j.id, "error", err)
					wal.End("error")
				} else if wal != nil {
					wal.SetJob(j.id, class.String())
					wal.End("ok")
				}
			}
			j.publish(pt, s.st != nil)
			// Each estimate also feeds the drift monitor (noise-floored by
			// its binomial stderr) and the live dashboard.
			s.observeDrift(avfStream(spec.Benchmark, pt.Structure), est.AVF, est.StdErr())
			s.hub.broadcast("estimate", estimateEvent{Job: j.id, Benchmark: spec.Benchmark, IntervalPoint: pt})
		}
		if s.spans != nil {
			end := time.Now()
			start, ok := windowStart[pt.Structure]
			if !ok {
				start = runStart
			}
			windowStart[pt.Structure] = end
			if !replayed {
				a := s.spans.StartAt(j.trace, j.root.ID(), "interval", start)
				a.SetJob(j.id, class.String())
				a.SetAttr("structure", pt.Structure)
				a.SetAttr("interval", strconv.Itoa(est.Interval))
				a.SetAttr("avf", strconv.FormatFloat(est.AVF, 'g', 6, 64))
				a.EndAt("ok", end)
			}
		}
	}
	if s.injc != nil {
		j.tracer = obs.NewJobTracer(s.injc, 0)
		rc.Sink = j.tracer
	}
	if spec.Flight {
		j.flight = flight.New(spec.FlightCap)
		rc.Recorder = j.flight
	}
	if spec.Microtel {
		// Created inside launch (not submit) so a WAL-recovered job gets a
		// fresh collector: Bind is once-per-run and the resumed run rebinds.
		j.microtel = microtel.New(microtel.Config{Metrics: s.microtelMetrics})
		rc.Microtel = j.microtel
	}

	// Durability point: the spec frame is fsync'd before the job can run,
	// so every acknowledged job survives a crash and every later frame of
	// the job follows it. The spec carries the canonical traceparent
	// openTrace wrote, which pins the trace.
	fresh := s.st != nil && !j.recorded
	if fresh {
		if err := s.st.AppendSpec(j.id, &j.spec, j.submitted); err != nil {
			s.log.Error("persist job spec", "job", j.id, "error", err)
			return fmt.Errorf("persist job: %w", err)
		}
		j.recorded = true
	}

	deadline := s.effectiveDeadline(&spec)
	// The queue span opens before Submit (its start is the enqueue
	// instant) and is closed by whoever ends the wait: the worker's
	// OnStart on dispatch, or finish when the job dies queued
	// (shed/canceled). Set under j.mu — OnStart can fire before Submit
	// returns.
	j.mu.Lock()
	j.queueSpan = s.spans.Start(j.trace, j.root.ID(), "queue")
	j.queueSpan.SetJob(j.id, class.String())
	j.mu.Unlock()
	task, err := s.pool.Submit(func(ctx context.Context, _ func(any)) error {
		// The worker thread has the task: the dispatch handoff is over,
		// the run begins.
		j.mu.Lock()
		j.dispatchSpan.End("ok")
		j.dispatchSpan = nil
		j.mu.Unlock()
		runStart = time.Now()
		run := s.spans.StartAt(j.trace, j.root.ID(), "run", runStart)
		run.SetJob(j.id, class.String())
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		r, err := experiment.RunCtx(ctx, rc)
		if err != nil {
			run.End(outcomeOf(err))
			return err
		}
		run.End("done")
		res = jobResultOf(r)
		// The finished run carries the SoftArch reference series; feed
		// the online-vs-reference gap to the divergence detectors.
		s.feedDivergence(spec.Benchmark, res)
		return nil
	}, sched.WithLabel(j.id+" "+spec.Benchmark),
		sched.WithClass(class),
		sched.WithExemplar(j.traceID()),
		sched.WithOnStart(func() {
			j.mu.Lock()
			j.queueSpan.End("ok")
			j.queueSpan = nil
			j.dispatchSpan = s.spans.Start(j.trace, j.root.ID(), "dispatch")
			j.dispatchSpan.SetJob(j.id, class.String())
			j.mu.Unlock()
			j.start()
			s.log.Info("job started", "job", j.id, "benchmark", spec.Benchmark)
		}))
	if err != nil {
		if fresh { // the job never existed: retract its spec frame
			s.logPersist("retract job spec", j.id, s.st.Evict(j.id))
		}
		return err
	}
	j.task = task
	j.watched = make(chan struct{})
	s.register(j)
	if j.cacheLead {
		// Open the flight gate only now, with the job registered and its
		// task live, and strictly before the watcher exists: followers
		// resolve into a fully observable leader, and a fast run can never
		// retire the flight before it opens (Drop would strand them).
		s.cache.Launched(j.cacheKey)
	}
	go func() {
		defer close(j.watched)
		task.Wait(context.Background())
		s.finishRun(j, task, res)
	}()
	return nil
}

// pointOf renders one estimate as its stream point.
func pointOf(est core.Estimate) IntervalPoint {
	return IntervalPoint{
		Structure:  est.Structure.String(),
		Interval:   est.Interval,
		StartCycle: est.StartCycle,
		EndCycle:   est.EndCycle,
		AVF:        est.AVF,
		Failures:   est.Failures,
		Injections: est.Injections,
	}
}

// jobResultOf renders a finished run's final series.
func jobResultOf(res *experiment.Result) *JobResult {
	jr := &JobResult{
		Benchmark: res.Benchmark,
		M:         res.M,
		N:         res.N,
		Intervals: res.Intervals,
	}
	for _, ss := range res.Series {
		jr.Series = append(jr.Series, SeriesJSON{
			Structure:   ss.Structure.String(),
			Online:      ss.Online,
			Reference:   ss.Reference,
			Utilization: ss.Utilization,
		})
	}
	return jr
}

// finishRun ends a job whose task ended, whatever the path (done,
// canceled while queued or running, failed, panicked, shed).
func (s *Server) finishRun(j *job, task *sched.Task, res *JobResult) {
	err := task.Err()
	submitted, started, finished := task.Timing()
	e := ending{kind: endRun, state: task.State().String(), outcome: outcomeOf(err),
		start: submitted, at: finished,
		// A cancel during drain is a checkpoint, not a verdict: the job's
		// interval frames are durable and the next boot resumes it.
		checkpoint: task.State() == sched.StateCanceled && s.draining.Load()}
	if err != nil {
		e.errMsg = err.Error()
	} else {
		e.result = res
	}
	if by, ok := task.ShedBy(); ok {
		e.shedBy = by.String()
	}
	s.finish(j, e)

	attrs := []any{"job", j.id, "benchmark", j.spec.Benchmark, "state", e.state,
		"total", finished.Sub(submitted).Round(time.Millisecond)}
	if !started.IsZero() {
		attrs = append(attrs, "run", finished.Sub(started).Round(time.Millisecond))
	}
	switch {
	case err == nil:
		s.log.Info("job done", attrs...)
	case task.State() == sched.StateCanceled:
		s.log.Info("job canceled", attrs...)
	case task.State() == sched.StateShed:
		s.log.Warn("job shed", append(attrs, "class", task.Class().String())...)
	default:
		s.log.Warn("job failed", append(attrs, "error", e.errMsg)...)
	}
}

// outcomeOf maps a terminal task error to the span/SLO outcome noun. A
// deadline-canceled run is its own outcome: the service ran out of
// time, which burns budget, unlike a client's own cancel.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "done"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, sched.ErrShed):
		return "shed"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return "failed"
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]jobSummary, 0, len(jobs))
	for _, j := range jobs {
		st := j.status()
		out = append(out, jobSummary{ID: st.ID, State: st.State, Benchmark: st.Benchmark, Intervals: len(st.Intervals)})
	}
	sortSummaries(out)
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if j.task != nil {
		j.task.Cancel()
	} else {
		// No task: a single-flight follower cancels by detaching from its
		// leader (which keeps running — its own client and any other
		// followers still want the result).
		s.detachFollower(j)
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.id, "state": j.currentState()})
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	// Pin against retention for the life of the stream: the janitor may
	// not evict a job a reader is attached to (satellite of the cache PR:
	// eviction under a live stream truncated it mid-read).
	j.pin()
	defer j.unpin()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	// The stream session is a span on the job's trace: how long a client
	// watched and how many estimates it absorbed.
	points := 0
	if ss := s.spans.Start(j.trace, j.root.ID(), "stream"); ss != nil {
		ss.SetJob(j.id, j.class().String())
		defer func() {
			ss.SetAttr("points", strconv.Itoa(points))
			ss.End("ok")
		}()
	}

	// Events are encoded into buf; send writes and flushes whatever is
	// buffered under one rolling deadline. A live job sends its backlog,
	// then one line per estimate so the client watches AVF evolve; a
	// finished job's whole stream goes out in a single write.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	arm := s.armStreamWrite(w)
	pending := 0 // interval events in buf
	interval := func(pt *IntervalPoint) bool {
		if err := enc.Encode(StreamEvent{Type: "interval", Interval: pt}); err != nil {
			return false
		}
		pending++
		return true
	}
	send := func() bool {
		arm()
		_, err := w.Write(buf.Bytes())
		buf.Reset()
		if err != nil {
			return false
		}
		flusher.Flush()
		points += pending
		if s.streamedPoints != nil {
			s.streamedPoints.Add(int64(pending))
		}
		pending = 0
		return true
	}

	replay, ch := j.subscribe()
	if ch != nil {
		defer j.cancelSub(ch)
	}
	for i := range replay {
		if !interval(&replay[i]) {
			return
		}
	}
	if ch != nil {
		if !send() {
			return
		}
	stream:
		for {
			select {
			case pt, ok := <-ch:
				if !ok {
					break stream
				}
				if !interval(&pt) || !send() {
					return
				}
			case <-r.Context().Done():
				return
			}
		}
	}
	j.mu.Lock()
	end := StreamEvent{Type: "end", State: j.state, Error: j.errMsg}
	j.mu.Unlock()
	if enc.Encode(end) == nil {
		send()
	}
}

// serveNDJSON serves one of a job's NDJSON snapshot endpoints: 404 for
// an unknown job, or with offMsg when the surface is off for it;
// otherwise it pins the job against retention for the response and
// sends write's output in one bulk write under a single rolling
// deadline.
func (s *Server) serveNDJSON(w http.ResponseWriter, r *http.Request, offMsg string, on func(*job) bool, write func(io.Writer, *job)) {
	j := s.lookup(r)
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if !on(j) {
		writeError(w, http.StatusNotFound, "%s", offMsg)
		return
	}
	j.pin()
	defer j.unpin()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	s.armStreamWrite(w)()
	write(w, j)
}

// handleTrace serves the job's injection-lifecycle trace as NDJSON:
// one record per concluded injection (structure, entry, inject cycle,
// outcome, propagation latency, failure instruction class). The trace
// is a snapshot — safe to fetch while the job still runs.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.serveNDJSON(w, r, "injection tracing disabled (server built without metrics)",
		func(j *job) bool { return j.tracer != nil },
		func(w io.Writer, j *job) { j.tracer.WriteNDJSON(w) })
}

// class resolves the job's SLO tier. Recovery re-derives it from the
// persisted spec, so a class this build no longer knows falls back to
// standard rather than orphaning the job.
func (j *job) class() sched.Class {
	c, err := j.spec.class()
	if err != nil {
		return sched.ClassStandard
	}
	return c
}

// handleSpans serves the job's retained request spans as NDJSON, one
// span per line, sorted by start time.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	s.serveNDJSON(w, r, "span recording disabled (server built without WithSpans)",
		func(*job) bool { return s.spans != nil },
		func(w io.Writer, j *job) { span.WriteNDJSON(w, s.spans.ForJob(j.id)) })
}

// handleCoverage serves the job's microarchitectural telemetry as
// NDJSON: a summary line (reconciling exactly with the concluded
// injection counts in the job status), per-structure occupancy/coverage/
// confidence lines, nonzero (structure × entry) and (structure ×
// cycle-bucket) outcome lines, and per-lane utilization.
func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	s.serveNDJSON(w, r, `microarchitectural telemetry disabled (submit with "microtel": true)`,
		func(j *job) bool { return j.microtel != nil },
		func(w io.Writer, j *job) { j.microtel.WriteNDJSON(w) })
}

// handleOccupancy serves the aggregate occupancy/coverage surface:
// per-structure snapshots merged across every job running with
// microtel (live and finished, within retention).
func (s *Server) handleOccupancy(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.occupancy())
}

// occupancy merges the telemetry of every job running with microtel.
func (s *Server) occupancy() map[string]any {
	s.mu.Lock()
	var snaps []*microtel.Snapshot
	for _, j := range s.jobs {
		if j.microtel != nil && j.microtel.Enabled() {
			snaps = append(snaps, j.microtel.Snapshot())
		}
	}
	s.mu.Unlock()
	merged := microtel.MergeSnapshots(snaps)
	return map[string]any{
		"jobs":       len(snaps),
		"samples":    merged.Samples,
		"concluded":  merged.Concluded,
		"totals":     merged.Totals,
		"structures": merged.Structures,
	}
}

// handleTraces serves trace summaries, newest first. Query params:
// min_dur (seconds, float), class, state filter; limit bounds the
// result (default 100).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.spans == nil {
		writeError(w, http.StatusNotFound, "span recording disabled (server built without WithSpans)")
		return
	}
	q := r.URL.Query()
	var minDur float64
	if v := q.Get("min_dur"); v != "" {
		d, err := strconv.ParseFloat(v, 64)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, "bad min_dur %q", v)
			return
		}
		minDur = d
	}
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	traces := s.spans.Traces(minDur, q.Get("class"), q.Get("state"), limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"traces":  traces,
		"spans":   s.spans.Len(),
		"dropped": s.spans.Dropped(),
	})
}

// handleSLO serves the per-class error-budget snapshot: rolling 5m/1h
// windows, burn rates against the page/ticket thresholds, remaining
// budget, and the recent budget-burning jobs with their trace IDs.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if s.slo == nil {
		writeError(w, http.StatusNotFound, "SLO accounting disabled (server built without WithSLO)")
		return
	}
	writeJSON(w, http.StatusOK, s.slo.Snapshot())
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"metrics": s.reg.Snapshot()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsPayload())
}

// statsPayload builds the /v1/stats body (also embedded in the SSE
// dashboard's periodic state events). The scheduler block carries the
// approximate queue/run latency quantiles when metrics are wired.
func (s *Server) statsPayload() map[string]any {
	s.mu.Lock()
	census := map[string]int{}
	for _, j := range s.jobs {
		census[j.currentState()]++
	}
	total := len(s.jobs)
	s.mu.Unlock()
	flightDrops, traceDrops := s.dropTotals()
	ps := s.pool.Stats()
	var saturation float64
	if ps.QueueCap > 0 {
		saturation = float64(ps.Queued) / float64(ps.QueueCap)
	}
	out := map[string]any{
		"scheduler": ps,
		// Queue depth AND capacity, explicitly paired so clients can
		// compute saturation without digging through scheduler fields.
		"queue": map[string]any{
			"depth":      ps.Queued,
			"capacity":   ps.QueueCap,
			"saturation": saturation,
		},
		// Per-SLO-class occupancy and lifecycle counters (also embedded in
		// the scheduler block; surfaced here so load generators can read
		// shed/queue pressure per tier without digging).
		"classes": ps.Classes,
		"jobs":    map[string]any{"total": total, "by_state": census},
		"drift":   map[string]any{"total_alarms": s.drift.TotalAlarms()},
		// Every bounded telemetry buffer's shed count, in one place: how
		// much the flight rings, injection-trace rings, and span ring have
		// dropped under pressure across retained jobs.
		"drops": map[string]any{
			"flight_events": flightDrops,
			"trace_records": traceDrops,
			"spans":         s.spans.Dropped(),
		},
	}
	if occ := s.occupancy(); occ["jobs"] != 0 {
		out["microtel"] = occ
	}
	if s.spans != nil {
		out["spans"] = map[string]any{
			"retained": s.spans.Len(),
			"total":    s.spans.Total(),
			"dropped":  s.spans.Dropped(),
		}
	}
	if s.slo != nil {
		out["slo"] = s.slo.Snapshot()
	}
	if s.st != nil {
		out["store"] = map[string]any{
			"dir":       s.st.Dir(),
			"wal_bytes": s.st.WALBytes(),
			"seq":       s.st.Seq(),
		}
	}
	if s.cache != nil {
		cst := s.cache.Stats()
		cblock := map[string]any{
			"entries":                cst.Entries,
			"inflight":               cst.Inflight,
			"hits":                   cst.Hits,
			"misses":                 cst.Misses,
			"singleflight_followers": cst.Followers,
			"evicted":                cst.Evicted,
		}
		var ratio float64
		if cst.Hits+cst.Misses > 0 {
			ratio = float64(cst.Hits) / float64(cst.Hits+cst.Misses)
		}
		cblock["hit_ratio"] = ratio
		if q := s.cacheMetrics.HitLatency(); q != nil {
			cblock["hit_latency_seconds"] = q
		}
		out["cache"] = cblock
	}
	return out
}

// jobSummary is one row of GET /v1/jobs.
type jobSummary struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Benchmark string `json:"benchmark"`
	Intervals int    `json:"intervals_done"`
}

// sortSummaries orders job summaries by submission (ids are "job-N", so
// shorter ids sort first, ties broken lexically — numeric order).
func sortSummaries(xs []jobSummary) {
	sort.Slice(xs, func(i, k int) bool {
		a, b := xs[i].ID, xs[k].ID
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
}
