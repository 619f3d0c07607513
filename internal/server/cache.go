package server

// Content-addressed result cache wiring: the simulator is a pure
// function of its canonical spec, so a duplicate submission replays the
// original run's interval stream byte-identically instead of
// re-executing it, and concurrent identical submissions collapse onto
// one simulation (single-flight). Hits and followers never touch the
// scheduler — duplicates are served even when the queue is saturated.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"avfsim/internal/cache"
	"avfsim/internal/obs"
	"avfsim/internal/sched"
)

// cacheValue is one cached terminal run: the leader's job ID (surfaced
// in hit statuses), the full interval series, and the final estimates.
// Values are shared across jobs and must be treated as immutable.
type cacheValue struct {
	Leader string          `json:"leader"`
	Points []IntervalPoint `json:"points"`
	Result *JobResult      `json:"result"`

	// once builds the entry's NDJSON stream (see stream); it is never
	// persisted.
	once   sync.Once
	ndjson []byte
	encErr error
}

// stream is the NDJSON stream of every job served from the entry: its
// points' interval lines, then the done end line. It is encoded on
// first use and shared read-only, so a hit's stream costs one write of
// bytes that already exist.
func (v *cacheValue) stream() ([]byte, error) {
	v.once.Do(func() {
		var buf bytes.Buffer
		v.encErr = appendStream(&buf, v.Points, &StreamEvent{Type: "end", State: "done"})
		v.ndjson = buf.Bytes()
	})
	return v.ndjson, v.encErr
}

// cacheMode classifies a spec's cache participation.
type cacheMode int

const (
	// cacheBypass: microtel runs annotate every estimate with confidence
	// intervals, so their stream is not byte-identical to a plain run's —
	// they neither consult nor populate the cache.
	cacheBypass cacheMode = iota
	// cachePopulate: flight-recorded runs need a live execution (the
	// propagation traces exist only then), but recording is observation
	// only — the estimate series is canonical, so the run still feeds
	// the cache on success.
	cachePopulate
	// cacheFull: hit, collapse, or lead.
	cacheFull
)

func cacheModeOf(spec *JobSpec) cacheMode {
	switch {
	case spec.Microtel:
		return cacheBypass
	case spec.Flight:
		return cachePopulate
	default:
		return cacheFull
	}
}

// cacheKeyOf is the normalization pass from wire spec to content
// address: only the simulation-relevant fields project into the
// canonical form (presentation fields — flight, flight_cap, microtel,
// deadline_seconds, slo_class, traceparent — change how a run is
// observed or scheduled, never its estimates), and defaults materialize
// inside Canonical.Key so terse and fully-spelled specs hash alike.
func cacheKeyOf(spec *JobSpec) cache.Key {
	return cache.Canonical{
		Benchmark:      spec.Benchmark,
		Scale:          spec.Scale,
		Seed:           spec.Seed,
		M:              spec.M,
		N:              spec.N,
		Intervals:      spec.Intervals,
		Structures:     spec.Structures,
		Window:         spec.Window,
		RandomEntry:    spec.RandomEntry,
		RandomSchedule: spec.RandomSchedule,
		Multiplex:      spec.Multiplex,
		Lanes:          spec.Lanes,
	}.Key()
}

// WithResultCache attaches the content-addressed result cache, holding
// at most maxEntries completed runs (<= 0: unbounded). Cache-served
// jobs (hits and single-flight followers) keep their own job ID, span,
// and SLO accounting but are not individually persisted — their durable
// truth is the leader's job record plus the cache entry itself.
func WithResultCache(maxEntries int) Option {
	return func(s *Server) { s.cache = cache.New(maxEntries) }
}

// registerCacheMetrics mirrors the cache into the registry (New calls
// it once registry and cache are both known, whatever the option order).
func (s *Server) registerCacheMetrics() {
	if s.reg == nil || s.cache == nil {
		return
	}
	s.cacheMetrics = obs.NewCacheMetrics(s.reg, func() obs.CacheCounters {
		st := s.cache.Stats()
		return obs.CacheCounters{
			Hits: st.Hits, Misses: st.Misses, Followers: st.Followers,
			Evicted: st.Evicted, Entries: st.Entries, Inflight: st.Inflight,
		}
	})
}

// serveCacheHit finishes a submission entirely from the cache: the job
// is born terminal with the cached points and result, replaying the
// original NDJSON stream byte-identically, in microseconds. It writes
// nothing to the store.
func (s *Server) serveCacheHit(w http.ResponseWriter, j *job, v *cacheValue, class sched.Class, admitStart time.Time) {
	s.openTrace(j, class)
	s.admitted(j, class, admitStart, "ok")
	j.root.SetAttr("cache", "hit")
	j.root.SetAttr("cache_leader", v.Leader)
	s.finishFromCache(j, v, ending{kind: endHit, start: admitStart})
	s.pool.NoteBypass(class)
	s.cacheMetrics.ObserveHit(time.Since(admitStart).Seconds())

	// Debug level: at consumer-scale duplicate traffic this is the
	// common case, and an Info line per hit would out-write the WAL.
	s.log.Debug("job served from cache", "job", j.id, "leader", v.Leader)
	resp := map[string]any{"id": j.id, "state": "done", "cached": true, "cache_leader": v.Leader}
	if tid := j.traceID(); tid != "" {
		resp["trace_id"] = tid
		w.Header().Set("traceparent", j.spec.Traceparent)
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// serveFollower attaches a submission to an identical in-flight run.
// The follower keeps its own job ID, span, and SLO accounting; the
// leader's live stream fans into it, and the leader's terminal
// transition finishes it.
func (s *Server) serveFollower(w http.ResponseWriter, j *job, fl *cache.Flight, class sched.Class, admitStart time.Time) {
	s.openTrace(j, class)
	if err := fl.Resolve(); err != nil {
		// The leader never launched: the same admission verdict (queue
		// full, shutdown) applies to an identical spec submitted at the
		// same instant.
		s.writeAdmissionError(w, j, class, admitStart, err)
		return
	}
	leader, ok := fl.Leader.(*job)
	if !ok || leader == nil {
		s.finishRejected(j, class, admitStart)
		writeError(w, http.StatusInternalServerError, "single-flight leader unavailable")
		return
	}

	s.admitted(j, class, admitStart, "ok")
	s.attachFollower(j, leader)
	s.pool.NoteBypass(class)
	s.register(j)

	s.log.Debug("job collapsed onto in-flight run", "job", j.id, "leader", leader.id)
	resp := map[string]any{"id": j.id, "state": j.currentState(), "singleflight": true, "cache_leader": leader.id}
	if tid := j.traceID(); tid != "" {
		resp["trace_id"] = tid
		w.Header().Set("traceparent", j.spec.Traceparent)
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// attachFollower joins j to leader's live run — or finishes it with the
// leader's outcome when the leader ended between flight resolution and
// here.
func (s *Server) attachFollower(j, leader *job) {
	j.root.SetAttr("cache", "follow")
	j.root.SetAttr("cache_leader", leader.id)
	leader.mu.Lock()
	pts := append([]IntervalPoint(nil), leader.points...)
	if terminal(leader.state) {
		e := ending{kind: endFollower, state: leader.state, errMsg: leader.errMsg, result: leader.result}
		leader.mu.Unlock()
		j.mu.Lock()
		j.cacheLeader, j.points = leader.id, pts
		j.mu.Unlock()
		s.finish(j, e)
		return
	}
	j.mu.Lock()
	j.cacheLeader, j.points, j.state, j.leader = leader.id, pts, leader.state, leader
	j.mu.Unlock()
	leader.followers = append(leader.followers, j)
	leader.mu.Unlock()
}

// detachFollower handles DELETE on a follower: it detaches from the
// leader (which keeps running — other followers and the leader's own
// client still want it) and goes terminal canceled. Removal from the
// leader's list is the ownership point racing the leader's finish.
func (s *Server) detachFollower(f *job) {
	f.mu.Lock()
	l := f.leader
	f.mu.Unlock()
	if l == nil {
		return
	}
	l.mu.Lock()
	removed := false
	for i, x := range l.followers {
		if x == f {
			l.followers = append(l.followers[:i], l.followers[i+1:]...)
			removed = true
			break
		}
	}
	l.mu.Unlock()
	if removed { // otherwise the leader's finish owns this follower
		s.finish(f, ending{kind: endFollower, state: "canceled"})
	}
}

// settleCache resolves a leader's (or populate-only run's) cache
// obligations at terminal: done runs publish their value durably;
// anything else drops the flight so the next identical submission
// re-runs.
func (s *Server) settleCache(j *job, e *ending) {
	if s.cache == nil || (!j.cacheLead && !j.cachePopulate) {
		return
	}
	// A done task without a result cannot be replayed faithfully.
	if e.state != "done" || e.result == nil {
		if j.cacheLead {
			s.cache.Drop(j.cacheKey)
		}
		return
	}
	j.mu.Lock()
	v := &cacheValue{
		Leader: j.id,
		Points: append([]IntervalPoint(nil), j.points...),
		Result: e.result,
	}
	j.mu.Unlock()
	var evicted []cache.Key
	if j.cacheLead {
		evicted = s.cache.Complete(j.cacheKey, v)
	} else {
		evicted = s.cache.Put(j.cacheKey, v)
	}
	if s.st != nil {
		s.logPersist("persist cache entry", j.id, s.st.AppendCacheResult(j.cacheKey.String(), v))
		for _, k := range evicted {
			s.logPersist("evict cache entry", k.String(), s.st.EvictCacheEntry(k.String()))
		}
	}
}

// writeAdmissionError maps a launch failure to its HTTP response and
// closes the job's trace as rejected (shared between the leader path in
// handleSubmit and followers inheriting the leader's verdict).
func (s *Server) writeAdmissionError(w http.ResponseWriter, j *job, class sched.Class, admitStart time.Time, err error) {
	s.finishRejected(j, class, admitStart)
	switch {
	case errors.Is(err, sched.ErrQueueFull):
		// Backpressure: the client should retry after the queue drains a
		// slot; 429 is the load-shedding signal (503 stays reserved for
		// shutdown, where retrying the same instance is pointless). The
		// retry horizon is class-dependent: background tiers are asked to
		// back off longer so interactive traffic sees the freed slots.
		ps := s.pool.Stats()
		retry := retryAfterSeconds(class)
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":               "queue full",
			"queue_depth":         ps.Queued,
			"queue_capacity":      ps.QueueCap,
			"slo_class":           class.String(),
			"retry_after_seconds": retry,
			"trace_id":            j.traceID(),
		})
	case errors.Is(err, sched.ErrShutdown):
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
	default:
		writeError(w, http.StatusInternalServerError, "submit: %v", err)
	}
}

// pin/unpin bracket an attached NDJSON reader: retention defers
// evicting a job while streamRefs is nonzero, so a live reader can
// finish its replay even when the janitor would otherwise collect the
// job (TTL expiry or the max-completed cap under a hit flood).
func (j *job) pin() {
	j.mu.Lock()
	j.streamRefs++
	j.mu.Unlock()
}

func (j *job) unpin() {
	j.mu.Lock()
	j.streamRefs--
	j.mu.Unlock()
}

// recoverCacheEntries rebuilds the result cache from the store's
// persisted entries (Recover calls it before walking the job table, so
// recovered duplicates can restore from cache instead of re-running).
func (s *Server) recoverCacheEntries() {
	if s.cache == nil || s.st == nil {
		return
	}
	n := 0
	for _, ce := range s.st.CacheEntries() {
		k, err := cache.ParseKey(ce.Key)
		if err != nil {
			s.log.Warn("recover: bad cache key", "key", ce.Key, "error", err)
			continue
		}
		var v cacheValue
		if err := json.Unmarshal(ce.Value, &v); err != nil {
			s.log.Warn("recover: bad cache value", "key", ce.Key, "error", err)
			continue
		}
		for _, ev := range s.cache.Put(k, &v) {
			s.logPersist("evict cache entry", ev.String(), s.st.EvictCacheEntry(ev.String()))
		}
		n++
	}
	if n > 0 {
		s.log.Info("result cache recovered", "entries", n)
	}
}

// recoverThroughCache routes a recovered unfinished job through the
// cache exactly like a fresh submission — Recover walks jobs in
// submission order, so duplicates restore from the cache (hit) or
// collapse onto the already-relaunched identical run (follower) instead
// of re-executing. Returns true when the job was fully served and must
// not launch. Either way the job ends through finish, which persists the
// points the WAL lacks and its terminal frame.
func (s *Server) recoverThroughCache(j *job) bool {
	if s.cache == nil {
		return false
	}
	switch cacheModeOf(&j.spec) {
	case cacheBypass:
		return false
	case cachePopulate:
		j.cacheKey = cacheKeyOf(&j.spec)
		j.cachePopulate = true
		return false
	}
	j.cacheKey = cacheKeyOf(&j.spec)
	for {
		switch out := s.cache.Begin(j.cacheKey, j.id, j); {
		case out.Hit:
			s.restoreFromCache(j, out.Value.(*cacheValue))
			return true
		case out.Flight != nil:
			if out.Flight.Resolve() != nil {
				continue // that leader never launched; re-elect
			}
			leader, ok := out.Flight.Leader.(*job)
			if !ok || leader == nil {
				continue
			}
			s.openTrace(j, j.class())
			s.attachFollower(j, leader)
			s.register(j)
			s.log.Info("recovered job collapsed onto identical run",
				"job", j.id, "leader", leader.id)
			return true
		default:
			j.cacheLead = true
			return false
		}
	}
}

// restoreFromCache finishes a recovered job directly from a cached
// value. The job's persisted points are a prefix of the cached series
// (the simulator is deterministic), so finish appends the frames the
// crash cut off, then the terminal frame.
func (s *Server) restoreFromCache(j *job, v *cacheValue) {
	s.finishFromCache(j, v, ending{kind: endCacheRestore})
	s.log.Info("job recovered from result cache",
		"job", j.id, "leader", v.Leader, "intervals", len(v.Points))
}

// finishFromCache ends a job not yet registered with a cached run's
// series, then registers it: the job is born terminal.
func (s *Server) finishFromCache(j *job, v *cacheValue, e ending) {
	j.points, j.entry, j.cacheLeader = v.Points, v, v.Leader
	e.state, e.result = "done", v.Result
	s.finish(j, e)
	s.register(j)
}

// sweepBatch triggers an asynchronous retention sweep once this many
// cache-served jobs finished since the last one; the periodic janitor
// remains the floor. Keeps the hit path O(1) while bounding job-table
// growth between janitor ticks at 10k+ duplicate submits/sec.
const sweepBatch = 1024

func (s *Server) maybeSweep() {
	if s.retTTL <= 0 && s.retMax <= 0 {
		return
	}
	if s.pendingSweep.Add(1) < sweepBatch {
		return
	}
	s.pendingSweep.Store(0)
	if !s.sweeping.CompareAndSwap(false, true) {
		return
	}
	go func() {
		s.sweepRetention(time.Now())
		s.sweeping.Store(false)
	}()
}
