package server

// Recovery and retention: rebuilding the job table from the WAL after a
// restart (terminal jobs restored read-only, unfinished jobs resumed by
// deterministic re-execution) and bounding the job history (TTL +
// max-completed cap).

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"avfsim/internal/span"
)

// Recover rebuilds the job table from the store after a restart. Call
// it once, after New and before serving traffic:
//
//   - jobs with a terminal frame (done/failed/canceled/shed) are
//     restored read-only — status, intervals, final series and span
//     summary all come back from the WAL;
//   - jobs without one (queued, running, or canceled by a drain at
//     shutdown) are re-enqueued. The simulator is a pure function of
//     (spec, seed), so the resumed run re-executes from cycle 0 with
//     emission suppressed below the checkpoint: clients see intervals
//     k..N byte-identical to an uninterrupted run, each exactly once;
//   - jobs whose spec no longer parses (or whose resubmission fails)
//     are marked failed rather than silently dropped.
//
// Recover never returns an error for individual bad jobs — only the
// count of re-enqueued runs; per-job failures are logged and orphaned.
func (s *Server) Recover() (resumed int, err error) {
	if s.st == nil {
		return 0, nil
	}
	// The result cache rebuilds first so recovered duplicates can restore
	// from it instead of re-running.
	s.recoverCacheEntries()
	for _, jr := range s.st.Jobs() {
		j := newJob(jr.ID, JobSpec{}, jr.Submitted)
		j.recorded = true
		s.bumpSeq(jr.ID)

		var spec JobSpec
		if e := json.Unmarshal(jr.Spec, &spec); e != nil {
			s.orphan(j, fmt.Sprintf("recover: bad persisted spec: %v", e))
			continue
		}
		j.spec = spec

		// Preload the persisted per-interval estimates so status/stream
		// replay serves them immediately, and derive the per-structure
		// resume floor (interval count already durable).
		skipTo := map[string]int{}
		badPoint := false
		for _, raw := range jr.Intervals {
			var pt IntervalPoint
			if e := json.Unmarshal(raw, &pt); e != nil {
				badPoint = true
				break
			}
			j.points = append(j.points, pt)
			if pt.Interval+1 > skipTo[pt.Structure] {
				skipTo[pt.Structure] = pt.Interval + 1
			}
		}
		j.walPoints = len(j.points)
		if badPoint {
			s.orphan(j, "recover: corrupt persisted interval record")
			continue
		}

		// Trace continuity: the persisted traceparent pins the trace ID
		// (status keeps answering with it), and a terminal job's span
		// summary re-seeds the span ring so /v1/jobs/{id}/spans and
		// /v1/traces keep serving across restarts.
		if s.spans != nil {
			if t, _, _, e := span.ParseTraceparent(spec.Traceparent); e == nil {
				j.trace = t
			}
			if jr.Terminal() && jr.Trace != nil {
				var spans []span.Span
				if e := json.Unmarshal(jr.Trace, &spans); e == nil {
					for _, sp := range spans {
						s.spans.Record(sp)
					}
				}
			}
		}

		if jr.Terminal() {
			var res *JobResult
			if jr.Result != nil {
				res = new(JobResult)
				if json.Unmarshal(jr.Result, res) != nil {
					res = nil
				}
			}
			s.finish(j, ending{kind: endRestore, state: jr.State, errMsg: jr.Error, result: res, at: jr.Updated})
			s.register(j)
			continue
		}

		rc, e := spec.runConfig()
		if e != nil {
			s.orphan(j, fmt.Sprintf("recover: spec no longer valid: %v", e))
			continue
		}
		// Recovered jobs route through the cache like fresh submissions:
		// an already-completed identical run (this boot or persisted)
		// restores this job terminal, an identical relaunched run absorbs
		// it as a follower, and otherwise it leads.
		if !s.recoverThroughCache(j) {
			j.skipTo = skipTo
			if e := s.launch(j, rc); e != nil {
				if j.cacheLead {
					s.cache.Abort(j.cacheKey, e)
				}
				s.orphan(j, fmt.Sprintf("recover: resubmit: %v", e))
				continue
			}
			s.log.Info("job recovered", "job", j.id, "benchmark", spec.Benchmark,
				"persisted_intervals", len(jr.Intervals))
		}
		resumed++
		if s.recoveredJobs != nil {
			s.recoveredJobs.Inc()
		}
	}
	s.sweepRetention(time.Now())
	return resumed, nil
}

// orphan ends a recovered job that cannot be resumed as terminally
// failed (visible in listings with its error, rather than vanishing).
func (s *Server) orphan(j *job, msg string) {
	s.finish(j, ending{kind: endOrphan, state: "failed", errMsg: msg})
	s.register(j)
	s.log.Warn("job orphaned", "job", j.id, "error", msg)
}

// bumpSeq advances the id allocator past a recovered "job-N" id so
// fresh submissions never collide with restored jobs.
func (s *Server) bumpSeq(id string) {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, "job-"), 10, 64)
	if err != nil {
		return
	}
	s.mu.Lock()
	if n > s.seq {
		s.seq = n
	}
	s.mu.Unlock()
}

// janitorPeriod is how often retention sweeps run between job
// completions (which also trigger a sweep).
const janitorPeriod = 30 * time.Second

func (s *Server) janitor() {
	t := time.NewTicker(janitorPeriod)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			s.sweepRetention(now)
		case <-s.janitorStop:
			return
		}
	}
}

// sweepRetention evicts terminal jobs past the TTL or beyond the
// newest retMax, from both the in-memory table and the store. Running
// jobs are never touched, and the count cap spares a job no request has
// looked up until janitorPeriod after it ended.
func (s *Server) sweepRetention(now time.Time) {
	if s.retTTL <= 0 && s.retMax <= 0 {
		return
	}
	type fin struct {
		j  *job
		at time.Time
	}
	s.mu.Lock()
	done := make([]fin, 0, len(s.jobs))
	for _, j := range s.jobs {
		j.mu.Lock()
		// streamRefs > 0 pins the job: a reader is mid-replay on one of
		// its NDJSON endpoints, and evicting underneath it would truncate
		// the stream. The next sweep collects it once the reader detaches.
		if terminal(j.state) && j.streamRefs == 0 {
			done = append(done, fin{j, j.finishedAt})
		}
		j.mu.Unlock()
	}
	sort.Slice(done, func(i, k int) bool { return done[i].at.After(done[k].at) })
	var evict []*job
	for i, f := range done {
		switch {
		case s.retTTL > 0 && now.Sub(f.at) > s.retTTL:
			evict = append(evict, f.j)
		case s.retMax > 0 && i >= s.retMax && (f.j.lookedUp || now.Sub(f.at) > janitorPeriod):
			evict = append(evict, f.j)
		}
	}
	for _, j := range evict {
		delete(s.jobs, j.id)
	}
	retained := len(s.jobs)
	s.mu.Unlock()

	for _, j := range evict {
		if s.st != nil {
			s.logPersist("evict from store", j.id, s.st.Evict(j.id))
		}
		if s.evictedJobs != nil {
			s.evictedJobs.Inc()
		}
		// Debug per job, like the hit path: under a hit flood an Info line
		// per evicted job would flood the log.
		s.log.Debug("job evicted", "job", j.id, "finished", j.finishedAt)
	}
	if len(evict) > 0 {
		s.log.Info("retention sweep", "evicted", len(evict), "retained", retained)
	}
}
