package server

// Tests for the content-addressed result cache: spec canonicalization
// (satellite: default-valued fields collapse to one key), byte-identical
// hit replay, single-flight collapsing under concurrency, follower
// cancel semantics, retention pinning, and cache recovery across a
// restart.

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"avfsim/internal/obs"
	"avfsim/internal/sched"
)

func newCacheServer(t *testing.T, workers, queueCap int, opts ...Option) (*httptest.Server, *Server, *sched.Pool) {
	t.Helper()
	reg := obs.NewRegistry()
	pool := sched.New(sched.Options{Workers: workers, QueueCap: queueCap, Metrics: reg})
	opts = append([]Option{
		WithMetrics(reg),
		WithResultCache(0),
		WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
	}, opts...)
	srv := New(pool, opts...)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.CancelAll()
		pool.Shutdown(context.Background())
		srv.Close()
	})
	return ts, srv, pool
}

// postJobAny submits a spec and decodes the full response (the string
// helper in server_test.go chokes on the hit path's boolean fields).
func postJobAny(t *testing.T, ts *httptest.Server, body string) (map[string]any, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return out, resp.StatusCode
}

func streamBytes(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// specKey computes the cache key of a JSON spec (decode through the
// same wire path submissions take).
func specKey(t *testing.T, body string) string {
	t.Helper()
	var spec JobSpec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatalf("bad spec %q: %v", body, err)
	}
	return cacheKeyOf(&spec).String()
}

// TestCacheKeySpecEquivalence is the canonicalization table: specs that
// differ only in presentation (explicit defaults, omitted zero fields,
// scheduling/observability knobs) share a key; specs that differ in
// anything the estimate series depends on never do.
func TestCacheKeySpecEquivalence(t *testing.T) {
	const base = `{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":50,"intervals":3}`
	equivalent := []string{
		// Spelled-out defaults: lanes 1 is the classic estimator (pinned
		// byte-identical to lanes 0 by the golden-digest gate), and the
		// four paper structures are the default monitored set.
		`{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":50,"intervals":3,"lanes":1,"structures":["iq","reg","fxu","fpu"]}`,
		// seed 0 explicit vs. omitted (json omitempty drops it either way;
		// the canonical form must not care).
		`{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":50,"intervals":3,"lanes":0}`,
		// Presentation and scheduling fields never reach the key: the
		// estimate series is untouched by recording, deadlines, SLO class,
		// or trace context.
		`{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":50,"intervals":3,"flight":true,"flight_cap":64}`,
		`{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":50,"intervals":3,"deadline_seconds":30,"slo_class":"batch"}`,
		`{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":50,"intervals":3,"traceparent":"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"}`,
	}
	for _, spec := range equivalent {
		if specKey(t, spec) != specKey(t, base) {
			t.Errorf("spec should share the base key but does not:\n%s", spec)
		}
	}
	// Explicit seed 0 and omitted seed are the same run.
	if specKey(t, `{"benchmark":"mesa","seed":0}`) != specKey(t, `{"benchmark":"mesa"}`) {
		t.Error("seed 0 vs omitted seed changed the key")
	}
	// Terse default spec vs. every default spelled out.
	if specKey(t, `{"benchmark":"mesa"}`) !=
		specKey(t, `{"benchmark":"mesa","scale":1.0,"m":1000,"n":1000,"intervals":10,"lanes":1,"structures":["iq","reg","fxu","fpu"]}`) {
		t.Error("terse spec vs spelled-out defaults changed the key")
	}

	different := []string{
		`{"benchmark":"art","scale":0.02,"seed":3,"m":400,"n":50,"intervals":3}`,
		`{"benchmark":"bzip2","scale":0.02,"seed":4,"m":400,"n":50,"intervals":3}`,
		`{"benchmark":"bzip2","scale":0.5,"seed":3,"m":400,"n":50,"intervals":3}`,
		`{"benchmark":"bzip2","scale":0.02,"seed":3,"m":500,"n":50,"intervals":3}`,
		`{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":60,"intervals":3}`,
		`{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":50,"intervals":4}`,
		`{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":50,"intervals":3,"window":64}`,
		`{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":50,"intervals":3,"random_entry":true}`,
		`{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":50,"intervals":3,"random_schedule":true}`,
		`{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":50,"intervals":3,"multiplex":true}`,
		`{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":50,"intervals":3,"lanes":16}`,
		`{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":50,"intervals":3,"structures":["iq"]}`,
		// Structure order is positional in the result series: a reorder is
		// a different run.
		`{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":50,"intervals":3,"structures":["fpu","fxu","reg","iq"]}`,
	}
	seen := map[string]string{specKey(t, base): base}
	for _, spec := range different {
		k := specKey(t, spec)
		if prev, dup := seen[k]; dup {
			t.Errorf("distinct specs collided:\n%s\n%s", prev, spec)
		}
		seen[k] = spec
	}
}

// TestCacheHitReplaysByteIdentical: a duplicate submission (exact or an
// equivalently-spelled spec) returns a completed job immediately whose
// NDJSON stream is byte-for-byte the original's, for the classic and
// the lanes=16 estimator alike.
func TestCacheHitReplaysByteIdentical(t *testing.T) {
	specs := map[string]struct{ first, dup string }{
		"classic": {
			first: tinyJob,
			dup:   `{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":50,"intervals":3,"lanes":1,"structures":["iq","reg","fxu","fpu"]}`,
		},
		"lanes16": {
			first: `{"benchmark":"bzip2","scale":0.02,"seed":9,"m":400,"n":50,"intervals":3,"lanes":16}`,
			dup:   `{"benchmark":"bzip2","scale":0.02,"seed":9,"m":400,"n":50,"intervals":3,"lanes":16}`,
		},
	}
	for name, tc := range specs {
		t.Run(name, func(t *testing.T) {
			ts, _, pool := newCacheServer(t, 2, 8)
			out, code := postJobAny(t, ts, tc.first)
			if code != http.StatusAccepted {
				t.Fatalf("submit: code=%d", code)
			}
			id1 := out["id"].(string)
			if st := waitTerminal(t, ts, id1, 30*time.Second); st.State != "done" {
				t.Fatalf("first run state = %q (%s)", st.State, st.Error)
			}
			// The cache entry lands in the watcher after the terminal state
			// is visible; wait until a duplicate actually hits.
			deadline := time.Now().Add(10 * time.Second)
			var hit map[string]any
			for {
				out, code := postJobAny(t, ts, tc.dup)
				if code != http.StatusAccepted {
					t.Fatalf("dup submit: code=%d", code)
				}
				if out["cached"] == true {
					hit = out
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("duplicate never served from cache: %+v", out)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if hit["state"] != "done" || hit["cache_leader"] != id1 {
				t.Fatalf("hit response = %+v, want done / leader %s", hit, id1)
			}
			id2 := hit["id"].(string)
			if id2 == id1 {
				t.Fatal("hit job must keep its own ID")
			}

			st2 := getStatus(t, ts, id2)
			if st2.State != "done" || !st2.Cached || st2.CacheLeader != id1 || st2.Result == nil {
				t.Fatalf("hit status = %+v", st2)
			}
			if b1, b2 := streamBytes(t, ts, id1), streamBytes(t, ts, id2); b1 != b2 {
				t.Fatalf("cached replay not byte-identical:\nlen %d vs %d", len(b1), len(b2))
			}
			// Exactly one simulation executed; the duplicate bypassed the
			// scheduler entirely.
			if ps := pool.Stats(); ps.Submitted != 1 || ps.Bypassed < 1 {
				t.Fatalf("pool stats = %+v, want Submitted 1 / Bypassed >= 1", ps)
			}
		})
	}
}

// TestCacheStatsAndMetrics: the cache block of /v1/stats and the
// avfd_cache_* Prometheus families reconcile with the submissions made.
func TestCacheStatsAndMetrics(t *testing.T) {
	ts, _, _ := newCacheServer(t, 2, 8)
	out, _ := postJobAny(t, ts, tinyJob)
	waitTerminal(t, ts, out["id"].(string), 30*time.Second)
	deadline := time.Now().Add(10 * time.Second)
	hits := 0
	for hits < 2 {
		if out, _ := postJobAny(t, ts, tinyJob); out["cached"] == true {
			hits++
		} else if time.Now().After(deadline) {
			t.Fatal("duplicates never hit")
		}
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Cache struct {
			Entries    int     `json:"entries"`
			Hits       int64   `json:"hits"`
			Misses     int64   `json:"misses"`
			Followers  int64   `json:"singleflight_followers"`
			HitRatio   float64 `json:"hit_ratio"`
			HitLatency *struct {
				Count int64 `json:"count"`
			} `json:"hit_latency_seconds"`
		} `json:"cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	c := stats.Cache
	// Dup submissions that raced the watcher count as misses that led and
	// then found the flight settled — but here the first run was terminal
	// before any duplicate, so the ledger is exact unless a miss re-ran.
	if c.Hits != 2 || c.Entries != 1 || c.HitRatio <= 0.5 {
		t.Fatalf("cache stats = %+v, want 2 hits over 1 entry", c)
	}
	if c.HitLatency == nil || c.HitLatency.Count != 2 {
		t.Fatalf("hit latency summary = %+v, want count 2", c.HitLatency)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(b)
	for _, want := range []string{
		"avfd_cache_hits_total 2",
		"avfd_cache_entries 1",
		"avfd_cache_hit_ratio",
		"avfd_cache_singleflight_followers_total",
		"avfd_cache_hit_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSingleFlight64CollapseOneSimulation is the torture gate: 64
// concurrent identical submissions execute exactly one simulation; every
// submission is accepted, reaches the same terminal state, and replays
// the same byte-identical stream.
func TestSingleFlight64CollapseOneSimulation(t *testing.T) {
	// Queue capacity 2 on purpose: 64 submissions through the scheduler
	// would reject, so acceptance of all 64 proves followers bypass it.
	ts, _, pool := newCacheServer(t, 1, 2)
	const spec = `{"benchmark":"bzip2","scale":0.02,"seed":11,"m":800,"n":50,"intervals":4}`

	const n = 64
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			var out map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- "decode: " + err.Error()
				return
			}
			if resp.StatusCode != http.StatusAccepted {
				errs <- "status " + resp.Status
				return
			}
			ids[i], _ = out["id"].(string)
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("concurrent submit failed: %s", e)
	}

	for _, id := range ids {
		if st := waitTerminal(t, ts, id, 60*time.Second); st.State != "done" || st.Result == nil {
			t.Fatalf("job %s: state %q (%s)", id, st.State, st.Error)
		}
	}
	// Exactly one simulation went through the scheduler.
	if ps := pool.Stats(); ps.Submitted != 1 || ps.Done != 1 || ps.Bypassed != n-1 {
		t.Fatalf("pool stats = %+v, want exactly 1 submitted/done and %d bypassed", ps, n-1)
	}
	// The cache ledger reconciles: 1 miss (the leader), 63 hits+followers.
	cs := srvCacheStats(t, ts)
	if cs.Misses != 1 || cs.Hits+cs.Followers != n-1 {
		t.Fatalf("cache ledger = %+v, want 1 miss and %d hits+followers", cs, n-1)
	}
	// Byte-identical replay across leader, a follower, and a hit.
	ref := streamBytes(t, ts, ids[0])
	for _, id := range ids[1:] {
		if streamBytes(t, ts, id) != ref {
			t.Fatalf("job %s stream differs from %s", id, ids[0])
		}
	}
}

type cacheStatsBlock struct {
	Entries   int   `json:"entries"`
	Inflight  int   `json:"inflight"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Followers int64 `json:"singleflight_followers"`
	Evicted   int64 `json:"evicted"`
}

func srvCacheStats(t *testing.T, ts *httptest.Server) cacheStatsBlock {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Cache cacheStatsBlock `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats.Cache
}

// TestSingleFlightFollowerAndLeaderCancel: canceling a follower detaches
// it (the leader keeps running for everyone else); canceling the leader
// finishes every remaining follower canceled. No second simulation ever
// starts.
func TestSingleFlightFollowerAndLeaderCancel(t *testing.T) {
	ts, _, pool := newCacheServer(t, 1, 4)
	lead, code := postJobAny(t, ts, longJob)
	if code != http.StatusAccepted {
		t.Fatalf("leader submit: code=%d", code)
	}
	leadID := lead["id"].(string)
	// Leader demonstrably running (≥ 1 estimate out) before followers join.
	deadline := time.Now().Add(20 * time.Second)
	for len(getStatus(t, ts, leadID).Intervals) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader produced no estimates")
		}
		time.Sleep(5 * time.Millisecond)
	}

	const nf = 8
	followers := make([]string, nf)
	for i := range followers {
		out, code := postJobAny(t, ts, longJob)
		if code != http.StatusAccepted || out["singleflight"] != true {
			t.Fatalf("follower %d: code=%d resp=%+v", i, code, out)
		}
		followers[i] = out["id"].(string)
		if out["cache_leader"] != leadID {
			t.Fatalf("follower %d leader = %v, want %s", i, out["cache_leader"], leadID)
		}
	}

	// Cancel one follower: it detaches and goes terminal; the leader and
	// the other followers are untouched.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+followers[0], nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if st := waitTerminal(t, ts, followers[0], 10*time.Second); st.State != "canceled" {
		t.Fatalf("canceled follower state = %q", st.State)
	}
	if st := getStatus(t, ts, leadID); st.State != "running" {
		t.Fatalf("leader state after follower cancel = %q, want running", st.State)
	}
	if st := getStatus(t, ts, followers[1]); st.State != "running" {
		t.Fatalf("sibling follower state = %q, want running", st.State)
	}

	// Cancel the leader: every remaining follower inherits the terminal
	// state.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+leadID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	if st := waitTerminal(t, ts, leadID, 10*time.Second); st.State != "canceled" {
		t.Fatalf("leader state = %q", st.State)
	}
	for _, id := range followers[1:] {
		if st := waitTerminal(t, ts, id, 10*time.Second); st.State != "canceled" {
			t.Fatalf("follower %s state = %q, want canceled", id, st.State)
		}
	}
	if ps := pool.Stats(); ps.Submitted != 1 {
		t.Fatalf("pool stats = %+v, want exactly 1 submission", ps)
	}
	// A canceled run must not populate the cache: the next identical
	// submission runs fresh (becomes a leader, not a hit).
	out, code := postJobAny(t, ts, longJob)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: code=%d", code)
	}
	if out["cached"] == true || out["singleflight"] == true {
		t.Fatalf("resubmit after cancel served stale state: %+v", out)
	}
}

// TestRetentionPinsLiveReaders (satellite): a terminal job with an
// attached reader is never evicted under it; the next sweep collects it
// once the reader detaches.
func TestRetentionPinsLiveReaders(t *testing.T) {
	pool := sched.New(sched.Options{Workers: 1, QueueCap: 1})
	defer pool.Shutdown(context.Background())
	srv := New(pool, WithRetention(0, 1),
		WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	defer srv.Close()

	now := time.Now()
	old := &job{id: "job-1", subs: map[chan IntervalPoint]struct{}{},
		state: "done", finishedAt: now.Add(-time.Hour)}
	fresh := &job{id: "job-2", subs: map[chan IntervalPoint]struct{}{},
		state: "done", finishedAt: now}
	srv.mu.Lock()
	srv.jobs[old.id], srv.jobs[fresh.id] = old, fresh
	srv.mu.Unlock()

	// Pinned: the cap (keep newest 1) would evict the old job, but a
	// reader is attached.
	old.pin()
	srv.sweepRetention(now)
	srv.mu.Lock()
	_, kept := srv.jobs[old.id]
	srv.mu.Unlock()
	if !kept {
		t.Fatal("retention evicted a pinned job under a live reader")
	}

	// Reader detaches: the next sweep collects it.
	old.unpin()
	srv.sweepRetention(now)
	srv.mu.Lock()
	_, kept = srv.jobs[old.id]
	n := len(srv.jobs)
	srv.mu.Unlock()
	if kept || n != 1 {
		t.Fatalf("after unpin: old kept=%v, %d jobs retained, want only %s", kept, n, fresh.id)
	}
}

// TestRetentionKeepsUnreadHit: a cache hit is born terminal, so a sweep
// can run between its 202 and its client's first request. The count cap
// used to evict it once retMax newer jobs had ended, and the client's
// stream got a 404 for a job it had just been handed.
func TestRetentionKeepsUnreadHit(t *testing.T) {
	const retMax = 4
	ts, srv, _ := newCacheServer(t, 1, 8, WithRetention(0, retMax))
	lead, _ := postJob(t, ts, tinyJob)
	waitTerminal(t, ts, lead, 60*time.Second)
	ref := streamBytes(t, ts, lead)

	hit, _ := postJobAny(t, ts, tinyJob)
	if hit["cached"] != true {
		t.Fatalf("submit not a cache hit: %+v", hit)
	}
	for i := 0; i < retMax+1; i++ {
		if out, _ := postJobAny(t, ts, tinyJob); out["cached"] != true {
			t.Fatalf("submit %d not a cache hit: %+v", i, out)
		}
	}
	srv.sweepRetention(time.Now())

	resp, err := http.Get(ts.URL + "/v1/jobs/" + hit["id"].(string) + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || string(b) != ref {
		t.Fatalf("stream of the unread hit: status %d, body %q; want 200 and the leader's stream %q",
			resp.StatusCode, b, ref)
	}
}

// TestCacheRecoveryServesAcrossRestart: cache entries persist through
// the WAL; after a restart Recover rebuilds them and a duplicate
// submission is served without executing anything.
func TestCacheRecoveryServesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ts, _, st, _ := newStoreServer(t, dir, WithResultCache(0))
	out, code := postJobAny(t, ts, tinyJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d", code)
	}
	id1 := out["id"].(string)
	if st1 := waitTerminal(t, ts, id1, 30*time.Second); st1.State != "done" {
		t.Fatalf("run state = %q", st1.State)
	}
	ref := streamBytes(t, ts, id1)
	// The watcher persists the cache entry after the terminal state is
	// visible; wait for it to land before "crashing".
	deadline := time.Now().Add(10 * time.Second)
	for len(st.CacheEntries()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cache entry never persisted")
		}
		time.Sleep(time.Millisecond)
	}
	ts.Close()
	st.Close()

	ts2, srv2, st2, pool2 := newStoreServer(t, dir, WithResultCache(0))
	if _, err := srv2.Recover(); err != nil {
		t.Fatal(err)
	}
	if n := len(st2.CacheEntries()); n != 1 {
		t.Fatalf("recovered %d cache entries, want 1", n)
	}
	hit, code := postJobAny(t, ts2, tinyJob)
	if code != http.StatusAccepted || hit["cached"] != true || hit["state"] != "done" {
		t.Fatalf("post-restart duplicate = %+v (code %d), want cached done", hit, code)
	}
	if hit["cache_leader"] != id1 {
		t.Fatalf("cache leader = %v, want %s", hit["cache_leader"], id1)
	}
	id2 := hit["id"].(string)
	if got := streamBytes(t, ts2, id2); got != ref {
		t.Fatal("post-restart cached replay not byte-identical to original run")
	}
	// Nothing executed: the duplicate was served purely from the
	// recovered cache.
	if ps := pool2.Stats(); ps.Submitted != 0 {
		t.Fatalf("pool stats after restart = %+v, want 0 submissions", ps)
	}
}
