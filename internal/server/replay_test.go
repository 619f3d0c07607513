package server

// Tests for serving a finished job's stream in one write (cache hits,
// finished single-flight followers, WAL-recovered jobs), for retention
// under a hit flood (no WAL frame, no per-job Info line), and for stream
// write deadlines through the metrics middleware.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"avfsim/internal/obs"
	"avfsim/internal/span"
	"avfsim/internal/store"
)

// countingWriter counts the Write and Flush calls a handler makes.
type countingWriter struct {
	*httptest.ResponseRecorder
	writes, flushes int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(b)
}

func (w *countingWriter) Flush() {
	w.flushes++
	w.ResponseRecorder.Flush()
}

// streamCounted serves job id's NDJSON stream straight through
// handleStream into a counting writer.
func streamCounted(srv *Server, id string) *countingWriter {
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/stream", nil)
	req.SetPathValue("id", id)
	w := &countingWriter{ResponseRecorder: httptest.NewRecorder()}
	srv.handleStream(w, req)
	return w
}

// lastStreamPoints is the points attribute of job id's latest stream span.
func lastStreamPoints(srv *Server, id string) string {
	points := ""
	for _, sp := range srv.spans.ForJob(id) {
		if sp.Name == "stream" {
			points = sp.Attrs["points"]
		}
	}
	return points
}

// checkOneShotReplay serves terminal job id's stream and requires one
// Write and one Flush carrying exactly want, with the streamed-points
// counter and the stream span's points attribute advanced by the
// interval count, as a line-per-write stream would advance them.
func checkOneShotReplay(t *testing.T, srv *Server, id, want string) {
	t.Helper()
	n := strings.Count(want, `"type":"interval"`)
	before := srv.streamedPoints.Value()
	w := streamCounted(srv, id)
	if w.writes != 1 || w.flushes != 1 {
		t.Errorf("job %s: %d writes / %d flushes, want 1 / 1", id, w.writes, w.flushes)
	}
	if got := w.Body.String(); got != want {
		t.Errorf("job %s: replay differs from the live stream:\n got %q\nwant %q", id, got, want)
	}
	if d := srv.streamedPoints.Value() - before; d != int64(n) {
		t.Errorf("job %s: streamed points grew by %d, want %d", id, d, n)
	}
	if p := lastStreamPoints(srv, id); p != strconv.Itoa(n) {
		t.Errorf("job %s: stream span points = %q, want %d", id, p, n)
	}
}

func deleteJob(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestTerminalStreamReplaysInOneWrite: a leader streamed live gets one
// flushed line per estimate; the same leader once finished, its finished
// single-flight follower, and a later cache hit each get the identical
// bytes in one write.
func TestTerminalStreamReplaysInOneWrite(t *testing.T) {
	ts, srv, _ := newCacheServer(t, 1, 8, WithSpans(span.NewRecorder(4096)))
	// Occupy the only worker so the leader and its follower queue behind
	// it and the leader's stream is attached before its first estimate.
	blocker, _ := postJobAny(t, ts, longJob)
	lead, code := postJobAny(t, ts, tinyJob)
	if code != http.StatusAccepted {
		t.Fatalf("leader submit: code=%d", code)
	}
	leadID := lead["id"].(string)
	follower, _ := postJobAny(t, ts, tinyJob)
	if follower["singleflight"] != true {
		t.Fatalf("second submit did not follow the queued leader: %+v", follower)
	}
	followerID := follower["id"].(string)

	srv.mu.Lock()
	lj := srv.jobs[leadID]
	srv.mu.Unlock()
	liveDone := make(chan *countingWriter)
	go func() { liveDone <- streamCounted(srv, leadID) }()
	for deadline := time.Now().Add(10 * time.Second); ; {
		lj.mu.Lock()
		attached := len(lj.subs)
		lj.mu.Unlock()
		if attached == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("live stream never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	deleteJob(t, ts, blocker["id"].(string))

	live := <-liveDone
	want := live.Body.String()
	n := strings.Count(want, `"type":"interval"`)
	if n != 12 || !strings.HasSuffix(want, `{"type":"end","state":"done"}`+"\n") {
		t.Fatalf("live stream: %d intervals, tail %q; want 12 and a done end event", n, want[max(0, len(want)-40):])
	}
	// Live: the (empty) backlog, one flushed line per estimate, the end.
	if live.writes != n+2 || live.flushes != n+2 {
		t.Fatalf("live stream: %d writes / %d flushes, want %d", live.writes, live.flushes, n+2)
	}
	if p := lastStreamPoints(srv, leadID); p != strconv.Itoa(n) {
		t.Fatalf("live stream span points = %q, want %d", p, n)
	}

	if st := waitTerminal(t, ts, followerID, 30*time.Second); st.State != "done" {
		t.Fatalf("follower state = %q", st.State)
	}
	var hitID string
	for deadline := time.Now().Add(10 * time.Second); hitID == ""; {
		out, _ := postJobAny(t, ts, tinyJob)
		if out["cached"] == true {
			hitID = out["id"].(string)
		} else if time.Now().After(deadline) {
			t.Fatalf("duplicate never served from cache: %+v", out)
		}
	}
	for _, id := range []string{leadID, followerID, hitID} {
		checkOneShotReplay(t, srv, id, want)
	}
}

// TestRecoveredTerminalStreamReplaysInOneWrite: a job that finished
// before a restart comes back from the WAL and replays its original
// stream in one write.
func TestRecoveredTerminalStreamReplaysInOneWrite(t *testing.T) {
	dir := t.TempDir()
	ts, _, st, _ := newStoreServer(t, dir)
	id, _ := postJob(t, ts, tinyJob)
	if s := waitTerminal(t, ts, id, 30*time.Second); s.State != "done" {
		t.Fatalf("run state = %q", s.State)
	}
	ref := streamBytes(t, ts, id)
	ts.Close()
	st.Close()

	_, srv2, _, _ := newStoreServer(t, dir,
		WithMetrics(obs.NewRegistry()), WithSpans(span.NewRecorder(4096)))
	if _, err := srv2.Recover(); err != nil {
		t.Fatal(err)
	}
	checkOneShotReplay(t, srv2, id, ref)
}

// TestUnfinishedEndingsReplayInOneWrite: a finished job that did not end
// done, one stopped by its deadline_seconds and one canceled by DELETE,
// gets its points and its own end event, state and error included, in
// one write and one flush once it has ended.
func TestUnfinishedEndingsReplayInOneWrite(t *testing.T) {
	ts, srv, _ := newCacheServer(t, 1, 4, WithSpans(span.NewRecorder(4096)))
	deadlined, _ := postJob(t, ts, strings.Replace(longJob, "}", `,"deadline_seconds":0.5}`, 1))
	deleted, _ := postJob(t, ts, strings.Replace(longJob, `"seed":3`, `"seed":4`, 1))
	waitPoints(t, ts, deleted, 4, 30*time.Second)
	deleteJob(t, ts, deleted)

	for id, wantErr := range map[string]string{
		deadlined: "context deadline exceeded",
		deleted:   "context canceled",
	} {
		st := waitTerminal(t, ts, id, 30*time.Second)
		if st.State != "canceled" || st.Error != wantErr || len(st.Intervals) == 0 {
			t.Fatalf("job %s ended %q (%q) with %d points, want canceled (%q) with points",
				id, st.State, st.Error, len(st.Intervals), wantErr)
		}
		checkOneShotReplay(t, srv, id, streamOf(t, st.Intervals, st.State, st.Error))
	}
}

// discardStream is a ResponseWriter and Flusher that drops what it is
// given and allocates nothing itself.
type discardStream struct{ h http.Header }

func (d *discardStream) Header() http.Header         { return d.h }
func (d *discardStream) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardStream) WriteHeader(int)             {}
func (d *discardStream) Flush()                      {}

// TestCacheHitStreamEncodedOnce: a cache entry's stream is encoded once,
// on first use even when several hits are read at once, and shared by
// every hit served from it, so a hit's stream costs the same allocations
// whether its entry holds 2 points or 24.
func TestCacheHitStreamEncodedOnce(t *testing.T) {
	ts, srv, _ := newCacheServer(t, 1, 4, WithSpans(span.NewRecorder(4096)))
	hitAllocs := func(n int) float64 {
		spec := fmt.Sprintf(`{"benchmark":"bzip2","scale":0.02,"seed":%d,"m":400,"n":50,"intervals":%d}`, n, n)
		var js JobSpec
		if err := json.Unmarshal([]byte(spec), &js); err != nil {
			t.Fatal(err)
		}
		v := &cacheValue{Leader: "job-0", Result: &JobResult{Benchmark: "bzip2"}}
		for i := 0; i < n; i++ {
			v.Points = append(v.Points, IntervalPoint{Structure: "iq", Interval: i,
				StartCycle: int64(i) * 20000, EndCycle: int64(i+1) * 20000,
				AVF: float64(i+1) / 50, Failures: i + 1, Injections: 50})
		}
		srv.cache.Put(cacheKeyOf(&js), v)
		ids := make([]string, 4)
		for i := range ids {
			out, _ := postJobAny(t, ts, spec)
			if out["cached"] != true {
				t.Fatalf("submit with %d cached points not a hit: %+v", n, out)
			}
			ids[i] = out["id"].(string)
		}
		bodies := make([]string, len(ids))
		var wg sync.WaitGroup
		for i, id := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bodies[i] = streamCounted(srv, id).Body.String()
			}()
		}
		wg.Wait()
		want := streamOf(t, v.Points, "done", "")
		for i, b := range bodies {
			if b != want {
				t.Fatalf("hit %s of a %d-point entry streamed:\n%s\nwant:\n%s", ids[i], n, b, want)
			}
		}
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+ids[0]+"/stream", nil)
		req.SetPathValue("id", ids[0])
		w := &discardStream{h: http.Header{}}
		return testing.AllocsPerRun(200, func() { srv.handleStream(w, req) })
	}
	few, many := hitAllocs(2), hitAllocs(24)
	t.Logf("allocations per hit stream: %v with 2 points, %v with 24", few, many)
	if few != many {
		t.Fatalf("a hit's stream costs %v allocations with 2 points and %v with 24, want equal", few, many)
	}
}

// storedTerminal reports whether jobs holds job id in a terminal state.
func storedTerminal(jobs []store.JobRecord, id string) bool {
	for _, jr := range jobs {
		if jr.ID == id {
			return jr.Terminal()
		}
	}
	return false
}

// lockedBuffer is a bytes.Buffer safe for a logger writing from server
// goroutines while the test reads.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRetentionOfHitsWritesNoFrames: cache hits are never persisted, so
// evicting them appends no WAL frame and issues no fsync, and a sweep
// logs one Info summary rather than a line per job. The recorded leader
// still gets its durable evict frame.
func TestRetentionOfHitsWritesNoFrames(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := store.Open(t.TempDir(), store.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	var logs lockedBuffer
	ts, srv, _ := newCacheServer(t, 1, 8, WithStore(st),
		WithRetention(0, 4), WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
	t.Cleanup(func() { st.Close() })

	lead, _ := postJobAny(t, ts, tinyJob)
	leadID := lead["id"].(string)
	// "job done" is logged after the leader's terminal transition: its
	// terminal frame and cache entry are durable.
	for deadline := time.Now().Add(30 * time.Second); !strings.Contains(logs.String(), `msg="job done" job=`+leadID); {
		if time.Now().After(deadline) {
			t.Fatal("leader never finished")
		}
		time.Sleep(time.Millisecond)
	}
	srv.mu.Lock()
	lj := srv.jobs[leadID]
	srv.mu.Unlock()
	lj.pin() // keep the leader so the sweeps below see only hits

	fsyncs := reg.Counter("avfd_store_fsyncs_total", "")
	base := fsyncs.Value()
	const hits = 64
	for i := 0; i < hits; i++ {
		if out, _ := postJobAny(t, ts, tinyJob); out["cached"] != true {
			t.Fatalf("submit %d not a cache hit: %+v", i, out)
		}
	}
	// The hits were never looked up, so the count cap spares them for
	// janitorPeriod after they end; sweep as the janitor would after it.
	later := time.Now().Add(janitorPeriod + time.Second)
	srv.sweepRetention(later)
	if d := fsyncs.Value() - base; d != 0 {
		t.Fatalf("%d hits and their eviction cost %d fsyncs, want 0", hits, d)
	}
	srv.mu.Lock()
	retained := len(srv.jobs)
	srv.mu.Unlock()
	if retained != 4+1 {
		t.Fatalf("retained %d jobs, want 4 hits + the pinned leader", retained)
	}
	out := logs.String()
	if strings.Contains(out, `level=INFO msg="job evicted"`) {
		t.Fatal("retention logged a per-job Info line")
	}
	if !strings.Contains(out, `msg="retention sweep" evicted=60 retained=5`) {
		t.Fatalf("no Info sweep summary for 60 evictions in log:\n%s", out)
	}

	lj.unpin()
	srv.sweepRetention(later)
	if d := fsyncs.Value() - base; d != 1 {
		t.Fatalf("evicting the recorded leader cost %d fsyncs, want 1", d)
	}
	for _, jr := range st.Jobs() {
		if jr.ID == leadID {
			t.Fatal("leader still in the store after eviction")
		}
	}
}

// TestStreamOutlivesWriteTimeout: through the metrics middleware a
// stream is exempt from http.Server.WriteTimeout, so a job streaming
// past it still delivers every line and its end event.
func TestStreamOutlivesWriteTimeout(t *testing.T) {
	ts := httptest.NewUnstartedServer(nil)
	ts.Config.WriteTimeout = 200 * time.Millisecond
	_, srv, _ := newCacheServer(t, 1, 4)
	ts.Config.Handler = srv.Handler()
	ts.Start()
	defer ts.Close()

	id, _ := postJob(t, ts, longJob)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	start := time.Now()
	lines := 0
	for time.Since(start) < 3*ts.Config.WriteTimeout && sc.Scan() {
		lines++
	}
	deleteJob(t, ts, id)
	var last StreamEvent
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream cut after %d lines, %v in: %v", lines, time.Since(start).Round(time.Millisecond), err)
	}
	if time.Since(start) < 3*ts.Config.WriteTimeout || last.Type != "end" || last.State != "canceled" {
		t.Fatalf("stream ended after %v with %+v, want end/canceled past %v",
			time.Since(start).Round(time.Millisecond), last, 3*ts.Config.WriteTimeout)
	}
}
