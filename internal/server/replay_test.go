package server

// Tests for serving a finished job's stream in one write (cache hits,
// finished single-flight followers, WAL-recovered jobs), for retention
// under a hit flood (no WAL frame, no per-job Info line), and for stream
// write deadlines through the metrics middleware.

import (
	"bufio"
	"bytes"
	"encoding/json"
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
