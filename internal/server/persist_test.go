package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"avfsim/internal/sched"
	"avfsim/internal/store"
)

// newStoreServer builds a durable test server over dir.
func newStoreServer(t *testing.T, dir string, opts ...Option) (*httptest.Server, *Server, *store.Store, *sched.Pool) {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.New(sched.Options{Workers: 2, QueueCap: 8})
	opts = append([]Option{
		WithStore(st),
		WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
	}, opts...)
	srv := New(pool, opts...)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.CancelAll()
		pool.Shutdown(context.Background())
		srv.Close()
		st.Close()
	})
	return ts, srv, st, pool
}

// waitPoints polls until the job has at least n persisted points.
func waitPoints(t *testing.T, ts *httptest.Server, id string, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if len(getStatus(t, ts, id).Intervals) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %d interval points", id, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrashResumeByteIdentical is the determinism gate of the durable
// jobs layer: kill the store mid-run (everything not yet fsync'd is
// lost, like a kill -9), restart on the same directory, and require the
// recovered job to complete with a per-interval estimate series — and
// final result — byte-identical to the uninterrupted run. This holds
// because the simulator is a pure function of (spec, seed): resume
// re-executes from cycle 0 with emission suppressed below the
// checkpoint, re-deriving the RNG stream and pipeline state exactly.
func TestCrashResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	// 40 intervals of 100k cycles: long enough that the crash below
	// lands mid-run, short enough to finish promptly.
	const spec = `{"benchmark":"bzip2","scale":0.02,"seed":7,"m":2000,"n":50,"intervals":40}`

	ts, _, st, _ := newStoreServer(t, dir)
	id, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d", code)
	}
	// Crash once two full interval groups (8 points) are durable: every
	// append from here on is dropped, exactly as a power cut would.
	waitPoints(t, ts, id, 8, 20*time.Second)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The in-memory run is unaffected — let it finish and keep its full
	// series as the uninterrupted reference.
	ref := waitTerminal(t, ts, id, 60*time.Second)
	if ref.State != "done" {
		t.Fatalf("reference run state = %q (%s)", ref.State, ref.Error)
	}
	ts.Close()

	// Reboot on the same directory.
	ts2, srv2, st2, _ := newStoreServer(t, dir)
	resumed, err := srv2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d jobs, want 1 (crash landed after run end?)", resumed)
	}
	// The WAL must hold a strict prefix: the crash dropped the tail.
	jr := st2.Jobs()
	if len(jr) != 1 || len(jr[0].Intervals) >= len(ref.Intervals) {
		t.Fatalf("WAL holds %d jobs / %d points; want 1 job with a strict prefix of %d",
			len(jr), len(jr[0].Intervals), len(ref.Intervals))
	}

	got := waitTerminal(t, ts2, id, 60*time.Second)
	if got.State != "done" {
		t.Fatalf("resumed run state = %q (%s)", got.State, got.Error)
	}
	if !reflect.DeepEqual(got.Intervals, ref.Intervals) {
		t.Fatalf("resumed interval series differs from uninterrupted run:\n got %d points\nwant %d points",
			len(got.Intervals), len(ref.Intervals))
	}
	gb, _ := json.Marshal(got.Intervals)
	rb, _ := json.Marshal(ref.Intervals)
	if string(gb) != string(rb) {
		t.Fatal("resumed interval series not byte-identical to uninterrupted run")
	}
	if !reflect.DeepEqual(got.Result, ref.Result) {
		t.Fatal("resumed final series differs from uninterrupted run")
	}
}

// TestGracefulDrainInterrupted checks the SIGTERM path: BeginDrain +
// cancel persists no terminal frame (a checkpoint, not a verdict),
// stream clients get a clean terminal NDJSON event, no subscriber
// channel leaks, and the next boot resumes the job.
func TestGracefulDrainInterrupted(t *testing.T) {
	dir := t.TempDir()
	ts, srv, st, pool := newStoreServer(t, dir)
	id, code := postJob(t, ts, longJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("stream closed before first estimate")
	}

	waitPoints(t, ts, id, 4, 20*time.Second)
	srv.BeginDrain()
	srv.CancelAll()

	// The stream must end with a clean terminal event, not a cut socket.
	var last StreamEvent
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if last.Type != "end" || last.State != "canceled" {
		t.Fatalf("stream terminal event = %+v, want end/canceled", last)
	}

	waitTerminal(t, ts, id, 20*time.Second)
	// A drain cancel is a checkpoint: the job's interval frames are
	// durable and no terminal frame is written, so the next boot
	// resumes it.
	stored := st.Jobs()
	if len(stored) != 1 || stored[0].State != "" || stored[0].Terminal() {
		t.Fatalf("WAL after drain cancel = %+v, want one unfinished job", stored)
	}
	if len(stored[0].Intervals) == 0 {
		t.Fatal("drain persisted no interval checkpoints")
	}

	// No subscriber-channel leak after the drain released clients.
	srv.mu.Lock()
	j := srv.jobs[id]
	srv.mu.Unlock()
	j.mu.Lock()
	leaked := len(j.subs)
	j.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d subscriber channels leaked", leaked)
	}

	ts.Close()
	pool.Shutdown(context.Background())
	st.Close()

	// Next boot re-enqueues the interrupted job.
	_, srv2, _, _ := newStoreServer(t, dir)
	resumed, err := srv2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d jobs, want 1", resumed)
	}
	srv2.CancelAll()
}

// TestDrainByPoolShutdownAlone is avfd's SIGTERM drain as the daemon
// runs it: BeginDrain, then a pool Shutdown whose deadline passes, and
// no cancel from the server. The pool cancels the running job and the
// queued one; both end canceled as checkpoints, with no terminal frame,
// and the next boot's Recover resumes both.
func TestDrainByPoolShutdownAlone(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.New(sched.Options{Workers: 1, QueueCap: 4})
	srv := New(pool, WithStore(st), WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	running, _ := postJob(t, ts, longJob)
	queued, _ := postJob(t, ts, strings.Replace(longJob, `"seed":3`, `"seed":4`, 1))
	waitPoints(t, ts, running, 1, 20*time.Second)
	if s := getStatus(t, ts, queued); s.State != "queued" {
		t.Fatalf("second job is %q, want queued behind the only worker", s.State)
	}

	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := pool.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want the deadline to pass", err)
	}
	srv.Close() // every ended job's terminal transition is done
	for _, id := range []string{running, queued} {
		if s := getStatus(t, ts, id); s.State != "canceled" {
			t.Fatalf("%s = %q after the drain, want canceled", id, s.State)
		}
		if jr := findJob(t, st, id); jr.Terminal() {
			t.Fatalf("%s has terminal frame %q after a drain cancel", id, jr.State)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	_, srv2, _, _ := newStoreServer(t, dir)
	if resumed, err := srv2.Recover(); err != nil || resumed != 2 {
		t.Fatalf("Recover = %d, %v; want both drained jobs resumed", resumed, err)
	}
}

// TestRetentionEvicts bounds the job map: with a max-completed cap of
// 1, finishing a second job evicts the older terminal one from memory
// and the store.
func TestRetentionEvicts(t *testing.T) {
	dir := t.TempDir()
	ts, srv, st, _ := newStoreServer(t, dir, WithRetention(0, 1))
	id1, _ := postJob(t, ts, tinyJob)
	waitTerminal(t, ts, id1, 60*time.Second)
	id2, _ := postJob(t, ts, tinyJob)
	waitTerminal(t, ts, id2, 60*time.Second)

	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.jobs)
		_, oldGone := srv.jobs[id1]
		srv.mu.Unlock()
		if n == 1 && !oldGone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retention kept %d jobs (old present=%v), want only %s", n, oldGone, id2)
		}
		time.Sleep(time.Millisecond)
	}
	if jr := st.Jobs(); len(jr) != 1 || jr[0].ID != id2 {
		t.Fatalf("store after eviction = %+v, want only %s", jr, id2)
	}
}

// TestBodyLimit413 bounds POST /v1/jobs bodies.
func TestBodyLimit413(t *testing.T) {
	ts, _, _, _ := newStoreServer(t, t.TempDir(), WithMaxBodyBytes(64))
	big := `{"benchmark":"bzip2","structures":["` + strings.Repeat("x", 128) + `"]}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("code=%d body=%s, want 413", resp.StatusCode, body)
	}
	var out map[string]string
	if err := json.Unmarshal(body, &out); err != nil || out["error"] == "" {
		t.Fatalf("413 body = %s, want JSON error", body)
	}
}

// TestJobDeadlineCancels: a job running past the server-wide deadline
// is canceled (admission control over runaway specs).
func TestJobDeadlineCancels(t *testing.T) {
	ts, _, _, _ := newStoreServer(t, t.TempDir(), WithJobDeadline(50*time.Millisecond))
	id, code := postJob(t, ts, longJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code=%d", code)
	}
	st := waitTerminal(t, ts, id, 30*time.Second)
	if st.State != "canceled" {
		t.Fatalf("state = %q (%s), want canceled", st.State, st.Error)
	}
}
