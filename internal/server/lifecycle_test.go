package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"avfsim/internal/core"
	"avfsim/internal/experiment"
	"avfsim/internal/sched"
	"avfsim/internal/span"
	"avfsim/internal/store"
)

// quickSpec is a unique few-millisecond job per seed.
func quickSpec(seed int) string {
	return fmt.Sprintf(`{"benchmark":"bzip2","scale":0.01,"seed":%d,"m":100,"n":10,"intervals":2}`, seed)
}

// referenceRun runs spec once through experiment.RunCtx and returns
// the stream points an uninterrupted avfd job must emit, in order, and
// its final series.
func referenceRun(t testing.TB, spec string) ([]IntervalPoint, *JobResult) {
	t.Helper()
	var js JobSpec
	if err := json.Unmarshal([]byte(spec), &js); err != nil {
		t.Fatal(err)
	}
	rc, err := js.runConfig()
	if err != nil {
		t.Fatal(err)
	}
	var pts []IntervalPoint
	rc.OnInterval = func(e core.Estimate) { pts = append(pts, pointOf(e)) }
	res, err := experiment.RunCtx(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	return pts, jobResultOf(res)
}

// TestTerminalStateIsDurableWhenVisible: whenever a client can see a
// terminal state — through status, the job list, or the stream's end
// event — the store already holds the job's terminal frame.
func TestTerminalStateIsDurableWhenVisible(t *testing.T) {
	ts, _, st, _ := newStoreServer(t, t.TempDir(), WithResultCache(0))
	const n = 12
	errs := make(chan string, 3*n)
	check := func(id, where string) {
		if !storedTerminal(st.Jobs(), id) {
			errs <- id + " terminal in " + where + " before its terminal frame"
		}
	}
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := range ids {
		id, code := postJob(t, ts, quickSpec(i+1))
		if code != http.StatusAccepted {
			t.Fatalf("submit: code=%d", code)
		}
		ids[i] = id
		wg.Add(2)
		go func() { // the stream's end event
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
				if strings.Contains(sc.Text(), `"type":"end"`) {
					check(id, "stream")
				}
			}
		}()
		go func() { // status polling
			defer wg.Done()
			for {
				var s JobStatus
				if err := getJSON(ts.URL+"/v1/jobs/"+id, &s); err != nil {
					errs <- err.Error()
					return
				}
				if terminal(s.State) {
					check(id, "status")
					return
				}
			}
		}()
	}
	listDone := make(chan struct{})
	go func() { // job-list polling
		defer close(listDone)
		for seen := map[string]bool{}; len(seen) < n; {
			var list struct{ Jobs []jobSummary }
			if err := getJSON(ts.URL+"/v1/jobs", &list); err != nil {
				errs <- err.Error()
				return
			}
			for _, row := range list.Jobs {
				if terminal(row.State) && !seen[row.ID] {
					seen[row.ID] = true
					check(row.ID, "the job list")
				}
			}
		}
	}()
	wg.Wait()
	<-listDone
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestDuplicateAfterDoneIsCacheHit: an identical submission made right
// after a client reads "done" — from the stream's end event or from
// status — is a cache hit, not a follower of the finished run.
func TestDuplicateAfterDoneIsCacheHit(t *testing.T) {
	ts, _, _, _ := newStoreServer(t, t.TempDir(), WithResultCache(0))
	for seed := 1; seed <= 6; seed++ {
		spec := quickSpec(seed)
		lead, code := postJobAny(t, ts, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit: code=%d", code)
		}
		id := lead["id"].(string)
		if seed%2 == 1 {
			if s := streamBytes(t, ts, id); !strings.HasSuffix(s, `{"type":"end","state":"done"}`+"\n") {
				t.Fatalf("stream of %s ended %q", id, s[max(0, len(s)-40):])
			}
		} else if s := waitTerminal(t, ts, id, 30*time.Second); s.State != "done" {
			t.Fatalf("%s state = %q", id, s.State)
		}
		if dup, _ := postJobAny(t, ts, spec); dup["cached"] != true {
			t.Fatalf("duplicate of finished %s = %+v, want a cache hit", id, dup)
		}
	}
}

// TestCloseWaitsForTerminalFrames: pool Shutdown, Server.Close and the
// store's Close run back to back, with no pause; a job that finished
// during the drain is terminal in the reopened store.
func TestCloseWaitsForTerminalFrames(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.New(sched.Options{Workers: 2, QueueCap: 8})
	srv := New(pool, WithStore(st), WithResultCache(0), WithSpans(span.NewRecorder(1024)),
		WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	ts := httptest.NewServer(srv.Handler())
	var ids []string
	for seed := 1; seed <= 4; seed++ {
		id, code := postJob(t, ts, quickSpec(seed))
		if code != http.StatusAccepted {
			t.Fatalf("submit: code=%d", code)
		}
		ids = append(ids, id)
	}
	ts.Close()
	if err := pool.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, id := range ids {
		if jr := findJob(t, st2, id); jr.State != "done" || jr.Result == nil || jr.Trace == nil {
			t.Fatalf("%s reopened as state %q (result %t, trace %t), want a done terminal frame",
				id, jr.State, jr.Result != nil, jr.Trace != nil)
		}
	}
}

// TestIntervalSpansNestInRunSpan: each structure's interval spans lie
// inside the run span, in interval order, with abutting wall windows —
// the first starting at the run span's start.
func TestIntervalSpansNestInRunSpan(t *testing.T) {
	ts, _, _ := newSpanServer(t, 1, 8)
	id, _ := postJob(t, ts, tinyJob)
	if s := waitTerminal(t, ts, id, 30*time.Second); s.State != "done" {
		t.Fatalf("state = %q", s.State)
	}
	var run, root span.Span
	byStruct := map[string][]span.Span{}
	for _, sp := range fetchSpans(t, ts, id) {
		switch sp.Name {
		case "run":
			run = sp
		case "job":
			root = sp
		case "interval":
			byStruct[sp.Attrs["structure"]] = append(byStruct[sp.Attrs["structure"]], sp)
		}
	}
	if len(byStruct) != 4 {
		t.Fatalf("interval spans for %d structures, want 4", len(byStruct))
	}
	for name, ivs := range byStruct {
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].Start.Before(ivs[b].Start) })
		if len(ivs) != 3 {
			t.Fatalf("%s: %d interval spans, want 3", name, len(ivs))
		}
		prevEnd := run.Start
		for k, sp := range ivs {
			if sp.Attrs["interval"] != strconv.Itoa(k) || sp.Parent != root.SpanID {
				t.Fatalf("%s span %d = interval %s under %s, want interval %d under the root",
					name, k, sp.Attrs["interval"], sp.Parent, k)
			}
			if !sp.Start.Equal(prevEnd) || sp.End.Before(sp.Start) || sp.End.After(run.End) {
				t.Fatalf("%s interval %d window [%v, %v] does not follow %v inside the run span [%v, %v]",
					name, k, sp.Start, sp.End, prevEnd, run.Start, run.End)
			}
			prevEnd = sp.End
		}
	}
}

// TestResumedJobSkipsReplayedIntervals: a job recovered with part of
// its series in the WAL emits no stream point and no interval span for
// the intervals the WAL already holds, and still ends with the
// reference series.
func TestResumedJobSkipsReplayedIntervals(t *testing.T) {
	dir := t.TempDir()
	ref, _ := referenceRun(t, tinyJob)
	const persisted = 5 // ragged: structure 0 has two intervals, the rest one
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendSpec("job-1", json.RawMessage(tinyJob), time.Now()); err != nil {
		t.Fatal(err)
	}
	for i := range ref[:persisted] {
		if err := st.AppendInterval("job-1", &ref[i]); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	ts, srv, _, _ := newStoreServer(t, dir, WithSpans(span.NewRecorder(4096)))
	if n, err := srv.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	got := streamBytes(t, ts, "job-1")
	want := streamOf(t, ref, "done")
	if got != want {
		t.Fatalf("resumed stream:\n%s\nwant the reference stream:\n%s", got, want)
	}
	replayed := map[string]bool{}
	for _, pt := range ref[:persisted] {
		replayed[pt.Structure+"/"+strconv.Itoa(pt.Interval)] = true
	}
	n := 0
	for _, sp := range fetchSpans(t, ts, "job-1") {
		if sp.Name != "interval" {
			continue
		}
		n++
		if replayed[sp.Attrs["structure"]+"/"+sp.Attrs["interval"]] {
			t.Fatalf("interval span for replayed %s/%s", sp.Attrs["structure"], sp.Attrs["interval"])
		}
	}
	if n != len(ref)-persisted {
		t.Fatalf("%d interval spans, want %d (one per interval not in the WAL)", n, len(ref)-persisted)
	}
}

// streamOf renders the NDJSON stream a job with points and terminal
// state emits.
func streamOf(t testing.TB, pts []IntervalPoint, state string) string {
	t.Helper()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for i := range pts {
		if err := enc.Encode(StreamEvent{Type: "interval", Interval: &pts[i]}); err != nil {
			t.Fatal(err)
		}
	}
	enc.Encode(StreamEvent{Type: "end", State: state})
	return b.String()
}

// TestNDJSONEndpoints404: every NDJSON snapshot endpoint answers an
// unknown job and a disabled surface with its own 404 body.
func TestNDJSONEndpoints404(t *testing.T) {
	pool := sched.New(sched.Options{Workers: 1, QueueCap: 8})
	defer pool.Shutdown(context.Background())
	ts := httptest.NewServer(New(pool, WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))).Handler())
	defer ts.Close()
	id, _ := postJob(t, ts, tinyJob)
	waitTerminal(t, ts, id, 30*time.Second)
	for path, want := range map[string]string{
		"/v1/jobs/job-99/trace":        `"unknown job \"job-99\""`,
		"/v1/jobs/job-99/flight":       `"unknown job \"job-99\""`,
		"/v1/jobs/job-99/spans":        `"unknown job \"job-99\""`,
		"/v1/jobs/job-99/coverage":     `"unknown job \"job-99\""`,
		"/v1/jobs/" + id + "/trace":    `"injection tracing disabled (server built without metrics)"`,
		"/v1/jobs/" + id + "/flight":   `"flight recording disabled; submit with \"flight\": true"`,
		"/v1/jobs/" + id + "/spans":    `"span recording disabled (server built without WithSpans)"`,
		"/v1/jobs/" + id + "/coverage": `"microarchitectural telemetry disabled (submit with \"microtel\": true)"`,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || string(body) != "{\n  \"error\": "+want+"\n}\n" {
			t.Fatalf("GET %s = %d %q", path, resp.StatusCode, body)
		}
	}
}

// TestRestoreFromCachePersistsTail: a recovered unfinished job whose
// result is in the cache is finished from it, and its terminal
// transition persists the points the crash cut off before the terminal
// frame, so the next boot restores the whole series from the WAL.
func TestRestoreFromCachePersistsTail(t *testing.T) {
	dir := t.TempDir()
	ref, res := referenceRun(t, tinyJob)
	var js JobSpec
	if err := json.Unmarshal([]byte(tinyJob), &js); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	st.AppendCacheResult(cacheKeyOf(&js).String(), &cacheValue{Leader: "job-1", Points: ref, Result: res})
	st.AppendSpec("job-2", &js, time.Now())
	for i := range ref[:3] {
		st.AppendInterval("job-2", &ref[i])
	}
	st.Close()

	ts, srv, st2, pool := newStoreServer(t, dir, WithResultCache(0))
	if n, err := srv.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	if s := getStatus(t, ts, "job-2"); s.State != "done" || !s.Cached || !samePoints(s.Intervals, ref) {
		t.Fatalf("job-2 = %s (cached %t, %d points), want done from the cache", s.State, s.Cached, len(s.Intervals))
	}
	if ps := pool.Stats(); ps.Submitted != 0 {
		t.Fatalf("restore ran %d jobs", ps.Submitted)
	}
	jr := findJob(t, st2, "job-2")
	var got []IntervalPoint
	for _, raw := range jr.Intervals {
		var pt IntervalPoint
		if err := json.Unmarshal(raw, &pt); err != nil {
			t.Fatal(err)
		}
		got = append(got, pt)
	}
	if jr.State != "done" || jr.Result == nil || !samePoints(got, ref) {
		t.Fatalf("WAL holds job-2 as %q with %d points, want done with all %d", jr.State, len(got), len(ref))
	}
}

// TestDrainLeavesRecoveredFollowersUnfinished: a drain cancel is a
// checkpoint for the followers it ends too. Two unfinished jobs of one
// spec recover as a leader and a recorded follower; after a drain
// cancels the leader, neither has a terminal frame, and the next boot
// resumes both.
func TestDrainLeavesRecoveredFollowersUnfinished(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"job-1", "job-2"} {
		if err := st.AppendSpec(id, json.RawMessage(longJob), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	ts, srv, st2, _ := newStoreServer(t, dir, WithResultCache(0))
	if n, err := srv.Recover(); err != nil || n != 2 {
		t.Fatalf("Recover = %d, %v", n, err)
	}
	if s := getStatus(t, ts, "job-2"); s.CacheLeader != "job-1" {
		t.Fatalf("job-2 follows %q, want job-1", s.CacheLeader)
	}
	srv.BeginDrain()
	srv.CancelAll()
	for _, id := range []string{"job-1", "job-2"} {
		if s := waitTerminal(t, ts, id, 30*time.Second); s.State != "canceled" {
			t.Fatalf("%s = %s, want canceled", id, s.State)
		}
		if jr := findJob(t, st2, id); jr.Terminal() {
			t.Fatalf("%s has terminal frame %q after a drain cancel", id, jr.State)
		}
	}
}
