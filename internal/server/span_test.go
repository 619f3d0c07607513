package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"avfsim/internal/obs"
	"avfsim/internal/sched"
	"avfsim/internal/span"
)

// newSpanServer is newTestServer plus request tracing and SLO
// accounting.
func newSpanServer(t *testing.T, workers, queueCap int) (*httptest.Server, *Server, *sched.Pool) {
	t.Helper()
	reg := obs.NewRegistry()
	pool := sched.New(sched.Options{Workers: workers, QueueCap: queueCap, Metrics: reg})
	srv := New(pool, WithMetrics(reg),
		WithSpans(span.NewRecorder(4096)),
		WithSLO(span.NewEngine(span.DefaultObjectives())),
		WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.CancelAll()
		pool.Shutdown(context.Background())
	})
	return ts, srv, pool
}

// postJobTraced submits body with a traceparent header and returns the
// submit response fields.
func postJobTraced(t *testing.T, ts *httptest.Server, body, traceparent string) map[string]string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// fetchSpans reads the job's span NDJSON.
func fetchSpans(t *testing.T, ts *httptest.Server, id string) []span.Span {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET spans: status %d", resp.StatusCode)
	}
	var out []span.Span
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var sp span.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		out = append(out, sp)
	}
	return out
}

// TestTraceEndToEnd: an injected W3C traceparent round-trips through
// submit → run → spans: the root job span adopts the caller's trace and
// parent, the queue/dispatch/run/interval spans chain under it, the
// trace summary appears at /v1/traces, the terminal outcome lands in
// the SLO engine, and the trace ID surfaces as a latency exemplar.
func TestTraceEndToEnd(t *testing.T) {
	ts, srv, pool := newSpanServer(t, 2, 8)
	const (
		traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
		parent  = "00f067aa0ba902b7"
	)
	sub := postJobTraced(t, ts, tinyJob, "00-"+traceID+"-"+parent+"-01")
	id := sub["id"]
	if sub["trace_id"] != traceID {
		t.Fatalf("submit trace_id = %q, want the injected %q", sub["trace_id"], traceID)
	}

	st := waitTerminal(t, ts, id, 30*time.Second)
	if st.State != "done" {
		t.Fatalf("job state = %q (%s)", st.State, st.Error)
	}
	if st.TraceID != traceID {
		t.Fatalf("status trace_id = %q, want %q", st.TraceID, traceID)
	}

	spans := fetchSpans(t, ts, id)
	byName := map[string][]span.Span{}
	for _, sp := range spans {
		if sp.TraceID != traceID {
			t.Fatalf("span %s on trace %q, want %q", sp.Name, sp.TraceID, traceID)
		}
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for _, name := range []string{"job", "admission", "queue", "dispatch", "run"} {
		if len(byName[name]) != 1 {
			t.Fatalf("want exactly one %q span, got %d (all: %v)", name, len(byName[name]), names(spans))
		}
	}
	root := byName["job"][0]
	if root.Parent != parent {
		t.Fatalf("root span parent = %q, want the caller's %q", root.Parent, parent)
	}
	if root.Status != "done" {
		t.Fatalf("root span status = %q, want done", root.Status)
	}
	if root.Job != id || root.Class != "standard" {
		t.Fatalf("root span attribution = (%q, %q)", root.Job, root.Class)
	}
	// Children chain under the root span.
	for _, name := range []string{"admission", "queue", "dispatch", "run"} {
		if got := byName[name][0].Parent; got != root.SpanID {
			t.Fatalf("%s span parent = %q, want root %q", name, got, root.SpanID)
		}
	}
	// tinyJob runs 3 intervals over the 4 paper structures.
	if n := len(byName["interval"]); n != 12 {
		t.Fatalf("interval spans = %d, want 12", n)
	}
	for _, sp := range byName["interval"] {
		if sp.Attrs["structure"] == "" || sp.Attrs["avf"] == "" {
			t.Fatalf("interval span missing attrs: %+v", sp)
		}
	}

	// The trace summary is queryable.
	resp, err := http.Get(ts.URL + "/v1/traces?state=done&class=standard")
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Traces []span.TraceSummary `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, s := range tr.Traces {
		if s.TraceID == traceID && s.Job == id && s.Status == "done" {
			found = true
		}
	}
	if !found {
		t.Fatalf("/v1/traces does not list trace %s: %+v", traceID, tr.Traces)
	}

	// Terminal outcome reached the SLO engine as budget-preserving.
	snap := srv.slo.Snapshot()
	var std *span.ClassStatus
	for i := range snap.Classes {
		if snap.Classes[i].Class == "standard" {
			std = &snap.Classes[i]
		}
	}
	if std == nil || std.GoodTotal < 1 {
		t.Fatalf("SLO standard class = %+v, want >=1 good outcome", std)
	}
	if std.BadTotal != 0 {
		t.Fatalf("SLO standard bad_total = %d, want 0", std.BadTotal)
	}

	// The trace ID rode the scheduler's latency histograms as an
	// exemplar, linking /v1/stats quantiles back to this trace.
	ps := pool.Stats()
	if ps.QueueLatency == nil || ps.QueueLatency.P50Exemplar != traceID {
		t.Fatalf("queue latency p50 exemplar = %+v, want %q", ps.QueueLatency, traceID)
	}
}

func names(spans []span.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestInvalidTraceparentMintsFresh: a garbage traceparent does not fail
// the submit; the server restarts the trace per the W3C spec.
func TestInvalidTraceparentMintsFresh(t *testing.T) {
	ts, _, _ := newSpanServer(t, 2, 8)
	sub := postJobTraced(t, ts, tinyJob, "00-zznothex-bogus-01")
	if len(sub["trace_id"]) != 32 || strings.Contains(sub["trace_id"], "z") {
		t.Fatalf("minted trace_id = %q, want fresh 32-hex", sub["trace_id"])
	}
}

// TestShedJobTraceAndBudget: a shed job's status names the evicting
// class, its root span ends "shed", and the eviction burns the batch
// class's error budget with the job's trace attached to the violator.
func TestShedJobTraceAndBudget(t *testing.T) {
	ts, srv, _ := newSpanServer(t, 1, 1)
	// Occupy the single worker, then the single queue slot with a batch
	// job; a critical arrival evicts the batch job.
	runner := postJobTraced(t, ts, longJob, "")
	victim := postJobTraced(t, ts, `{"benchmark":"bzip2","scale":0.02,"seed":3,"m":400,"n":50,"intervals":3,"slo_class":"batch"}`, "")
	postJobTraced(t, ts, `{"benchmark":"bzip2","scale":0.02,"seed":4,"m":400,"n":50,"intervals":3,"slo_class":"critical"}`, "")

	st := waitTerminal(t, ts, victim["id"], 10*time.Second)
	if st.State != "shed" {
		t.Fatalf("victim state = %q, want shed", st.State)
	}
	if st.ShedBy != "critical" {
		t.Fatalf("victim shed_by = %q, want critical", st.ShedBy)
	}

	spans := fetchSpans(t, ts, victim["id"])
	var root, queue *span.Span
	for i := range spans {
		switch spans[i].Name {
		case "job":
			root = &spans[i]
		case "queue":
			queue = &spans[i]
		}
	}
	if root == nil || root.Status != "shed" {
		t.Fatalf("victim root span = %+v, want status shed", root)
	}
	if root.Attrs["shed_by"] != "critical" {
		t.Fatalf("root span shed_by attr = %q", root.Attrs["shed_by"])
	}
	if queue == nil || queue.Status != "shed" {
		t.Fatalf("victim queue span = %+v, want status shed", queue)
	}

	// The shed burned batch budget and named the trace.
	snap := srv.slo.Snapshot()
	for _, cs := range snap.Classes {
		if cs.Class != "batch" {
			continue
		}
		if cs.BadTotal < 1 {
			t.Fatalf("batch bad_total = %d, want >=1", cs.BadTotal)
		}
		found := false
		for _, v := range cs.RecentViolators {
			if v.Job == victim["id"] && v.Outcome == "shed" && v.Trace == st.TraceID {
				found = true
			}
		}
		if !found {
			t.Fatalf("batch violators missing the shed job: %+v", cs.RecentViolators)
		}
	}

	// Unblock the worker so cleanup is fast.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+runner["id"], nil)
	http.DefaultClient.Do(req)
}

// TestStatsAndSLOEndpoints: /v1/stats gains slo + spans blocks, /v1/slo
// serves the engine snapshot, and the SLO gauges exist in /metrics.
func TestStatsAndSLOEndpoints(t *testing.T) {
	ts, _, _ := newSpanServer(t, 2, 8)
	sub := postJobTraced(t, ts, tinyJob, "")
	waitTerminal(t, ts, sub["id"], 30*time.Second)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"slo", "spans"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("/v1/stats missing %q block", key)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	var snap span.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(snap.Classes) != 4 {
		t.Fatalf("/v1/slo classes = %d, want 4", len(snap.Classes))
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`avfd_slo_budget_remaining{class="standard"}`,
		`avfd_slo_burn_rate{class="critical",window="5m"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
}

// TestTraceContinuityAcrossRestart: a job's trace survives a server
// restart — the canonical traceparent is persisted with the spec, the
// terminal span summary is persisted at completion, and after Recover
// the restarted server serves the same trace ID from status and the
// full span set from /v1/jobs/{id}/spans.
func TestTraceContinuityAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ts, _, st, pool := newStoreServer(t, dir,
		WithSpans(span.NewRecorder(4096)),
		WithSLO(span.NewEngine(span.DefaultObjectives())))
	sub := postJobTraced(t, ts, tinyJob, "")
	id, trace := sub["id"], sub["trace_id"]
	if trace == "" {
		t.Fatal("no trace_id on submit")
	}
	if waitTerminal(t, ts, id, 30*time.Second).State != "done" {
		t.Fatal("job did not finish")
	}
	before := fetchSpans(t, ts, id)
	if len(before) == 0 {
		t.Fatal("no spans before restart")
	}
	ts.Close()
	pool.Shutdown(context.Background())
	st.Close()

	ts2, srv2, _, _ := newStoreServer(t, dir,
		WithSpans(span.NewRecorder(4096)),
		WithSLO(span.NewEngine(span.DefaultObjectives())))
	if _, err := srv2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := getStatus(t, ts2, id).TraceID; got != trace {
		t.Fatalf("restarted trace_id = %q, want %q", got, trace)
	}
	after := fetchSpans(t, ts2, id)
	if len(after) != len(before) {
		t.Fatalf("restarted span count = %d, want %d", len(after), len(before))
	}
	for i := range after {
		if after[i].TraceID != trace {
			t.Fatalf("restored span %s on trace %q, want %q", after[i].Name, after[i].TraceID, trace)
		}
	}
}

// TestSpansDisabled404: without WithSpans/WithSLO the new surfaces
// 404 and submits carry no trace id.
func TestSpansDisabled404(t *testing.T) {
	ts, _, _ := newTestServer(t, 2, 8)
	id, code := postJob(t, ts, tinyJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	if st := getStatus(t, ts, id); st.TraceID != "" {
		t.Fatalf("trace_id %q present with spans disabled", st.TraceID)
	}
	for _, path := range []string{"/v1/jobs/" + id + "/spans", "/v1/traces", "/v1/slo"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d with spans disabled, want 404", path, resp.StatusCode)
		}
	}
}
