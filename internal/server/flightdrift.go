package server

// The flight/drift surface of avfd: per-job propagation-trace export
// (GET /v1/jobs/{id}/flight), the drift monitor (GET /v1/drift), and a
// live SSE dashboard (GET /debug/avf + /debug/avf/stream) that streams
// estimates, drift alarms, and periodic service state to a browser.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"avfsim/internal/core"
	"avfsim/internal/drift"
)

// driftStreams builds the drift stream names for one job: the AVF
// series are monitored per benchmark × structure (jobs of the same
// benchmark continue each other's stream — exactly the "did the
// workload's vulnerability shift" question), as is the online-vs-
// reference divergence.
func avfStream(benchmark, structure string) string {
	return "avf/" + benchmark + "/" + structure
}

func divergenceStream(benchmark, structure string) string {
	return "divergence/" + benchmark + "/" + structure
}

// observeDrift feeds one observation through the monitor and mirrors
// the stream's EWMA into the metrics registry (alarms are counted by
// the monitor's OnAlarm callback installed in New).
func (s *Server) observeDrift(stream string, x, noise float64) {
	s.drift.Observe(stream, x, noise)
	if s.driftEWMA != nil {
		s.driftEWMA.With(stream).Set(x)
	}
}

// feedDivergence streams per-interval |online - reference| gaps into
// the drift monitor after a fused run completes. The divergence of a
// healthy estimator is zero-mean sampling noise (Figure 3: the online
// curve tracks SoftArch); a sustained gap means the estimator and the
// reference disagree — the regression the paper's evaluation exists to
// catch, detected here continuously.
func (s *Server) feedDivergence(benchmark string, result *JobResult) {
	for _, ss := range result.Series {
		n := len(ss.Online)
		if len(ss.Reference) < n {
			n = len(ss.Reference)
		}
		stream := divergenceStream(benchmark, ss.Structure)
		for i := 0; i < n; i++ {
			p := ss.Online[i]
			noise := 0.0
			if result.N > 0 {
				// Both series carry sampling noise of roughly binomial
				// scale; √2× the online stderr is the gap's floor.
				noise = 1.4142135623730951 * core.Estimate{AVF: p, Injections: result.N}.StdErr()
			}
			s.observeDrift(stream, ss.Online[i]-ss.Reference[i], noise)
		}
	}
}

// handleFlight serves the job's reconstructed propagation traces as
// NDJSON: one trace per line (inject → hops → conclusion), plus a
// trailing summary line when the ring dropped events.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	s.serveNDJSON(w, r, `flight recording disabled; submit with "flight": true`,
		func(j *job) bool { return j.flight != nil },
		func(w io.Writer, j *job) { j.flight.Traces().WriteNDJSON(w) })
}

// handleDrift serves the drift monitor's full state: every stream's
// chart statistics plus the retained alarm log.
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.drift.Snapshot())
}

// sseHub fans server-sent events out to dashboard connections. Slow
// consumers are dropped, never waited on (same policy as job streams).
type sseHub struct {
	mu   sync.Mutex
	subs map[chan []byte]struct{}
}

func newSSEHub() *sseHub {
	return &sseHub{subs: map[chan []byte]struct{}{}}
}

// sseChanCap buffers one dashboard connection; estimates arrive at most
// one per interval per structure, so this absorbs long GC pauses.
const sseChanCap = 256

func (h *sseHub) subscribe() chan []byte {
	ch := make(chan []byte, sseChanCap)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch
}

func (h *sseHub) cancel(ch chan []byte) {
	h.mu.Lock()
	if _, ok := h.subs[ch]; ok {
		delete(h.subs, ch)
		close(ch)
	}
	h.mu.Unlock()
}

// broadcast formats one SSE event and sends it to every subscriber.
func (h *sseHub) broadcast(event string, data any) {
	b, err := json.Marshal(data)
	if err != nil {
		return
	}
	msg := []byte("event: " + event + "\ndata: " + string(b) + "\n\n")
	h.mu.Lock()
	for ch := range h.subs {
		select {
		case ch <- msg:
		default:
			delete(h.subs, ch)
			close(ch)
		}
	}
	h.mu.Unlock()
}

// estimateEvent is the SSE "estimate" payload: an interval point tagged
// with its job and benchmark.
type estimateEvent struct {
	Job       string `json:"job"`
	Benchmark string `json:"benchmark"`
	IntervalPoint
}

// stateEvent is the periodic SSE "state" payload.
type stateEvent struct {
	Time  time.Time      `json:"time"`
	Drift drift.Snapshot `json:"drift"`
	Stats any            `json:"stats"`
}

// statePeriod is how often each dashboard connection receives a full
// state refresh.
const statePeriod = 2 * time.Second

// handleDashboardStream is the SSE feed behind /debug/avf: "estimate"
// events as intervals complete, "alarm" events as the drift monitor
// fires, and a "state" snapshot every statePeriod.
func (s *Server) handleDashboardStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	arm := s.armStreamWrite(w)
	send := func(msg []byte) bool {
		arm()
		if _, err := w.Write(msg); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	state := func() []byte {
		ev := stateEvent{Time: time.Now(), Drift: s.drift.Snapshot(), Stats: s.statsPayload()}
		b, _ := json.Marshal(ev)
		return []byte("event: state\ndata: " + string(b) + "\n\n")
	}
	if !send(state()) {
		return
	}

	ch := s.hub.subscribe()
	defer s.hub.cancel(ch)
	ticker := time.NewTicker(statePeriod)
	defer ticker.Stop()
	for {
		select {
		case msg, ok := <-ch:
			if !ok {
				return // dropped as too slow; the client reconnects
			}
			if !send(msg) {
				return
			}
		case <-ticker.C:
			if !send(state()) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleDashboard serves the live AVF dashboard page.
func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	fmt.Fprint(w, dashboardHTML)
}

// dashboardHTML is a self-contained page: no external assets, ES5-level
// JS, canvas sparklines. It renders one AVF sparkline per
// benchmark × structure from "estimate" events and mirrors the drift
// monitor and scheduler state from the periodic "state" events.
const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>avfd &mdash; live AVF</title>
<style>
  body { font: 13px/1.45 system-ui, sans-serif; margin: 1.2em; background:#111; color:#ddd; }
  h1 { font-size: 1.2em; } h2 { font-size: 1em; margin: 1.2em 0 .4em; color:#9cf; }
  table { border-collapse: collapse; }
  th, td { padding: .15em .7em; text-align: right; border-bottom: 1px solid #333; }
  th { color:#888; font-weight: normal; } td:first-child, th:first-child { text-align: left; }
  .charts { display: flex; flex-wrap: wrap; gap: .8em; }
  .chart { background:#1a1a1a; padding:.5em; border-radius:4px; }
  .chart .label { color:#9cf; margin-bottom:.2em; }
  .chart .latest { color:#fff; float: right; }
  canvas { display:block; }
  .alarm { color:#f66; }
  #conn { float:right; color:#888; }
  #stale { display:none; background:#631; color:#fc9; padding:.4em .8em;
           border-radius:4px; margin:.6em 0; }
</style>
</head>
<body>
<h1>avfd live AVF <span id="conn">connecting&hellip;</span></h1>
<div id="stale"></div>
<h2>per-interval AVF (online estimator)</h2>
<div class="charts" id="charts"></div>
<h2>microarchitectural telemetry</h2>
<table id="microtel"><thead><tr>
<th>structure</th><th>entries</th><th>covered</th><th>coverage</th><th>mean occupancy</th><th>concluded</th><th>AVF</th><th>95% CI</th>
</tr></thead><tbody></tbody></table>
<h2>SLO error budgets</h2>
<table id="slo"><thead><tr>
<th>class</th><th>objective</th><th>budget left</th><th>burn 5m</th><th>burn 1h</th><th>good</th><th>bad</th><th>recent violators</th>
</tr></thead><tbody></tbody></table>
<h2>drift monitor</h2>
<table id="drift"><thead><tr>
<th>stream</th><th>n</th><th>baseline</th><th>&sigma;</th><th>ewma</th><th>cusum&plusmn;</th><th>last</th><th>alarms</th>
</tr></thead><tbody></tbody></table>
<h2>alarms</h2>
<table id="alarms"><thead><tr>
<th>stream</th><th>chart</th><th>obs#</th><th>value</th><th>baseline</th><th>dir</th>
</tr></thead><tbody></tbody></table>
<h2>result cache</h2>
<div id="cache">no cache configured</div>
<h2>scheduler</h2>
<pre id="sched"></pre>
<script>
"use strict";
var series = {};   // key -> {points: [], canvas, latest}
var MAXPTS = 200;

function chartFor(key) {
  if (series[key]) return series[key];
  var div = document.createElement("div");
  div.className = "chart";
  var label = document.createElement("div");
  label.className = "label";
  label.textContent = key;
  var latest = document.createElement("span");
  latest.className = "latest";
  label.appendChild(latest);
  var canvas = document.createElement("canvas");
  canvas.width = 260; canvas.height = 60;
  div.appendChild(label); div.appendChild(canvas);
  document.getElementById("charts").appendChild(div);
  series[key] = { points: [], canvas: canvas, latest: latest };
  return series[key];
}

function draw(s) {
  var ctx = s.canvas.getContext("2d");
  var w = s.canvas.width, h = s.canvas.height, pts = s.points;
  ctx.clearRect(0, 0, w, h);
  if (!pts.length) return;
  var max = 0;
  for (var i = 0; i < pts.length; i++) if (pts[i] > max) max = pts[i];
  if (max <= 0) max = 1e-6;
  ctx.strokeStyle = "#6cf"; ctx.lineWidth = 1.5; ctx.beginPath();
  for (var i = 0; i < pts.length; i++) {
    var x = pts.length === 1 ? 0 : (i / (pts.length - 1)) * (w - 2) + 1;
    var y = h - 2 - (pts[i] / max) * (h - 10);
    if (i === 0) ctx.moveTo(x, y); else ctx.lineTo(x, y);
  }
  ctx.stroke();
  ctx.fillStyle = "#666"; ctx.font = "9px sans-serif";
  ctx.fillText("max " + max.toFixed(4), 3, 9);
}

function fmt(x) { return (typeof x === "number") ? x.toFixed(4) : x; }

function onEstimate(ev) {
  var e = JSON.parse(ev.data);
  var s = chartFor(e.benchmark + "/" + e.structure);
  s.points.push(e.avf);
  if (s.points.length > MAXPTS) s.points.shift();
  s.latest.textContent = fmt(e.avf);
  draw(s);
}

function fill(tbodyId, rows) {
  var tb = document.querySelector(tbodyId + " tbody");
  tb.innerHTML = "";
  for (var i = 0; i < rows.length; i++) {
    var tr = document.createElement("tr");
    for (var k = 0; k < rows[i].cells.length; k++) {
      var td = document.createElement("td");
      td.textContent = rows[i].cells[k];
      if (rows[i].alarm) td.className = "alarm";
      tr.appendChild(td);
    }
    tb.appendChild(tr);
  }
}

function onState(ev) {
  var st = JSON.parse(ev.data);
  var rows = [];
  var streams = (st.drift && st.drift.streams) || [];
  for (var i = 0; i < streams.length; i++) {
    var d = streams[i];
    rows.push({ alarm: d.alarms > 0, cells: [
      d.stream, d.count, fmt(d.mean), fmt(d.sigma), fmt(d.ewma),
      fmt(d.cusum_hi) + "/" + fmt(d.cusum_lo), fmt(d.last), d.alarms,
    ]});
  }
  fill("#drift", rows);
  var arows = [];
  var alarms = (st.drift && st.drift.alarms) || [];
  for (var i = alarms.length - 1; i >= 0; i--) {
    var a = alarms[i];
    arows.push({ alarm: true, cells: [
      a.stream, a.kind, a.index, fmt(a.value),
      fmt(a.mean) + " ± " + fmt(a.sigma), a.up ? "↑" : "↓",
    ]});
  }
  fill("#alarms", arows);
  var srows = [];
  var slo = (st.stats && st.stats.slo && st.stats.slo.classes) || [];
  for (var i = 0; i < slo.length; i++) {
    var c = slo[i];
    var viol = "";
    var rv = c.recent_violators || [];
    for (var k = 0; k < rv.length && k < 3; k++) {
      viol += (k ? ", " : "") + rv[k].job + " (" + rv[k].outcome + ")";
    }
    srows.push({ alarm: c.fast_burn || c.slow_burn, cells: [
      c.class,
      (c.objective.target * 100) + "% < " + c.objective.latency_seconds + "s",
      (c.budget_remaining * 100).toFixed(1) + "%",
      fmt(c.fast.burn_rate) + (c.fast_burn ? " PAGE" : ""),
      fmt(c.slow.burn_rate) + (c.slow_burn ? " TICKET" : ""),
      c.good_total, c.bad_total, viol,
    ]});
  }
  fill("#slo", srows);
  var mrows = [];
  var mt = (st.stats && st.stats.microtel && st.stats.microtel.structures) || [];
  for (var i = 0; i < mt.length; i++) {
    var m = mt[i];
    var ci = m.confidence ? "[" + fmt(m.confidence.lo) + ", " + fmt(m.confidence.hi) + "]" : "—";
    var total = m.outcomes.failures + m.outcomes.masked + m.outcomes.pending;
    mrows.push({ cells: [
      m.structure, m.entries, m.covered,
      (m.coverage_ratio * 100).toFixed(1) + "%",
      fmt(m.occupancy_mean) + " / " + m.entries,
      total, m.confidence ? fmt(m.avf) : "—", ci,
    ]});
  }
  fill("#microtel", mrows);
  var cc = st.stats && st.stats.cache;
  if (cc) {
    document.getElementById("cache").textContent =
      cc.hits + " hits · " + cc.misses + " misses · " +
      cc.singleflight_followers + " followers · hit ratio " +
      (cc.hit_ratio * 100).toFixed(1) + "% · " +
      cc.entries + " entries (" + cc.inflight + " in flight, " +
      cc.evicted + " evicted)";
  }
  document.getElementById("sched").textContent = JSON.stringify(st.stats, null, 1);
}

function onAlarm(ev) { /* state refresh carries the log; nothing extra */ }

// Connection management: EventSource would reconnect on its own, but a
// half-dead connection (proxy buffering, suspended laptop) keeps it
// silently "open". We own the loop instead: any gap in events beyond
// STALE_MS shows a staleness banner and a dead connection is torn down
// and redialed with jittered exponential backoff, so a restarted server
// never gets a synchronized stampede of dashboards.
var conn = document.getElementById("conn");
var staleBox = document.getElementById("stale");
var es = null;
var lastEvent = Date.now();
var backoffMs = 500;
var BACKOFF_MAX = 15000;
var STALE_MS = 7000; // > 3 state periods: unambiguous silence

function markEvent() { lastEvent = Date.now(); }

function connect() {
  if (es) es.close();
  es = new EventSource("/debug/avf/stream");
  es.onopen = function () {
    conn.textContent = "live";
    backoffMs = 500;
    markEvent();
  };
  es.onerror = function () {
    conn.textContent = "reconnecting…";
    es.close();
    var jitter = 0.5 + Math.random(); // 0.5x–1.5x: desynchronize clients
    var delay = Math.min(backoffMs * jitter, BACKOFF_MAX);
    backoffMs = Math.min(backoffMs * 2, BACKOFF_MAX);
    setTimeout(connect, delay);
  };
  es.addEventListener("estimate", function (ev) { markEvent(); onEstimate(ev); });
  es.addEventListener("state", function (ev) { markEvent(); onState(ev); });
  es.addEventListener("alarm", function (ev) { markEvent(); onAlarm(ev); });
}

setInterval(function () {
  var age = Date.now() - lastEvent;
  if (age > STALE_MS) {
    staleBox.style.display = "block";
    staleBox.textContent = "⚠ data is stale: last event " +
      Math.round(age / 1000) + "s ago (server unreachable or stream stalled)";
  } else {
    staleBox.style.display = "none";
  }
}, 1000);

connect();
</script>
</body>
</html>
`
