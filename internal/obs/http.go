package obs

import (
	"net/http"
	"strconv"
	"time"
)

// HTTPMetrics instruments an HTTP route table:
//
//	avfd_http_requests_total{route,code}  completed requests
//	avfd_http_request_seconds{route}      handler latency histogram
//	avfd_http_in_flight                   requests currently being served
type HTTPMetrics struct {
	reqs     *CounterVec
	latency  *HistogramVec
	inFlight *Gauge
}

// NewHTTPMetrics registers the HTTP families in r.
func NewHTTPMetrics(r *Registry) *HTTPMetrics {
	return &HTTPMetrics{
		reqs: r.CounterVec("avfd_http_requests_total",
			"HTTP requests completed, by route pattern and status code.",
			"route", "code"),
		latency: r.HistogramVec("avfd_http_request_seconds",
			"HTTP handler latency in seconds, by route pattern.",
			DefSecondsBuckets, "route"),
		inFlight: r.Gauge("avfd_http_in_flight",
			"HTTP requests currently being served."),
	}
}

// statusWriter captures the response code. It deliberately does not
// implement http.Flusher; streaming routes wrap with flushWriter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer, so
// streaming handlers can set per-write deadlines through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// flushWriter adds Flush passthrough for streaming handlers (the
// NDJSON stream type-asserts http.Flusher on its ResponseWriter).
type flushWriter struct {
	*statusWriter
	f http.Flusher
}

func (w *flushWriter) Flush() { w.f.Flush() }

// Wrap instruments h under the given route label. The label is the
// registration pattern, not the raw URL, so per-job paths aggregate
// into one series instead of one per job id. Requests carrying a W3C
// traceparent header attach its trace ID as the latency exemplar, so
// a slow bucket names a trace to pull.
func (m *HTTPMetrics) Wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := m.latency.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		m.inFlight.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		var out http.ResponseWriter = sw
		if f, ok := w.(http.Flusher); ok {
			out = &flushWriter{statusWriter: sw, f: f}
		}
		h(out, r)
		hist.ObserveEx(time.Since(start).Seconds(), traceIDFromHeader(r))
		m.reqs.With(route, strconv.Itoa(sw.code)).Inc()
		m.inFlight.Add(-1)
	}
}

// traceIDFromHeader extracts the 32-hex trace ID from a version-00
// traceparent header, without depending on internal/span (obs sits
// below it). Malformed headers yield "" (no exemplar).
func traceIDFromHeader(r *http.Request) string {
	tp := r.Header.Get("traceparent")
	if len(tp) != 55 || tp[:3] != "00-" || tp[35] != '-' {
		return ""
	}
	id := tp[3:35]
	zero := true
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9':
			if c != '0' {
				zero = false
			}
		case c >= 'a' && c <= 'f':
			zero = false
		default:
			return ""
		}
	}
	if zero {
		return ""
	}
	return id
}
