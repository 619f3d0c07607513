package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHTTPMetricsWrap(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r)

	var sawFlusher bool
	h := m.Wrap("GET /v1/jobs/{id}", func(w http.ResponseWriter, req *http.Request) {
		_, sawFlusher = w.(http.Flusher)
		if m.inFlight.Value() != 1 {
			t.Errorf("in-flight = %v during handler, want 1", m.inFlight.Value())
		}
		w.WriteHeader(http.StatusNotFound)
	})

	srv := httptest.NewServer(h)
	defer srv.Close()
	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/v1/jobs/job-" + string(rune('1'+i)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	if !sawFlusher {
		t.Fatal("middleware lost http.Flusher — NDJSON streaming would 500")
	}
	// Distinct job ids aggregate under the route pattern label.
	mustContain(t, expo(r),
		`avfd_http_requests_total{route="GET /v1/jobs/{id}",code="404"} 3`,
		`avfd_http_request_seconds_count{route="GET /v1/jobs/{id}"} 3`,
	)
	if m.inFlight.Value() != 0 {
		t.Fatalf("in-flight = %v after requests, want 0", m.inFlight.Value())
	}
}

// TestHTTPMetricsWrapWriteDeadline: a wrapped handler can still set its
// own write deadline, which streaming routes rely on to leave the
// server's absolute WriteTimeout.
func TestHTTPMetricsWrapWriteDeadline(t *testing.T) {
	m := NewHTTPMetrics(NewRegistry())
	errc := make(chan error, 1)
	h := m.Wrap("GET /stream", func(w http.ResponseWriter, req *http.Request) {
		errc <- http.NewResponseController(w).SetWriteDeadline(time.Now().Add(time.Second))
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := <-errc; err != nil {
		t.Fatalf("SetWriteDeadline through Wrap: %v", err)
	}
}

func TestHTTPMetricsDefaultCode(t *testing.T) {
	r := NewRegistry()
	m := NewHTTPMetrics(r)
	h := m.Wrap("GET /v1/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Write([]byte("ok")) // implicit 200, no WriteHeader call
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
	mustContain(t, expo(r), `avfd_http_requests_total{route="GET /v1/healthz",code="200"} 1`)
}

// TestTextHandlerContentType: /metrics must advertise the Prometheus
// text format version so scrapers pick the right parser.
func TestTextHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_scrapes_total", "Scrapes served.").Inc()
	srv := httptest.NewServer(r.TextHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	const want = "text/plain; version=0.0.4; charset=utf-8"
	if ct := resp.Header.Get("Content-Type"); ct != want {
		t.Errorf("content-type %q, want %q", ct, want)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, string(body), "test_scrapes_total 1")
}

// TestLabelValueEscaping: quotes, backslashes and newlines in label
// values (route patterns can carry any of them) must be escaped per the
// text format, and no raw newline may survive inside a label value —
// that would split the sample across lines and corrupt the scrape.
func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_paths_total", "Counts by path.", "path")
	v.With("quote \" backslash \\ newline\nend").Inc()

	out := expo(r)
	mustContain(t, out, `test_paths_total{path="quote \" backslash \\ newline\nend"} 1`)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "test_paths_total{") && !strings.HasSuffix(line, "} 1") {
			t.Errorf("sample line split by unescaped newline: %q", line)
		}
	}
}

// TestHelpEscaping: HELP text is escaped (backslash, newline) so
// multi-line help strings stay one comment line.
func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_help_total", "line one\nline two \\ done")
	mustContain(t, expo(r), `# HELP test_help_total line one\nline two \\ done`)
}
