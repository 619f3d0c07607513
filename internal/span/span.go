// Package span is a stdlib-only request-tracing subsystem for avfd.
//
// Every job carries a trace: a root "job" span minted at submit (or
// adopted from an inbound W3C traceparent header), with child spans
// for admission, queue wait, dispatch, per-interval simulation
// batches, WAL persistence, and result streaming. Completed spans are
// recorded into a bounded power-of-two ring (the same overwrite
// discipline as internal/flight), so recording is O(1), allocation
// bounded, and safe to leave on in production; the newest spans win
// when the ring wraps.
//
// The package also hosts the SLO error-budget engine (slo.go), which
// consumes terminal span outcomes to maintain per-class rolling error
// budgets and burn rates.
package span

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// TraceID is a W3C trace-context trace identifier (16 bytes, hex on
// the wire).
type TraceID [16]byte

// SpanID is a W3C trace-context parent/span identifier (8 bytes).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// MintTraceID returns a random non-zero trace ID.
func MintTraceID() TraceID {
	var t TraceID
	fillRand(t[:])
	return t
}

// MintSpanID returns a random non-zero span ID.
func MintSpanID() SpanID {
	var s SpanID
	fillRand(s[:])
	return s
}

// fillRand fills b with crypto/rand bytes and guarantees a non-zero
// result (the all-zero ID is invalid per the trace-context spec).
func fillRand(b []byte) {
	if _, err := rand.Read(b); err != nil {
		// crypto/rand never fails on supported platforms; if it somehow
		// does, a constant non-zero fallback keeps IDs valid.
		for i := range b {
			b[i] = byte(i + 1)
		}
	}
	allZero := true
	for _, c := range b {
		if c != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		b[len(b)-1] = 1
	}
}

// ParseTraceparent parses a W3C traceparent header
// ("00-<32 hex>-<16 hex>-<2 hex>") into its trace ID, parent span ID,
// and flags. Only version 00 is accepted; uppercase hex digits and
// all-zero trace or span IDs are rejected as the spec requires.
func ParseTraceparent(s string) (TraceID, SpanID, byte, error) {
	var t TraceID
	var p SpanID
	if len(s) != 55 {
		return t, p, 0, fmt.Errorf("span: traceparent length %d, want 55", len(s))
	}
	if s[0] != '0' || s[1] != '0' {
		return t, p, 0, fmt.Errorf("span: unsupported traceparent version %q", s[:2])
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return t, p, 0, fmt.Errorf("span: malformed traceparent %q", s)
	}
	if err := decodeLowerHex(t[:], s[3:35]); err != nil {
		return t, p, 0, fmt.Errorf("span: bad trace id: %w", err)
	}
	if err := decodeLowerHex(p[:], s[36:52]); err != nil {
		return t, p, 0, fmt.Errorf("span: bad parent span id: %w", err)
	}
	var fb [1]byte
	if err := decodeLowerHex(fb[:], s[53:55]); err != nil {
		return t, p, 0, fmt.Errorf("span: bad trace flags: %w", err)
	}
	if t.IsZero() {
		return t, p, 0, fmt.Errorf("span: all-zero trace id is invalid")
	}
	if p.IsZero() {
		return t, p, 0, fmt.Errorf("span: all-zero parent span id is invalid")
	}
	return t, p, fb[0], nil
}

// decodeLowerHex decodes s into dst. Trace context defines every
// traceparent field as lowercase hex (HEXDIGLC), so unlike hex.Decode
// it rejects the digits A-F.
func decodeLowerHex(dst []byte, s string) error {
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'F' {
			return fmt.Errorf("uppercase hex digit %q at offset %d", c, i)
		}
	}
	_, err := hex.Decode(dst, []byte(s))
	return err
}

// FormatTraceparent renders a version-00 traceparent header.
func FormatTraceparent(t TraceID, s SpanID, flags byte) string {
	return fmt.Sprintf("00-%s-%s-%02x", t, s, flags)
}

// Span is one completed, named interval of work within a trace. The
// JSON form is the wire format for the NDJSON export and the terminal
// summary persisted by internal/store.
type Span struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	// Parent is the parent span ID ("" for a locally-rooted span; for
	// a root adopted from an inbound traceparent it names the remote
	// caller's span).
	Parent string `json:"parent_id,omitempty"`
	// Name: job | admission | queue | dispatch | run | interval | wal
	// | stream.
	Name  string `json:"name"`
	Job   string `json:"job,omitempty"`
	Class string `json:"class,omitempty"`
	// Status is "ok" for non-terminal child spans; the root job span
	// ends with its terminal outcome (done | failed | canceled | shed
	// | deadline | rejected).
	Status          string            `json:"status"`
	Start           time.Time         `json:"start"`
	End             time.Time         `json:"end"`
	DurationSeconds float64           `json:"duration_seconds"`
	Attrs           map[string]string `json:"attrs,omitempty"`
}

// Recorder is a bounded ring of completed spans. The capacity is
// rounded up to a power of two; once full the oldest span is
// overwritten and Dropped() counts the loss.
type Recorder struct {
	mu      sync.Mutex
	buf     []Span
	mask    int
	head    int // index of the oldest recorded span
	size    int
	dropped int64
	total   int64
}

// DefaultCapacity bounds the span ring when no explicit capacity is
// configured: at ~10 spans per job this retains on the order of the
// last 1.6k jobs.
const DefaultCapacity = 1 << 14

// NewRecorder returns a recorder retaining at least capacity spans
// (rounded up to a power of two; min 16).
func NewRecorder(capacity int) *Recorder {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Recorder{buf: make([]Span, n), mask: n - 1}
}

// Record appends one completed span, overwriting the oldest when full.
// Nil-safe: a nil recorder drops the span, so call sites need no
// enabled check.
func (r *Recorder) Record(sp Span) {
	if r == nil {
		return
	}
	if sp.DurationSeconds == 0 && sp.End.After(sp.Start) {
		sp.DurationSeconds = sp.End.Sub(sp.Start).Seconds()
	}
	r.mu.Lock()
	if r.size == len(r.buf) {
		r.buf[r.head] = sp
		r.head = (r.head + 1) & r.mask
		r.dropped++
	} else {
		r.buf[(r.head+r.size)&r.mask] = sp
		r.size++
	}
	r.total++
	r.mu.Unlock()
}

// Len returns the number of spans currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// Dropped returns how many spans were overwritten by ring wrap.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Total returns how many spans were ever recorded.
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot copies the retained spans, oldest first.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, r.size)
	for i := 0; i < r.size; i++ {
		out[i] = r.buf[(r.head+i)&r.mask]
	}
	return out
}

// ForTrace returns the retained spans of one trace, sorted by start
// time (root-first when starts tie on coarse clocks).
func (r *Recorder) ForTrace(trace string) []Span {
	return r.filter(func(sp *Span) bool { return sp.TraceID == trace })
}

// ForJob returns the retained spans of one job, sorted by start time.
func (r *Recorder) ForJob(job string) []Span {
	return r.filter(func(sp *Span) bool { return sp.Job == job })
}

func (r *Recorder) filter(keep func(*Span) bool) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var out []Span
	for i := 0; i < r.size; i++ {
		sp := &r.buf[(r.head+i)&r.mask]
		if keep(sp) {
			out = append(out, *sp)
		}
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start.Equal(out[j].Start) {
			return out[i].Name == "job" && out[j].Name != "job"
		}
		return out[i].Start.Before(out[j].Start)
	})
	return out
}

// TraceSummary is the per-trace reduction served by GET /v1/traces:
// the root job span plus the retained span count for the trace.
type TraceSummary struct {
	TraceID         string    `json:"trace_id"`
	Job             string    `json:"job"`
	Class           string    `json:"class,omitempty"`
	Status          string    `json:"status"`
	Start           time.Time `json:"start"`
	DurationSeconds float64   `json:"duration_seconds"`
	Spans           int       `json:"spans"`
}

// Traces summarizes the retained traces that have a root "job" span,
// newest first. minDur filters on root duration (seconds); class and
// state filter on the root's class and terminal status ("" matches
// all); limit bounds the result (<=0 means no bound).
func (r *Recorder) Traces(minDur float64, class, state string, limit int) []TraceSummary {
	spans := r.Snapshot()
	counts := make(map[string]int, len(spans))
	roots := make(map[string]*Span, 8)
	for i := range spans {
		sp := &spans[i]
		counts[sp.TraceID]++
		if sp.Name == "job" {
			roots[sp.TraceID] = sp
		}
	}
	out := make([]TraceSummary, 0, len(roots))
	for id, root := range roots {
		if root.DurationSeconds < minDur {
			continue
		}
		if class != "" && root.Class != class {
			continue
		}
		if state != "" && root.Status != state {
			continue
		}
		out = append(out, TraceSummary{
			TraceID:         id,
			Job:             root.Job,
			Class:           root.Class,
			Status:          root.Status,
			Start:           root.Start,
			DurationSeconds: root.DurationSeconds,
			Spans:           counts[id],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// WriteNDJSON writes spans one JSON object per line.
func WriteNDJSON(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return fmt.Errorf("span: write ndjson: %w", err)
		}
	}
	return nil
}

// Active is an in-flight span produced by Recorder.Start*. It is
// nil-safe end to end: with spans disabled every method is a no-op on
// the nil receiver, so instrumentation sites carry no enabled checks.
// An Active must be ended by exactly one goroutine; attribute writes
// before End need no locking because the span is not yet visible to
// the recorder.
type Active struct {
	r  *Recorder
	sp Span
	id SpanID
}

// Start opens a span beginning now. A nil recorder returns a nil
// Active.
func (r *Recorder) Start(trace TraceID, parent SpanID, name string) *Active {
	if r == nil {
		return nil
	}
	return r.StartAt(trace, parent, name, time.Now())
}

// StartAt opens a span with an explicit start instant.
func (r *Recorder) StartAt(trace TraceID, parent SpanID, name string, start time.Time) *Active {
	if r == nil {
		return nil
	}
	a := &Active{r: r, id: MintSpanID()}
	a.sp = Span{
		TraceID: trace.String(),
		SpanID:  a.id.String(),
		Name:    name,
		Start:   start,
	}
	if !parent.IsZero() {
		a.sp.Parent = parent.String()
	}
	return a
}

// ID returns the span's ID (zero for the nil Active).
func (a *Active) ID() SpanID {
	if a == nil {
		return SpanID{}
	}
	return a.id
}

// SetJob attributes the span to a job and SLO class.
func (a *Active) SetJob(job, class string) {
	if a == nil {
		return
	}
	a.sp.Job = job
	a.sp.Class = class
}

// SetAttr attaches one key/value attribute.
func (a *Active) SetAttr(key, value string) {
	if a == nil {
		return
	}
	if a.sp.Attrs == nil {
		a.sp.Attrs = make(map[string]string, 4)
	}
	a.sp.Attrs[key] = value
}

// End completes the span now and records it.
func (a *Active) End(status string) {
	if a == nil {
		return
	}
	a.EndAt(status, time.Now())
}

// EndAt completes the span at an explicit instant and records it.
// Repeated End calls record only once.
func (a *Active) EndAt(status string, end time.Time) {
	if a == nil || a.r == nil {
		return
	}
	a.sp.Status = status
	a.sp.End = end
	a.sp.DurationSeconds = end.Sub(a.sp.Start).Seconds()
	a.r.Record(a.sp)
	a.r = nil
}
