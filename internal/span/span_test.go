package span

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid := MintTraceID()
	sid := MintSpanID()
	hdr := FormatTraceparent(tid, sid, 0x01)
	if len(hdr) != 55 {
		t.Fatalf("traceparent length = %d, want 55: %q", len(hdr), hdr)
	}
	gt, gs, flags, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", hdr, err)
	}
	if gt != tid || gs != sid || flags != 0x01 {
		t.Fatalf("round trip mismatch: got (%s, %s, %02x), want (%s, %s, 01)", gt, gs, flags, tid, sid)
	}
}

func TestParseTraceparentW3CExample(t *testing.T) {
	// The example header from the W3C trace-context spec.
	hdr := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tid, sid, flags, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("ParseTraceparent: %v", err)
	}
	if tid.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %s", tid)
	}
	if sid.String() != "00f067aa0ba902b7" {
		t.Errorf("span id = %s", sid)
	}
	if flags != 1 {
		t.Errorf("flags = %02x, want 01", flags)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01", // non-hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // separator
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01", // uppercase span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0A", // uppercase flags
		"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01", // all uppercase
	}
	for _, s := range bad {
		if _, _, _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted invalid input", s)
		}
	}
}

// FuzzParseTraceparent checks that every input either fails to parse
// or names two non-zero IDs and formats back to itself byte for byte:
// the parser accepts exactly the headers FormatTraceparent emits. The
// seed corpus is in testdata/fuzz/FuzzParseTraceparent.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		tid, sid, flags, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		if tid.IsZero() || sid.IsZero() {
			t.Fatalf("ParseTraceparent(%q) accepted an all-zero ID", s)
		}
		if got := FormatTraceparent(tid, sid, flags); got != s {
			t.Fatalf("ParseTraceparent(%q) formats back as %q", s, got)
		}
	})
}

func TestMintIDsNonZeroAndDistinct(t *testing.T) {
	if MintTraceID().IsZero() || MintSpanID().IsZero() {
		t.Fatal("minted an all-zero ID")
	}
	if MintTraceID() == MintTraceID() {
		t.Fatal("two minted trace IDs collided")
	}
}

func TestRecorderRingBound(t *testing.T) {
	r := NewRecorder(10) // rounds to 16
	base := time.Unix(1000, 0)
	for i := 0; i < 40; i++ {
		r.Record(Span{
			TraceID: fmt.Sprintf("t%02d", i), SpanID: "s", Name: "run",
			Start: base.Add(time.Duration(i) * time.Second),
			End:   base.Add(time.Duration(i)*time.Second + time.Millisecond),
		})
	}
	if got := r.Len(); got != 16 {
		t.Fatalf("Len = %d, want 16", got)
	}
	if got := r.Total(); got != 40 {
		t.Fatalf("Total = %d, want 40", got)
	}
	if got := r.Dropped(); got != 24 {
		t.Fatalf("Dropped = %d, want 24", got)
	}
	snap := r.Snapshot()
	if snap[0].TraceID != "t24" || snap[15].TraceID != "t39" {
		t.Fatalf("ring kept wrong window: first=%s last=%s", snap[0].TraceID, snap[15].TraceID)
	}
	// Duration is derived when omitted.
	if snap[0].DurationSeconds != 0.001 {
		t.Fatalf("derived duration = %v, want 0.001", snap[0].DurationSeconds)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(Span{})
	a := r.Start(MintTraceID(), SpanID{}, "x")
	if a != nil {
		t.Fatal("nil recorder returned non-nil Active")
	}
	a.SetJob("j", "standard")
	a.SetAttr("k", "v")
	a.End("ok")
	if a.ID() != (SpanID{}) {
		t.Fatal("nil Active returned non-zero ID")
	}
	if r.Len() != 0 || r.Snapshot() != nil || r.ForJob("j") != nil {
		t.Fatal("nil recorder retained state")
	}
}

func TestActiveLifecycle(t *testing.T) {
	r := NewRecorder(64)
	tid := MintTraceID()
	root := r.Start(tid, SpanID{}, "job")
	root.SetJob("job-1", "critical")
	child := r.Start(tid, root.ID(), "queue")
	child.SetJob("job-1", "critical")
	child.SetAttr("class", "critical")
	child.End("ok")
	root.End("done")
	root.End("done") // double End must not double-record

	spans := r.ForTrace(tid.String())
	if len(spans) != 2 {
		t.Fatalf("ForTrace returned %d spans, want 2", len(spans))
	}
	if spans[0].Name != "job" || spans[0].Status != "done" {
		t.Fatalf("root = %+v", spans[0])
	}
	if spans[1].Parent != root.ID().String() {
		t.Fatalf("child parent = %q, want %q", spans[1].Parent, root.ID())
	}
	if spans[1].Attrs["class"] != "critical" {
		t.Fatalf("child attrs = %v", spans[1].Attrs)
	}
	if got := r.ForJob("job-1"); len(got) != 2 {
		t.Fatalf("ForJob returned %d spans, want 2", len(got))
	}
}

func TestTracesQuery(t *testing.T) {
	r := NewRecorder(64)
	base := time.Unix(2000, 0)
	add := func(trace, job, class, status string, start time.Time, dur float64, extraChildren int) {
		r.Record(Span{TraceID: trace, SpanID: "r" + trace, Name: "job", Job: job,
			Class: class, Status: status, Start: start, DurationSeconds: dur,
			End: start.Add(time.Duration(dur * float64(time.Second)))})
		for i := 0; i < extraChildren; i++ {
			r.Record(Span{TraceID: trace, SpanID: fmt.Sprintf("c%s%d", trace, i),
				Name: "queue", Job: job, Start: start, End: start})
		}
	}
	add("aaa", "job-1", "critical", "done", base, 0.5, 2)
	add("bbb", "job-2", "batch", "shed", base.Add(time.Second), 2.0, 0)
	add("ccc", "job-3", "critical", "done", base.Add(2*time.Second), 3.0, 1)

	all := r.Traces(0, "", "", 0)
	if len(all) != 3 {
		t.Fatalf("Traces returned %d, want 3", len(all))
	}
	if all[0].TraceID != "ccc" { // newest first
		t.Fatalf("first trace = %s, want ccc", all[0].TraceID)
	}
	if all[0].Spans != 2 || all[2].Spans != 3 {
		t.Fatalf("span counts wrong: %+v", all)
	}

	if got := r.Traces(1.0, "", "", 0); len(got) != 2 {
		t.Fatalf("min_dur filter returned %d, want 2", len(got))
	}
	if got := r.Traces(0, "critical", "", 0); len(got) != 2 {
		t.Fatalf("class filter returned %d, want 2", len(got))
	}
	if got := r.Traces(0, "", "shed", 0); len(got) != 1 || got[0].Job != "job-2" {
		t.Fatalf("state filter returned %+v", got)
	}
	if got := r.Traces(0, "", "", 1); len(got) != 1 {
		t.Fatalf("limit returned %d, want 1", len(got))
	}
}

func TestWriteNDJSON(t *testing.T) {
	r := NewRecorder(16)
	tid := MintTraceID()
	a := r.Start(tid, SpanID{}, "job")
	a.SetJob("job-9", "standard")
	a.End("done")
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	var sp Span
	if err := json.Unmarshal([]byte(lines[0]), &sp); err != nil {
		t.Fatalf("NDJSON line does not round-trip: %v", err)
	}
	if sp.TraceID != tid.String() || sp.Job != "job-9" || sp.Status != "done" {
		t.Fatalf("round-tripped span = %+v", sp)
	}
}
