package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"avfsim/internal/flight"
	"avfsim/internal/sched"
	"avfsim/internal/softarch"
)

// TestSubmitRejectsSpecsRunCtxRejects: a spec RunCtx would refuse, or
// whose flight_cap or window exceeds its bound, gets a 400 at submission
// instead of a queued job that fails in the worker (or never returns).
// Each submission has a deadline, so a hanging handler is a failure
// rather than a stalled test run; the pool is not drained on cleanup for
// the same reason.
func TestSubmitRejectsSpecsRunCtxRejects(t *testing.T) {
	pool := sched.New(sched.Options{Workers: 1, QueueCap: 16})
	srv := New(pool, WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	t.Cleanup(func() {
		srv.CancelAll()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		pool.Shutdown(ctx)
	})
	h := srv.Handler()
	for _, body := range []string{
		`{"benchmark":"mesa","m":-5}`,
		`{"benchmark":"mesa","n":-1}`,
		`{"benchmark":"mesa","intervals":-3}`,
		`{"benchmark":"mesa","scale":2}`,
		`{"benchmark":"mesa","structures":["iq","iq"]}`,
		`{"benchmark":"mesa","lanes":-1}`,
		`{"benchmark":"mesa","lanes":65}`,
		`{"benchmark":"mesa","lanes":2}`,
		`{"benchmark":"mesa","lanes":8,"multiplex":true}`,
		`{"benchmark":"mesa","flight":true,"flight_cap":4611686018427387905}`,
		`{"benchmark":"mesa","flight":true,"flight_cap":1048577}`,
		`{"benchmark":"mesa","window":4611686018427387905}`,
		`{"benchmark":"mesa","window":1048577}`,
		`{"benchmark":"mesa","scale":0.02,"m":1099511627776,"n":16777216,"intervals":1}`,
		`{"benchmark":"mesa","m":2305843009213693952,"n":16,"lanes":64,"intervals":1}`,
	} {
		code := make(chan int, 1)
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
			code <- rec.Code
		}()
		select {
		case c := <-code:
			if c != http.StatusBadRequest {
				t.Errorf("spec %s: code %d, want 400", body, c)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("spec %s: submission did not return", body)
		}
	}
}

// TestSpecBoundsAccepted: the bounds themselves are valid specs.
func TestSpecBoundsAccepted(t *testing.T) {
	spec := JobSpec{Benchmark: "mesa", Flight: true, FlightCap: flight.MaxCap, Window: softarch.MaxWindow}
	if _, err := spec.runConfig(); err != nil {
		t.Fatal(err)
	}
}

// FuzzJobSpec: arbitrary bytes decoded the way handleSubmit decodes a
// spec never panic runConfig; a spec it accepts passes the validator
// RunCtx runs first, keeps flight_cap and window within their bounds,
// and has the same cache key as the spec re-decoded from its own JSON.
// The seeds under testdata/fuzz/FuzzJobSpec are a plain spec, lanes 64,
// flight, the two huge values, negative m, scale 2, duplicate
// structures, lanes 65, and lanes with multiplex.
func FuzzJobSpec(f *testing.F) {
	decode := func(b []byte) (JobSpec, error) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		err := dec.Decode(&spec)
		return spec, err
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := decode(raw)
		if err != nil {
			return
		}
		rc, err := spec.runConfig()
		if err != nil {
			return
		}
		if err := rc.Validate(); err != nil {
			t.Fatalf("accepted spec fails RunConfig.Validate: %v", err)
		}
		if spec.FlightCap > flight.MaxCap || spec.Window > softarch.MaxWindow {
			t.Fatalf("accepted flight_cap %d, window %d past their bounds", spec.FlightCap, spec.Window)
		}
		b, err := json.Marshal(&spec)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decode(b)
		if err != nil {
			t.Fatalf("re-decode %s: %v", b, err)
		}
		if cacheKeyOf(&again) != cacheKeyOf(&spec) {
			t.Fatalf("cache key changed across a JSON round trip: %s", b)
		}
	})
}
