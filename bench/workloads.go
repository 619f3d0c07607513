package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"avfsim/internal/core"
	"avfsim/internal/experiment"
	"avfsim/internal/workload"
)

// jobSpec is one operation's input: the avfd POST /v1/jobs body, which
// the simulator workloads translate to an experiment.RunConfig the way
// the daemon does.
type jobSpec struct {
	Benchmark string  `json:"benchmark"`
	Scale     float64 `json:"scale"`
	Seed      uint64  `json:"seed"`
	M         int64   `json:"m"`
	N         int     `json:"n"`
	Intervals int     `json:"intervals"`
	Lanes     int     `json:"lanes,omitempty"`
	Flight    bool    `json:"flight,omitempty"`
	Microtel  bool    `json:"microtel,omitempty"`
}

// runConfig is the library run the daemon executes for the spec; flight
// and microtel only observe, so they do not change the estimates.
func (s jobSpec) runConfig() experiment.RunConfig {
	return experiment.RunConfig{
		Benchmark: s.Benchmark, Scale: s.Scale, Seed: s.Seed,
		M: s.M, N: s.N, Intervals: s.Intervals, Lanes: s.Lanes,
	}
}

// structures is how many structures every job monitors (the paper's
// four; specs never override them).
const structures = 4

// benchWorkload is one set of inputs: job(seed, k) is the k-th operation
// of the timed window. Operations are issued in rounds of roundLen, and a
// window always ends on a whole round, so every run covers the same mix.
type benchWorkload struct {
	name     string
	svc      bool
	roundLen int
	// accuracyRounds is how many leading rounds avf_mae covers; every
	// window runs at least that many, so the seed alone fixes the value.
	accuracyRounds int
	job            func(seed uint64, k int) jobSpec
	// warm lists the untimed set-up operations.
	warm func(seed uint64) []jobSpec
}

var profiles = workload.Names()

// simJob is the k-th operation of a simulator workload: round r runs
// every profile once, in a seed-shuffled order. Each operation has its
// own run seed: a profile's cost per run moves by up to ±20% with the
// seed, so a window averages over as many seeds as it runs operations.
func simJob(n, lanes int) func(uint64, int) jobSpec {
	return func(seed uint64, k int) jobSpec {
		r, i := k/len(profiles), k%len(profiles)
		order := perm(mix(seed, uint64(r)), len(profiles))
		return jobSpec{
			Benchmark: profiles[order[i]], Scale: 0.02, Seed: mix(seed, uint64(k)),
			M: 1000, N: n, Intervals: 4, Lanes: lanes,
		}
	}
}

// simWarm runs each profile once for one interval.
func simWarm(n, lanes int) func(uint64) []jobSpec {
	return func(seed uint64) []jobSpec {
		var out []jobSpec
		for _, p := range profiles {
			out = append(out, jobSpec{Benchmark: p, Scale: 0.02, Seed: mix(seed, 1<<40),
				M: 1000, N: n, Intervals: 1, Lanes: lanes})
		}
		return out
	}
}

// missJob is the k-th svc-miss job: every spec is unique, and each round
// of 44 covers every profile with every job type.
func missJob(seed uint64, k int) jobSpec {
	s := jobSpec{
		Benchmark: profiles[k%len(profiles)], Scale: 0.02,
		Seed: mix(seed, uint64(k)), M: 1000, N: 50, Intervals: 6,
	}
	switch (k / len(profiles)) % 4 {
	case 1:
		s.Microtel = true
	case 2:
		s.Flight = true
	case 3:
		s.Lanes, s.N = 64, 1000
	}
	return s
}

func missWarm(seed uint64) []jobSpec {
	return []jobSpec{missJob(mix(seed, 1<<40), 0), missJob(mix(seed, 1<<40), 1)}
}

// dupLeaders is the number of distinct specs svc-dup's traffic repeats.
// They are many and small so that avf_mae, which they alone feed, varies
// little from seed to seed; each still streams 6 intervals.
const dupLeaders = 32

// dupLeader is the i-th distinct svc-dup spec: a plain job, so its
// repeats are served from the result cache.
func dupLeader(seed uint64, i int) jobSpec {
	return jobSpec{
		Benchmark: profiles[i%len(profiles)], Scale: 0.02,
		Seed: mix(seed, uint64(1<<41+i)), M: 1000, N: 12, Intervals: 6,
	}
}

func dupIndex(seed uint64, k int) int { return int(mix(seed, uint64(k)) % dupLeaders) }

func dupJob(seed uint64, k int) jobSpec { return dupLeader(seed, dupIndex(seed, k)) }

func dupWarm(seed uint64) []jobSpec {
	out := make([]jobSpec, dupLeaders)
	for i := range out {
		out[i] = dupLeader(seed, i)
	}
	return out
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json declares
// the same names.
var workloads = []benchWorkload{
	// The classic estimator's cycle loop: pipeline, softarch and core do
	// all the work and no service layer runs. The profiles span
	// cache-resident to streaming footprints against the modelled L1/L2.
	{name: "sim-classic", roundLen: 11, accuracyRounds: 4, job: simJob(100, 0), warm: simWarm(100, 0)},
	// The same grid through the 64-lane engine at the paper's N: lane
	// inject and conclude dominate while the classic path is idle, so an
	// estimator change must move both sim workloads without trading one
	// for the other.
	{name: "sim-lanes", roundLen: 11, accuracyRounds: 4, job: simJob(1000, 64), warm: simWarm(1000, 64)},
	// Unique jobs: every one simulates, appends WAL frames with fsyncs,
	// writes a cache entry and queues behind the other client's job.
	{name: "svc-miss", svc: true, roundLen: 44, accuracyRounds: 2, job: missJob, warm: missWarm},
	// Repeats of 32 jobs: admission, cache lookup, stream replay and HTTP
	// do all the work; no simulation or interval WAL frame runs.
	{name: "svc-dup", svc: true, roundLen: 512, accuracyRounds: 1, job: dupJob, warm: dupWarm},
}

func workloadByName(name string) (*benchWorkload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// quickSpec shrinks an operation about fiftyfold for -quick runs.
func quickSpec(s jobSpec) jobSpec {
	s.N /= 5
	if s.Intervals > 2 {
		s.Intervals = 2
	}
	return s
}

// dispenser hands out operation indices until the window's deadline has
// passed and the current round is complete, and for at least minRounds
// rounds.
type dispenser struct {
	mu                  sync.Mutex
	next                int
	stop                int // -1 until the deadline is seen
	roundLen, minRounds int
	deadline            time.Time
}

func newDispenser(w *benchWorkload, deadline time.Time) *dispenser {
	return &dispenser{stop: -1, roundLen: w.roundLen, minRounds: w.accuracyRounds, deadline: deadline}
}

func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stop < 0 && !time.Now().Before(d.deadline) {
		d.stop = max((d.next+d.roundLen-1)/d.roundLen, d.minRounds) * d.roundLen
	}
	if d.stop >= 0 && d.next >= d.stop {
		return 0, false
	}
	k := d.next
	d.next++
	return k, true
}

// streamEvent is one NDJSON line of GET /v1/jobs/{id}/stream.
type streamEvent struct {
	Type     string       `json:"type"`
	Interval *streamPoint `json:"interval"`
	State    string       `json:"state"`
	Error    string       `json:"error"`
}

type streamPoint struct {
	Structure  string  `json:"structure"`
	Interval   int     `json:"interval"`
	StartCycle int64   `json:"start_cycle"`
	EndCycle   int64   `json:"end_cycle"`
	AVF        float64 `json:"avf"`
	Failures   int     `json:"failures"`
	Injections int     `json:"injections"`
}

// checkStream is the stream-shape check: intervals x structures
// "interval" lines, each structure numbering its intervals 0..n-1, then
// one "end" line with state "done".
func checkStream(body []byte, intervals int) ([]streamPoint, error) {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	want := intervals*structures + 1
	if len(lines) != want {
		return nil, fmt.Errorf("stream shape: %d lines, want %d", len(lines), want)
	}
	next := map[string]int{}
	var pts []streamPoint
	for i, ln := range lines {
		var ev streamEvent
		if err := json.Unmarshal(ln, &ev); err != nil {
			return nil, fmt.Errorf("stream shape: line %d: %v", i+1, err)
		}
		if i == len(lines)-1 {
			if ev.Type != "end" || ev.State != "done" {
				return nil, fmt.Errorf("stream shape: last line is %q state %q (error %q), want end/done", ev.Type, ev.State, ev.Error)
			}
			break
		}
		if ev.Type != "interval" || ev.Interval == nil {
			return nil, fmt.Errorf("stream shape: line %d is %q, want interval", i+1, ev.Type)
		}
		p := *ev.Interval
		if p.Interval != next[p.Structure] {
			return nil, fmt.Errorf("stream shape: %s interval %d, want %d", p.Structure, p.Interval, next[p.Structure])
		}
		next[p.Structure]++
		pts = append(pts, p)
	}
	if len(next) != structures {
		return nil, fmt.Errorf("stream shape: %d structures, want %d", len(next), structures)
	}
	return pts, nil
}

// checkSameBytes is the cache-replay check: a hit's stream must be
// byte-identical to its leader's.
func checkSameBytes(got, leader []byte) error {
	if !bytes.Equal(got, leader) {
		return fmt.Errorf("cache replay: stream (%d bytes) differs from leader stream (%d bytes)", len(got), len(leader))
	}
	return nil
}

// checkRecompute is the recomputation check: the streamed points must
// equal, in order and exactly, the estimates experiment.RunCtx emits for
// the same spec.
func checkRecompute(streamed []streamPoint, ests []core.Estimate) error {
	if len(streamed) != len(ests) {
		return fmt.Errorf("recompute: %d streamed points, RunCtx emitted %d", len(streamed), len(ests))
	}
	for i, e := range ests {
		want := streamPoint{
			Structure: e.Structure.String(), Interval: e.Interval,
			StartCycle: e.StartCycle, EndCycle: e.EndCycle,
			AVF: e.AVF, Failures: e.Failures, Injections: e.Injections,
		}
		if streamed[i] != want {
			return fmt.Errorf("recompute: point %d is %+v, RunCtx gives %+v", i, streamed[i], want)
		}
	}
	return nil
}

// checkSeries is the sim output check: every structure has Intervals
// online and reference values, all within [0, 1].
func checkSeries(res *experiment.Result, intervals int) error {
	if len(res.Series) != structures {
		return fmt.Errorf("sim shape: %d structures, want %d", len(res.Series), structures)
	}
	for _, ss := range res.Series {
		for _, xs := range [][]float64{ss.Online, ss.Reference} {
			if len(xs) != intervals {
				return fmt.Errorf("sim shape: %s has %d intervals, want %d", ss.Structure, len(xs), intervals)
			}
			for _, x := range xs {
				if !(x >= 0 && x <= 1) {
					return fmt.Errorf("sim shape: %s AVF %v outside [0, 1]", ss.Structure, x)
				}
			}
		}
	}
	return nil
}

// checkSameSeries is the traced-wiring check: the benchmark's own
// layer-timed wiring must reproduce RunCtx's online and reference series
// exactly.
func checkSameSeries(traced, untraced []experiment.StructSeries) error {
	if len(traced) != len(untraced) {
		return fmt.Errorf("traced wiring: %d structures, RunCtx %d", len(traced), len(untraced))
	}
	for i := range traced {
		a, b := traced[i], untraced[i]
		if a.Structure != b.Structure || !sameFloats(a.Online, b.Online) || !sameFloats(a.Reference, b.Reference) {
			return fmt.Errorf("traced wiring: %s series differ from RunCtx", b.Structure)
		}
	}
	return nil
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkDropped is the span-completeness check of a traced service run:
// the daemon's span ring must not have dropped anything in the window.
func checkDropped(before, after float64) error {
	if after != before {
		return fmt.Errorf("spans: avfd_spans_dropped_total moved %v -> %v", before, after)
	}
	return nil
}

// absErr returns the mean |online - reference| over every interval and
// structure of the results, pooled.
func absErr(series [][]experiment.StructSeries) float64 {
	var sum float64
	var n int
	for _, ss := range series {
		for _, s := range ss {
			for i := range s.Online {
				sum += math.Abs(s.Online[i] - s.Reference[i])
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
