// Package load is avfd's workload-spec traffic-generation layer: it
// turns a declarative YAML/JSON *workload spec* — named clients, each
// with an AVF job template, a rate fraction of an aggregate submit
// rate, an arrival process, an SLO class, and time-varying load
// (diurnal multipliers + scheduled events) — into a deterministic,
// seeded submit schedule, and it scores a run's recorded timeline
// against the spec's embedded SLO assertions.
//
// The schema is modeled on the BLIS workload-spec (multi-client YAML
// with per-client arrival processes, rate fractions, and slo_class
// tiers); the paper's AVF-estimation jobs take the place of inference
// requests. Everything is deterministic in (spec, seed): the same spec
// and seed always produce the same submit schedule, byte for byte —
// the property the CI load-smoke leans on.
package load

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"avfsim/internal/sched"
	"avfsim/internal/workload"
)

// Spec is one workload: a set of traffic clients sharing an aggregate
// submit rate, plus embedded SLO assertions that gate a run.
type Spec struct {
	// Version is the schema version ("1"; empty accepted).
	Version string `json:"version,omitempty"`
	// Name labels the workload in summaries and timelines.
	Name string `json:"name,omitempty"`
	// Seed drives every arrival process; same (spec, seed) = same
	// schedule. Overridable from the avfload command line.
	Seed uint64 `json:"seed"`
	// AggregateRate is the total intended submit rate (jobs/second of
	// spec time) across all clients, before time-varying multipliers.
	AggregateRate float64 `json:"aggregate_rate"`
	// DurationSeconds is the generation horizon in spec time.
	DurationSeconds float64 `json:"duration_seconds"`
	// HourSeconds maps spec-time seconds to one diurnal "hour" (default
	// 3600). Load tests compress a day: hour_seconds=1 makes the 24-entry
	// diurnal profile cycle every 24s.
	HourSeconds float64 `json:"hour_seconds,omitempty"`
	// Clients are the traffic sources.
	Clients []ClientSpec `json:"clients"`
	// Events are scheduled load changes ("batch surge at +30s") applied
	// multiplicatively to matching clients' rates.
	Events []EventSpec `json:"events,omitempty"`
	// SLOs are the assertions a run must satisfy (avfload exits nonzero
	// otherwise).
	SLOs []Assertion `json:"slos,omitempty"`
}

// ClientSpec is one traffic source.
type ClientSpec struct {
	// ID names the client in timelines and summaries (required, unique).
	ID string `json:"id"`
	// RateFraction is this client's share of AggregateRate (> 0; the
	// fractions need not sum to 1, but may not exceed it).
	RateFraction float64 `json:"rate_fraction"`
	// SLOClass is the scheduling tier submitted with every job:
	// critical | standard | sheddable | batch ("" = standard).
	SLOClass string `json:"slo_class,omitempty"`
	// Arrival picks the arrival process.
	Arrival ArrivalSpec `json:"arrival"`
	// Job is the AVF job template submitted at each arrival.
	Job JobTemplate `json:"job"`
	// Diurnal, when present, is 24 per-hour rate multipliers (hour 0 is
	// t=0; hours advance every Spec.HourSeconds and wrap).
	Diurnal []float64 `json:"diurnal,omitempty"`
}

// ArrivalSpec configures a client's arrival process.
type ArrivalSpec struct {
	// Process is "poisson" (memoryless; default) or "gamma-burst"
	// (gamma-distributed inter-arrivals with CV > 1: clumps of
	// arrivals separated by long gaps).
	Process string `json:"process,omitempty"`
	// CV is the gamma-burst coefficient of variation (default 4;
	// ignored for poisson). Larger = burstier.
	CV float64 `json:"cv,omitempty"`
}

const (
	ProcessPoisson    = "poisson"
	ProcessGammaBurst = "gamma-burst"
)

// defaultCV is the gamma-burst burstiness when the spec doesn't say:
// CV 4 → gamma shape 1/16, strongly clumped arrivals.
const defaultCV = 4.0

// JobTemplate is the avfd job spec submitted at each arrival — the wire
// fields of POST /v1/jobs (SLO class comes from the client).
type JobTemplate struct {
	Benchmark string  `json:"benchmark"`
	Scale     float64 `json:"scale,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
	// SeedStride varies the job seed per submission (seed + i*stride for
	// the client's i-th arrival): 0 submits identical jobs every time.
	SeedStride uint64   `json:"seed_stride,omitempty"`
	M          int64    `json:"m,omitempty"`
	N          int      `json:"n,omitempty"`
	Intervals  int      `json:"intervals,omitempty"`
	Structures []string `json:"structures,omitempty"`
	// Lanes > 1 submits multi-lane jobs (see the avfd lanes field):
	// concurrent injection experiments sharing one cycle loop.
	Lanes  int  `json:"lanes,omitempty"`
	Flight bool `json:"flight,omitempty"`
	// Microtel submits jobs with the microarchitectural telemetry
	// collector attached (see the avfd microtel field): occupancy
	// residency, injection coverage, and confidence surfaces.
	Microtel        bool    `json:"microtel,omitempty"`
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
}

// EventSpec is one scheduled load change.
type EventSpec struct {
	// AtSeconds / DurationSeconds bound the event window in spec time.
	AtSeconds       float64 `json:"at_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`
	// RateMultiplier scales matching clients' rates inside the window
	// (0 silences them; overlapping events multiply).
	RateMultiplier float64 `json:"rate_multiplier"`
	// Clients filters which client IDs the event applies to (empty =
	// all).
	Clients []string `json:"clients,omitempty"`
}

// applies reports whether the event covers client id at time t.
func (e *EventSpec) applies(id string, t float64) bool {
	if t < e.AtSeconds || t >= e.AtSeconds+e.DurationSeconds {
		return false
	}
	if len(e.Clients) == 0 {
		return true
	}
	for _, c := range e.Clients {
		if c == id {
			return true
		}
	}
	return false
}

// names reports whether the event's filter includes client id at any
// time.
func (e *EventSpec) names(id string) bool {
	if len(e.Clients) == 0 {
		return true
	}
	for _, c := range e.Clients {
		if c == id {
			return true
		}
	}
	return false
}

// Assertion is one embedded SLO: a bound on a summary metric, scoped to
// an SLO class, a client, or the whole run.
type Assertion struct {
	// Class scopes the assertion to one SLO tier ("" = the whole run).
	Class string `json:"class,omitempty"`
	// Client scopes the assertion to one client ID (mutually exclusive
	// with Class).
	Client string `json:"client,omitempty"`
	// Metric names the summary metric (see Metrics in timeline.go):
	// e.g. accept_p99_ms, shed_count, shed_rate, rejected, done.
	Metric string `json:"metric"`
	// Max/Min bound the metric value (inclusive); at least one must be
	// set.
	Max *float64 `json:"max,omitempty"`
	Min *float64 `json:"min,omitempty"`
}

func (a *Assertion) scope() string {
	switch {
	case a.Client != "":
		return "client " + a.Client
	case a.Class != "":
		return "class " + a.Class
	}
	return "total"
}

// hourSeconds returns the diurnal hour length with the default applied.
func (s *Spec) hourSeconds() float64 {
	if s.HourSeconds > 0 {
		return s.HourSeconds
	}
	return 3600
}

// Validate checks the spec's internal consistency, resolving every name
// that would otherwise fail at submit time (benchmarks, SLO classes,
// metrics) so a bad spec dies with a line-item error instead of a
// half-run load test.
func (s *Spec) Validate() error {
	if s.Version != "" && s.Version != "1" {
		return fmt.Errorf("load: unsupported spec version %q", s.Version)
	}
	if s.AggregateRate <= 0 {
		return fmt.Errorf("load: aggregate_rate must be > 0 (got %v)", s.AggregateRate)
	}
	if s.DurationSeconds <= 0 {
		return fmt.Errorf("load: duration_seconds must be > 0 (got %v)", s.DurationSeconds)
	}
	if s.HourSeconds < 0 {
		return fmt.Errorf("load: hour_seconds must be >= 0")
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("load: spec has no clients")
	}
	seen := map[string]bool{}
	var fracSum float64
	for i := range s.Clients {
		c := &s.Clients[i]
		if c.ID == "" {
			return fmt.Errorf("load: client %d has no id", i)
		}
		if seen[c.ID] {
			return fmt.Errorf("load: duplicate client id %q", c.ID)
		}
		seen[c.ID] = true
		if c.RateFraction <= 0 {
			return fmt.Errorf("load: client %q rate_fraction must be > 0", c.ID)
		}
		fracSum += c.RateFraction
		if _, err := sched.ParseClass(c.SLOClass); err != nil {
			return fmt.Errorf("load: client %q: %w", c.ID, err)
		}
		switch c.Arrival.Process {
		case "", ProcessPoisson, ProcessGammaBurst:
		default:
			return fmt.Errorf("load: client %q: unknown arrival process %q (want poisson|gamma-burst)", c.ID, c.Arrival.Process)
		}
		if c.Arrival.CV < 0 {
			return fmt.Errorf("load: client %q: arrival cv must be >= 0", c.ID)
		}
		if c.Job.Benchmark == "" {
			return fmt.Errorf("load: client %q has no job.benchmark", c.ID)
		}
		if _, err := workload.ByName(c.Job.Benchmark); err != nil {
			return fmt.Errorf("load: client %q: %w", c.ID, err)
		}
		if n := len(c.Diurnal); n != 0 && n != 24 {
			return fmt.Errorf("load: client %q diurnal has %d entries, want 24", c.ID, n)
		}
		var dmax float64
		for h, m := range c.Diurnal {
			if m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
				return fmt.Errorf("load: client %q diurnal[%d] = %v invalid", c.ID, h, m)
			}
			dmax = math.Max(dmax, m)
		}
		if len(c.Diurnal) == 24 && dmax == 0 {
			return fmt.Errorf("load: client %q diurnal is all zeros", c.ID)
		}
	}
	if fracSum > 1.0000001 {
		return fmt.Errorf("load: client rate_fractions sum to %.4f (> 1)", fracSum)
	}
	for i := range s.Events {
		e := &s.Events[i]
		if e.AtSeconds < 0 {
			return fmt.Errorf("load: event %d at_seconds must be >= 0", i)
		}
		if e.DurationSeconds <= 0 {
			return fmt.Errorf("load: event %d duration_seconds must be > 0", i)
		}
		if e.RateMultiplier < 0 || math.IsNaN(e.RateMultiplier) || math.IsInf(e.RateMultiplier, 0) {
			return fmt.Errorf("load: event %d rate_multiplier = %v invalid", i, e.RateMultiplier)
		}
		for _, id := range e.Clients {
			if !seen[id] {
				return fmt.Errorf("load: event %d names unknown client %q", i, id)
			}
		}
	}
	for i := range s.SLOs {
		a := &s.SLOs[i]
		if a.Class != "" && a.Client != "" {
			return fmt.Errorf("load: slo %d sets both class and client", i)
		}
		if a.Class != "" {
			if _, err := sched.ParseClass(a.Class); err != nil {
				return fmt.Errorf("load: slo %d: %w", i, err)
			}
		}
		if a.Client != "" && !seen[a.Client] {
			return fmt.Errorf("load: slo %d names unknown client %q", i, a.Client)
		}
		if !knownMetric(a.Metric) {
			return fmt.Errorf("load: slo %d: unknown metric %q (known: %s)", i, a.Metric, strings.Join(MetricNames(), ", "))
		}
		if a.Max == nil && a.Min == nil {
			return fmt.Errorf("load: slo %d (%s %s) has neither max nor min", i, a.scope(), a.Metric)
		}
	}
	return nil
}

// Parse decodes a workload spec from JSON or the YAML subset (sniffed
// from the first non-space byte) and validates it.
func Parse(data []byte) (*Spec, error) {
	trimmed := strings.TrimLeft(string(data), " \t\r\n")
	var jsonData []byte
	if strings.HasPrefix(trimmed, "{") {
		jsonData = data
	} else {
		v, err := parseYAML(string(data))
		if err != nil {
			return nil, fmt.Errorf("load: parse yaml: %w", err)
		}
		jsonData, err = json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("load: yaml to json: %w", err)
		}
	}
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(jsonData)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("load: decode spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads and parses a spec file.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Name == "" {
		s.Name = strings.TrimSuffix(strings.TrimSuffix(path[strings.LastIndexByte(path, '/')+1:], ".yaml"), ".json")
	}
	return s, nil
}

// wireJob is the POST /v1/jobs body built from a template: field order
// fixed by the struct so the rendered bytes are deterministic.
type wireJob struct {
	Benchmark       string   `json:"benchmark"`
	Scale           float64  `json:"scale,omitempty"`
	Seed            uint64   `json:"seed,omitempty"`
	M               int64    `json:"m,omitempty"`
	N               int      `json:"n,omitempty"`
	Intervals       int      `json:"intervals,omitempty"`
	Structures      []string `json:"structures,omitempty"`
	Lanes           int      `json:"lanes,omitempty"`
	Flight          bool     `json:"flight,omitempty"`
	Microtel        bool     `json:"microtel,omitempty"`
	DeadlineSeconds float64  `json:"deadline_seconds,omitempty"`
	SLOClass        string   `json:"slo_class,omitempty"`
}

// Body renders the i-th submission body for client c: the job template
// with the client's slo_class and the stride-advanced seed.
func (s *Spec) Body(client int, i int) []byte {
	c := &s.Clients[client]
	w := wireJob{
		Benchmark:       c.Job.Benchmark,
		Scale:           c.Job.Scale,
		Seed:            c.Job.Seed + uint64(i)*c.Job.SeedStride,
		M:               c.Job.M,
		N:               c.Job.N,
		Intervals:       c.Job.Intervals,
		Structures:      c.Job.Structures,
		Lanes:           c.Job.Lanes,
		Flight:          c.Job.Flight,
		Microtel:        c.Job.Microtel,
		DeadlineSeconds: c.Job.DeadlineSeconds,
		SLOClass:        c.SLOClass,
	}
	b, err := json.Marshal(&w)
	if err != nil {
		panic(fmt.Sprintf("load: marshal job body: %v", err)) // unreachable: plain fields
	}
	return b
}

// Class returns a client's parsed SLO tier (validated earlier).
func (c *ClientSpec) Class() sched.Class {
	cl, _ := sched.ParseClass(c.SLOClass)
	return cl
}
