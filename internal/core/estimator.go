// Package core implements the paper's contribution: online AVF estimation
// by emulated statistical fault injection (Algorithm 1).
//
// For each monitored structure the estimator repeatedly (1) injects an
// emulated error by setting an error bit, (2) lets the program's own
// execution propagate it for M cycles, (3) counts a potential failure if a
// load, store, or branch retires carrying the bit, (4) clears all error
// bits and injects again. After N injections the AVF estimate is
// failures/N. With the paper's M = N = 1000, one estimate is produced per
// one-million-cycle interval.
package core

import (
	"errors"
	"fmt"
	"math"

	"avfsim/internal/isa"
	"avfsim/internal/obs"
	"avfsim/internal/pipeline"
	"avfsim/internal/stats"
)

// Options configures an Estimator.
type Options struct {
	// M is the number of cycles to wait after each injection for the
	// error to (potentially) propagate to a failure point (Section 3.4;
	// the paper uses 1000).
	M int64
	// N is the number of injections per AVF estimate (Section 3.3; the
	// paper uses 1000). The estimation interval is M*N cycles.
	N int
	// Structures selects what to monitor. Defaults to the paper's four
	// (IQ, REG, FXU, FPU).
	Structures []pipeline.Structure
	// RandomEntry selects injection targets uniformly at random instead
	// of the paper's hardware-friendly round-robin (ablation).
	RandomEntry bool
	// RandomSchedule randomizes the inter-injection gap (uniform in
	// [1, 2M), mean M) instead of the paper's fixed-interval schedule
	// (ablation: Section 3.3 notes fixed intervals approximate random
	// sampling).
	RandomSchedule bool
	// Seed drives the ablation randomizations.
	Seed uint64
	// RecordLatency collects injection-to-failure latencies (Figure 2).
	RecordLatency bool
	// OnInterval, when non-nil, is invoked synchronously (from Tick)
	// each time a per-interval estimate completes for any monitored
	// structure, with Estimate.Structure identifying which. It lets a
	// consumer stream estimates as they are produced instead of
	// buffering the whole series; the batch accessors (Estimates,
	// AVFSeries) are unaffected.
	OnInterval func(Estimate)
	// Sink, when non-nil, receives one obs.Injection lifecycle record
	// per concluded injection (structure, entry, inject cycle, outcome,
	// propagation latency, failure instruction class, live error-bit
	// population). When nil — the default — the estimator records
	// nothing and the hot path pays only nil checks; see
	// TestTickAllocatesNothingObsDisabled.
	Sink obs.Sink
	// OnConcludeScan, when non-nil, is invoked once per injection
	// boundary — the cycles where the estimator concludes expired
	// experiments and injects replacements, i.e. exactly where it
	// already performs its fused full-machine scans (ClearPlanes /
	// PlanePopulations). Microarchitectural telemetry
	// (internal/microtel) hangs occupancy sampling here so enabling it
	// adds no per-cycle work: between boundaries the hot path is
	// untouched, and a nil hook (the default) costs one nil check per
	// boundary, preserving the zero-allocation guarantee.
	OnConcludeScan func(cycle int64)
	// Multiplex emulates the true hardware cost model: a single error
	// bit per value means only ONE emulated error may be live in the
	// whole machine, so injections rotate across the monitored
	// structures. Each structure then needs len(Structures)×M×N cycles
	// per estimate instead of M×N. (By default every structure has a
	// live error of its own, estimating all of them concurrently —
	// equivalent per-injection, 4× faster wall-clock for four
	// structures.) On the lane table this is the injection policy "a
	// concluded lane passes the turn to the next lane" (lanes.go).
	Multiplex bool
	// Lanes > 1 runs up to pipeline.MaxLanes independent experiments on
	// the same cycle loop, each on its own error-bit lane, assigned
	// round-robin to the monitored structures (lane i → Structures[i %
	// len] on bit i). Error propagation is purely bitwise, so the
	// experiments compose without interacting, and N injections complete
	// ~Lanes/len(Structures) times faster in simulated cycles, with one
	// RandomSchedule gap drawn per lane. Lanes <= 1 (the default) binds
	// one lane per structure to the structure's own plane bit, with one
	// gap per boundary — the paper's layout. Incompatible with Multiplex
	// (whose point is ONE live error machine-wide).
	Lanes int
}

// Validate reports why NewEstimator would reject o, or nil. Empty
// Structures stands for the paper's four.
func (o Options) Validate() error {
	if o.M <= 0 {
		return errors.New("core: Options.M must be positive")
	}
	if o.N <= 0 {
		return errors.New("core: Options.N must be positive")
	}
	if len(o.Structures) == 0 {
		o.Structures = pipeline.PaperStructures
	}
	var seen [pipeline.NumStructures]bool
	for _, s := range o.Structures {
		if int(s) < 0 || int(s) >= pipeline.NumStructures {
			return fmt.Errorf("core: invalid structure %d", s)
		}
		if seen[s] {
			return fmt.Errorf("core: duplicate structure %v", s)
		}
		seen[s] = true
	}
	if o.Lanes > pipeline.MaxLanes {
		return fmt.Errorf("core: Options.Lanes %d exceeds %d", o.Lanes, pipeline.MaxLanes)
	}
	if o.Lanes > 1 {
		if o.Multiplex {
			return errors.New("core: Options.Lanes > 1 is incompatible with Multiplex")
		}
		if o.Lanes < len(o.Structures) {
			return fmt.Errorf("core: Options.Lanes %d < %d monitored structures (each needs at least one lane)",
				o.Lanes, len(o.Structures))
		}
	}
	return nil
}

// Estimate is one per-interval AVF estimate for one structure.
type Estimate struct {
	// Structure is the monitored structure this estimate belongs to.
	Structure pipeline.Structure
	// Interval is the 0-based estimation-interval index.
	Interval int
	// StartCycle and EndCycle delimit the interval.
	StartCycle, EndCycle int64
	// AVF is failures/injections.
	AVF float64
	// Failures and Injections are the raw counters.
	Failures, Injections int
}

// StdErr returns the binomial standard error of the estimate,
// sqrt(p·(1-p)/n): each interval is n independent injections each
// failing with probability ≈ AVF, so this is the sampling noise an
// estimate carries before any real workload shift — the noise floor
// downstream consumers (the drift detector) must not alarm on.
func (e Estimate) StdErr() float64 {
	if e.Injections <= 0 {
		return 0
	}
	p := e.AVF
	return math.Sqrt(p * (1 - p) / float64(e.Injections))
}

// structState is the per-structure Algorithm 1 state: the round-robin
// cursor and the counters that every lane monitoring the structure
// charges.
type structState struct {
	s       pipeline.Structure
	entries int

	nextEntry   int // round-robin cursor
	injections  int
	failures    int
	intervalIdx int
	startCycle  int64

	estimates []Estimate
	latencies stats.CDF
}

// Estimator drives Algorithm 1 against a pipeline. Wire it up with Attach
// (or merge its handlers into your own pipeline.Hooks), then call Tick
// after every pipeline.Step or pipeline.SkipIdle that advanced the clock.
type Estimator struct {
	p   *pipeline.Pipeline
	opt Options

	states   [pipeline.NumStructures]*structState
	rngState uint64

	// concluded counts every concluded injection across all lanes —
	// what bench/ reports as its core.injections metric.
	concluded int64

	// The lane table (lanes.go). byBit resolves an error bit to its
	// lane; bits no lane uses resolve to idle, which is never injected.
	lanes     []laneState
	byBit     [pipeline.MaxLanes]*laneState
	idle      laneState
	nextEvent int64 // earliest cycle a lane is due
	pops      [pipeline.MaxLanes]int
}

// NewEstimator builds an estimator for p.
func NewEstimator(p *pipeline.Pipeline, opt Options) (*Estimator, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if len(opt.Structures) == 0 {
		opt.Structures = append([]pipeline.Structure(nil), pipeline.PaperStructures...)
	}
	e := &Estimator{p: p, opt: opt, rngState: opt.Seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
	for _, s := range opt.Structures {
		e.states[s] = &structState{s: s, entries: p.StructureEntries(s), startCycle: p.Cycle()}
	}
	e.initLanes()
	return e, nil
}

// Attach installs the estimator's failure handler as the pipeline's hooks.
// Use HandleFailure (or HandleFailureMask when Lanes > 1) directly if you
// need to fan hooks out to several consumers.
func (e *Estimator) Attach() {
	if e.opt.Lanes > 1 {
		e.p.SetHooks(pipeline.Hooks{OnFailureMask: e.HandleFailureMask})
		return
	}
	e.p.SetHooks(pipeline.Hooks{OnFailure: e.HandleFailure})
}

// HandleFailure is the pipeline.Hooks.OnFailure sink: a failure-point
// instruction retired carrying plane s's error bit. It serves the plane
// layout (Lanes <= 1), where the pipeline also counts Stats.Failures.
func (e *Estimator) HandleFailure(s pipeline.Structure, seq, cycle int64, class isa.Class) {
	e.HandleFailureMask(s.Bit(), seq, cycle, class)
}

func (e *Estimator) rand() uint64 {
	x := e.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	e.rngState = x
	return x * 0x2545f4914f6cdd1d
}

// Tick advances Algorithm 1; call it after every pipeline.Step or
// pipeline.SkipIdle that advanced the clock. At each injection boundary it
// concludes the due experiments (counting failures), clears their error
// bits, and injects the next ones. Below NextTick it returns at once, so
// a SkipIdle whose limit is at most NextTick leaves every boundary where
// stepping would put it.
func (e *Estimator) Tick() {
	if cycle := e.p.Cycle(); cycle >= e.nextEvent {
		e.boundary(cycle)
	}
}

// NextTick returns the first cycle at which Tick acts: the next injection
// boundary.
func (e *Estimator) NextTick() int64 { return e.nextEvent }

// Estimates returns the completed per-interval estimates for s (nil if s
// is not monitored).
func (e *Estimator) Estimates(s pipeline.Structure) []Estimate {
	if st := e.states[s]; st != nil {
		return st.estimates
	}
	return nil
}

// AVFSeries returns just the AVF values of the completed estimates for s.
func (e *Estimator) AVFSeries(s pipeline.Structure) []float64 {
	ests := e.Estimates(s)
	out := make([]float64, len(ests))
	for i, est := range ests {
		out[i] = est.AVF
	}
	return out
}

// Latencies returns the recorded injection-to-failure latency distribution
// for s (empty unless Options.RecordLatency).
func (e *Estimator) Latencies(s pipeline.Structure) *stats.CDF {
	if st := e.states[s]; st != nil {
		return &st.latencies
	}
	return &stats.CDF{}
}

// PendingInjections reports how many injections of the current (partial)
// interval have completed for s — useful for progress reporting.
func (e *Estimator) PendingInjections(s pipeline.Structure) int {
	if st := e.states[s]; st != nil {
		return st.injections
	}
	return 0
}

// ConcludedInjections returns the total number of injections concluded
// so far across all structures and lanes — the numerator of the
// AVF-estimate throughput (injections per wall-second) that bench/
// reports as inj_per_s, and its core.injections metric.
func (e *Estimator) ConcludedInjections() int64 { return e.concluded }

// Lanes returns the configured lane count (1 for the classic estimator).
func (e *Estimator) Lanes() int { return max(e.opt.Lanes, 1) }

// Structures returns the monitored structures.
func (e *Estimator) Structures() []pipeline.Structure {
	return append([]pipeline.Structure(nil), e.opt.Structures...)
}
