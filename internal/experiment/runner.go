// Package experiment orchestrates full runs: it wires a workload through
// the pipeline with the online estimator (internal/core), the SoftArch
// reference (internal/softarch), and the utilization baseline all
// observing the same execution, and produces the per-interval AVF series
// every figure of the paper is built from.
package experiment

import (
	"context"
	"errors"
	"fmt"

	"avfsim/internal/config"
	"avfsim/internal/core"
	"avfsim/internal/microtel"
	"avfsim/internal/obs"
	"avfsim/internal/pipeline"
	"avfsim/internal/softarch"
	"avfsim/internal/trace"
	"avfsim/internal/workload"
)

// RunConfig describes one benchmark × estimator run.
type RunConfig struct {
	// Benchmark names a workload profile (see workload.Names).
	Benchmark string
	// Profile overrides Benchmark with an explicit profile when non-nil.
	Profile *workload.Profile
	// Source overrides both with an explicit instruction stream (e.g. a
	// looped trace file). It must be endless; wrap finite recordings in
	// trace.NewLoop. Scale does not apply.
	Source trace.Source
	// Scale shrinks profile phase lengths (1 = paper scale). Use it
	// together with a smaller N to keep phase-to-interval ratios fixed.
	Scale float64
	// Seed perturbs the workload generators.
	Seed uint64

	// M is the injection wait (cycles); N the injections per estimate.
	// Defaults: the paper's M = N = 1000.
	M int64
	N int
	// Intervals is how many estimation intervals to simulate.
	Intervals int

	// Structures to monitor; defaults to the paper's four.
	Structures []pipeline.Structure

	// Window is the softarch node-ring size (0 = default).
	Window int

	// RandomEntry / RandomSchedule pass through to the estimator
	// (ablations).
	RandomEntry    bool
	RandomSchedule bool
	// RecordLatency collects injection-to-failure latencies.
	RecordLatency bool
	// Multiplex emulates single-error-bit hardware: injections rotate
	// across the monitored structures (see core.Options.Multiplex).
	Multiplex bool
	// Lanes > 1 runs the multi-lane injection engine (see
	// core.Options.Lanes): up to 64 concurrent experiments, assigned
	// round-robin to the monitored structures. The run then completes
	// when every structure has Intervals estimates rather than at a
	// fixed cycle count. 0 or 1 keeps the classic estimator.
	Lanes int
	// Config overrides the processor configuration when non-nil.
	Config *config.Config
	// OnInterval, when non-nil, receives each online estimate as soon
	// as the estimator completes it (see core.Options.OnInterval). It
	// is called from the goroutine driving the run.
	OnInterval func(core.Estimate)
	// Sink, when non-nil, receives one lifecycle record per concluded
	// injection (see core.Options.Sink) — the avfd trace endpoint and
	// the per-structure outcome counters hang off it.
	Sink obs.Sink
	// Recorder, when non-nil, attaches a flight recorder to the pipeline
	// (see pipeline.SetRecorder): every error-bit event of the run is
	// streamed to it for propagation-trace reconstruction. Recording is
	// observation only and does not perturb results.
	Recorder pipeline.ErrRecorder
	// Microtel, when non-nil, attaches a microarchitectural telemetry
	// collector: it is bound to the run's pipeline, fanned into the
	// injection sink stream (coverage maps), hung on the estimator's
	// conclusion-boundary scan hook (occupancy residency), and fed every
	// completed estimate (confidence surfaces). Like Recorder, it is
	// observation only — the estimate series is unchanged.
	Microtel *microtel.Collector
}

func (c *RunConfig) defaults() {
	if c.M == 0 {
		c.M = 1000
	}
	if c.N == 0 {
		c.N = 1000
	}
	if c.Intervals == 0 {
		c.Intervals = 10
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if len(c.Structures) == 0 {
		c.Structures = append([]pipeline.Structure(nil), pipeline.PaperStructures...)
	}
}

// Validate reports why RunCtx would reject rc's run parameters, or nil.
// It applies the defaults to a copy and runs the range checks and the
// estimator's option checks, which RunCtx runs first; it does not
// resolve the workload. A service can call it to refuse a bad spec
// before queueing it.
func (rc RunConfig) Validate() error {
	rc.defaults()
	if rc.M < 0 || rc.N < 0 || rc.Intervals < 0 || rc.Lanes < 0 || rc.Scale < 0 || rc.Scale > 1 {
		return errors.New("experiment: negative or out-of-range run parameters")
	}
	if rc.Window > softarch.MaxWindow {
		return fmt.Errorf("experiment: window %d exceeds %d", rc.Window, softarch.MaxWindow)
	}
	return core.Options{M: rc.M, N: rc.N, Structures: rc.Structures, Multiplex: rc.Multiplex, Lanes: rc.Lanes}.Validate()
}

// StructSeries holds the three per-interval AVF series for one structure.
type StructSeries struct {
	Structure pipeline.Structure
	// Online is the paper's estimator output.
	Online []float64
	// Reference is the SoftArch-style exact ACE analysis.
	Reference []float64
	// Utilization is the busy-fraction baseline (logic structures only;
	// nil otherwise).
	Utilization []float64
}

// Result is the outcome of a run.
type Result struct {
	Benchmark string
	M         int64
	N         int
	Intervals int
	Series    []StructSeries
	Stats     pipeline.Stats
	// Steps counts the cycles the pipeline simulated one by one; the
	// other Stats.Cycles - Steps cycles were idle and skipped.
	Steps int64
	// DroppedMarks is the softarch chain-truncation diagnostic (should
	// be 0 or negligible).
	DroppedMarks int64
	// Estimator gives access to latency CDFs etc. after the run.
	Estimator *core.Estimator
	// IQOccupancy is the occupancy-proxy baseline series for the
	// issue-queue complex (Soundararajan-style).
	IQOccupancy []float64
	// Features holds one microarchitectural feature vector per interval
	// (see FeatureNames) — the inputs of the regression baseline.
	Features [][]float64
}

// FeatureNames labels the columns of Result.Features.
var FeatureNames = []string{
	"ipc", "iq-occ", "busy-int", "busy-fp", "busy-ls",
	"l1d-miss", "l2-miss", "br-mispredict",
}

// featureSampler extracts per-interval deltas of observable counters —
// the variables a Walcott-style regression predicts AVF from.
type featureSampler struct {
	p *pipeline.Pipeline

	nUnits [pipeline.NumFUKinds]int64 // unit counts, fixed at construction

	lastCycle, lastRetired, lastOcc int64
	lastBusy                        [pipeline.NumFUKinds]int64
	lastL1DAcc, lastL1DMiss         int64
	lastL2Acc, lastL2Miss           int64
	lastBrPred, lastBrMis           int64

	rows [][]float64
	flat []float64 // chunked backing for rows: one allocation per 64 intervals
}

func newFeatureSampler(p *pipeline.Pipeline) *featureSampler {
	f := &featureSampler{p: p}
	cfg := p.Config()
	f.nUnits[pipeline.FUInt] = int64(cfg.NumIntUnits)
	f.nUnits[pipeline.FUFP] = int64(cfg.NumFPUnits)
	f.nUnits[pipeline.FULS] = int64(cfg.NumLSUnits)
	return f
}

func rate(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Sample closes the current interval and appends its feature vector.
func (f *featureSampler) Sample() {
	p := f.p
	h := p.Hierarchy()
	br := p.Predictor()
	cycle := p.Cycle()
	dc := cycle - f.lastCycle

	nf := len(FeatureNames)
	if len(f.flat)+nf > cap(f.flat) {
		f.flat = make([]float64, 0, 64*nf)
	}
	at := len(f.flat)
	f.flat = append(f.flat,
		rate(p.Retired()-f.lastRetired, dc),
		rate(p.IQOccupancySum()-f.lastOcc, dc*int64(p.StructureEntries(pipeline.StructIQ))),
		rate(p.BusyUnitCycles(pipeline.FUInt)-f.lastBusy[pipeline.FUInt], dc*f.nUnits[pipeline.FUInt]),
		rate(p.BusyUnitCycles(pipeline.FUFP)-f.lastBusy[pipeline.FUFP], dc*f.nUnits[pipeline.FUFP]),
		rate(p.BusyUnitCycles(pipeline.FULS)-f.lastBusy[pipeline.FULS], dc*f.nUnits[pipeline.FULS]),
		rate(h.L1D.Misses()-f.lastL1DMiss, h.L1D.Accesses()-f.lastL1DAcc),
		rate(h.L2.Misses()-f.lastL2Miss, h.L2.Accesses()-f.lastL2Acc),
		rate(br.Mispredicts()-f.lastBrMis, br.Predictions()-f.lastBrPred),
	)
	// Full-cap subslice: later appends to flat can never alias this row.
	f.rows = append(f.rows, f.flat[at:at+nf:at+nf])

	f.lastCycle, f.lastRetired, f.lastOcc = cycle, p.Retired(), p.IQOccupancySum()
	for k := 0; k < pipeline.NumFUKinds; k++ {
		f.lastBusy[k] = p.BusyUnitCycles(pipeline.FUKind(k))
	}
	f.lastL1DAcc, f.lastL1DMiss = h.L1D.Accesses(), h.L1D.Misses()
	f.lastL2Acc, f.lastL2Miss = h.L2.Accesses(), h.L2.Misses()
	f.lastBrPred, f.lastBrMis = br.Predictions(), br.Mispredicts()
}

// SeriesFor returns the series for structure s, or nil.
func (r *Result) SeriesFor(s pipeline.Structure) *StructSeries {
	for i := range r.Series {
		if r.Series[i].Structure == s {
			return &r.Series[i]
		}
	}
	return nil
}

// Run executes one benchmark under simultaneous online estimation,
// reference analysis, and utilization sampling.
func Run(rc RunConfig) (*Result, error) {
	return RunCtx(context.Background(), rc)
}

// ctxCheckStride is how many cycles the drive loop simulates between
// context checks. It is much finer than any estimation interval
// (M*N >= 10^4 in practice), so cancellation lands well within one
// interval while keeping the per-cycle overhead negligible.
const ctxCheckStride = 2048

// RunCtx is Run with cancellation: when ctx is done the simulation
// stops within ctxCheckStride cycles and RunCtx returns ctx.Err().
func RunCtx(ctx context.Context, rc RunConfig) (*Result, error) {
	if err := rc.Validate(); err != nil {
		return nil, err
	}
	rc.defaults()
	var src trace.Source
	name := rc.Benchmark
	if rc.Source != nil {
		src = rc.Source
		if name == "" {
			name = "custom"
		}
	} else {
		prof := rc.Profile
		if prof == nil {
			var err error
			prof, err = workload.ByName(rc.Benchmark)
			if err != nil {
				return nil, err
			}
		}
		if rc.Scale != 1 {
			prof = workload.Scale(prof, rc.Scale)
		}
		name = prof.Name
		var err error
		src, err = prof.Source(rc.Seed)
		if err != nil {
			return nil, err
		}
	}
	cfg := config.Default()
	if rc.Config != nil {
		cfg = *rc.Config
	}
	p, err := pipeline.New(&cfg, src)
	if err != nil {
		return nil, err
	}
	if rc.Recorder != nil {
		p.SetRecorder(rc.Recorder)
	}

	sink := rc.Sink
	onInterval := rc.OnInterval
	var onConcludeScan func(int64)
	if mt := rc.Microtel; mt != nil {
		// Telemetry taps: coverage via the sink stream, occupancy via
		// the conclusion-boundary scans, confidence via the estimate
		// stream. All passive; defaults resolve first so the collector
		// binds the same structure set the estimator monitors.
		mt.Bind(p, rc.Structures, rc.Lanes)
		sink = microtel.Fanout(mt, sink)
		onConcludeScan = mt.SampleOccupancy
		user := onInterval
		onInterval = func(e core.Estimate) {
			mt.RecordEstimate(e.Structure, e.Interval, e.Failures, e.Injections)
			if user != nil {
				user(e)
			}
		}
	}
	est, err := core.NewEstimator(p, core.Options{
		M: rc.M, N: rc.N,
		Structures:     rc.Structures,
		RandomEntry:    rc.RandomEntry,
		RandomSchedule: rc.RandomSchedule,
		Seed:           rc.Seed,
		RecordLatency:  rc.RecordLatency,
		Multiplex:      rc.Multiplex,
		Lanes:          rc.Lanes,
		OnInterval:     onInterval,
		Sink:           sink,
		OnConcludeScan: onConcludeScan,
	})
	if err != nil {
		return nil, err
	}
	intervalCycles := rc.M * int64(rc.N)
	if rc.Multiplex {
		// One live error rotating across K structures: each structure
		// completes its N injections only every K*M*N cycles.
		intervalCycles *= int64(len(rc.Structures))
	}
	if rc.Lanes > 1 {
		// Each structure's pool of ~Lanes/K lanes concludes poolSize
		// injections per M-cycle boundary, so its interval takes
		// ceil(N/poolSize)*M cycles; the smallest pool is the slowest.
		minPool := rc.Lanes / len(rc.Structures)
		intervalCycles = rc.M * int64((rc.N+minPool-1)/minPool)
	}
	ref, err := softarch.NewAnalyzer(p, softarch.Options{
		IntervalCycles: intervalCycles,
		Window:         rc.Window,
	})
	if err != nil {
		return nil, err
	}
	var logicStructs []pipeline.Structure
	for _, s := range rc.Structures {
		if _, ok := pipeline.UnitKind(s); ok {
			logicStructs = append(logicStructs, s)
		}
	}
	var util *core.Utilization
	if len(logicStructs) > 0 {
		util, err = core.NewUtilization(p, logicStructs...)
		if err != nil {
			return nil, err
		}
	}

	// Fan the pipeline hooks out to both consumers.
	refHooks := ref.Hooks()
	hooks := pipeline.Hooks{
		OnFailure:   est.HandleFailure,
		OnRetire:    refHooks.OnRetire,
		OnRegWrite:  refHooks.OnRegWrite,
		OnRegRead:   refHooks.OnRegRead,
		OnTLBAccess: refHooks.OnTLBAccess,
	}
	if rc.Lanes > 1 {
		// Lane layout: retired masks carry lane bits, which only the
		// estimator's lane table can attribute.
		hooks.OnFailure = nil
		hooks.OnFailureMask = est.HandleFailureMask
	}
	p.SetHooks(hooks)

	occ := core.NewOccupancy(p)
	feat := newFeatureSampler(p)

	// Drive. The estimator emits an estimate every intervalCycles; run
	// until every monitored structure has Intervals of them, plus a
	// settling margin for the reference's deferred attribution. In lane
	// mode the random schedule makes conclusion cycles data-dependent,
	// so the loop is condition-driven — stop when every structure has
	// its Intervals estimates — with a hard cycle cap as a backstop.
	// Idle cycles are skipped, landing no later than the next cycle at
	// which the estimator, a sample, a context check or the stop rule
	// acts, so every one of them sees the cycle it would have seen.
	totalCycles := intervalCycles * int64(rc.Intervals)
	capCycles := 4*totalCycles + 4*rc.M
	stopCycle := totalCycles + 1
	if rc.Lanes > 1 {
		stopCycle = capCycles + 1
	}
	lanesDone := func() bool {
		for _, s := range rc.Structures {
			if len(est.Estimates(s)) < rc.Intervals {
				return false
			}
		}
		return true
	}
	nextSample := intervalCycles
	nextCtxCheck := int64(ctxCheckStride)
	lastConcluded := int64(-1)
	for {
		if rc.Lanes > 1 {
			if c := est.ConcludedInjections(); c != lastConcluded {
				lastConcluded = c
				if lanesDone() {
					break
				}
			}
			if p.Cycle() > capCycles {
				return nil, fmt.Errorf("experiment: lane run exceeded %d cycles without completing %d intervals",
					capCycles, rc.Intervals)
			}
		} else if p.Cycle() >= totalCycles+1 {
			break
		}
		if p.Cycle() >= nextCtxCheck {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			nextCtxCheck = p.Cycle() + ctxCheckStride
		}
		limit := min(est.NextTick(), nextSample, nextCtxCheck, stopCycle)
		if p.SkipIdle(limit) == 0 && !p.Step() {
			return nil, fmt.Errorf("experiment: trace ended after %d cycles (%d retired); profiles are cyclic so this indicates a bug",
				p.Cycle(), p.Retired())
		}
		est.Tick()
		if p.Cycle() >= nextSample {
			if util != nil {
				util.Sample()
			}
			occ.Sample()
			feat.Sample()
			nextSample += intervalCycles
		}
	}
	ref.Flush()

	res := &Result{
		Benchmark: name,
		M:         rc.M,
		N:         rc.N,
		Intervals: rc.Intervals,
		Stats:     p.Snapshot(),
		Steps:     p.Steps(),
		Estimator: est,
	}
	res.DroppedMarks = ref.DroppedMarks()
	res.IQOccupancy = clampSeries(occ.Series(), rc.Intervals)
	res.Features = feat.rows
	if len(res.Features) > rc.Intervals {
		res.Features = res.Features[:rc.Intervals]
	}
	for _, s := range rc.Structures {
		ss := StructSeries{Structure: s}
		ss.Online = clampSeries(est.AVFSeries(s), rc.Intervals)
		ss.Reference = ref.AVFSeries(s, rc.Intervals)
		if util != nil {
			if _, ok := pipeline.UnitKind(s); ok {
				ss.Utilization = clampSeries(util.Series(s), rc.Intervals)
			}
		}
		res.Series = append(res.Series, ss)
	}
	return res, nil
}

// clampSeries truncates or zero-pads xs to exactly n entries.
func clampSeries(xs []float64, n int) []float64 {
	out := make([]float64, n)
	copy(out, xs)
	return out
}
