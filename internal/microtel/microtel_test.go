package microtel

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"avfsim/internal/config"
	"avfsim/internal/core"
	"avfsim/internal/isa"
	"avfsim/internal/obs"
	"avfsim/internal/pipeline"
)

// loopTrace is the standard endless ALU+store loop: every value is
// stored, so injected register errors on live values always fail.
type loopTrace struct{ i int }

func (l *loopTrace) Next() (isa.Inst, bool) {
	pc := uint64(0x1000 + 4*(l.i%32))
	var in isa.Inst
	if l.i%2 == 0 {
		in = isa.Inst{PC: pc, Class: isa.ClassIntALU,
			Dst: isa.IntReg(5 + (l.i/2)%8), Src1: isa.IntReg(1), Src2: isa.RegNone}
	} else {
		in = isa.Inst{PC: pc, Class: isa.ClassStore, Dst: isa.RegNone,
			Src1: isa.IntReg(5 + (l.i/2)%8), Src2: isa.IntReg(1), Addr: uint64(0x100 + 8*(l.i%64))}
	}
	l.i++
	return in, true
}

func newPipe(t *testing.T) *pipeline.Pipeline {
	t.Helper()
	cfg := config.Default()
	p, err := pipeline.New(&cfg, &loopTrace{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// tallySink independently tallies per-structure outcomes — the second
// opinion the coverage map must agree with.
type tallySink struct {
	outcomes [pipeline.NumStructures][obs.NumOutcomes]int64
	total    int64
}

func (ts *tallySink) RecordInjection(rec obs.Injection) {
	ts.outcomes[rec.Structure][rec.Outcome]++
	ts.total++
}

// instrument builds a pipeline + estimator with a bound collector
// attached as sink (fanned out to an independent tally) and as the
// conclusion-scan hook.
func instrument(t *testing.T, opt core.Options, cfg Config) (*pipeline.Pipeline, *core.Estimator, *Collector, *tallySink) {
	t.Helper()
	p := newPipe(t)
	c := New(cfg)
	tally := &tallySink{}
	opt.Sink = Fanout(c, tally)
	opt.OnConcludeScan = c.SampleOccupancy
	e, err := core.NewEstimator(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	c.Bind(p, e.Structures(), opt.Lanes)
	e.Attach()
	return p, e, c, tally
}

func drive(p *pipeline.Pipeline, e *core.Estimator, cycles int) {
	for i := 0; i < cycles; i++ {
		p.Step()
		e.Tick()
	}
}

func TestWilsonKnownValues(t *testing.T) {
	if lo, hi := Wilson(0, 0, 1.96); lo != 0 || hi != 1 {
		t.Fatalf("n=0: got [%v,%v], want vacuous [0,1]", lo, hi)
	}
	// Rule-of-three regime: 0/100 at 95% → upper bound ~3.6-3.8%.
	lo, hi := Wilson(0, 100, DefaultZ)
	if lo != 0 {
		t.Fatalf("0/100 lower bound %v, want 0", lo)
	}
	if hi < 0.030 || hi > 0.045 {
		t.Fatalf("0/100 upper bound %v, want ~0.037", hi)
	}
	// Symmetric case: 50/100 → interval symmetric about 0.5, ~±0.0966.
	lo, hi = Wilson(50, 100, DefaultZ)
	if math.Abs((0.5-lo)-(hi-0.5)) > 1e-12 {
		t.Fatalf("50/100 interval not symmetric: [%v,%v]", lo, hi)
	}
	if math.Abs(lo-0.4038) > 0.002 || math.Abs(hi-0.5962) > 0.002 {
		t.Fatalf("50/100 interval [%v,%v], want ~[0.404,0.596]", lo, hi)
	}
	// The interval always contains the point estimate and tightens
	// with n.
	prev := 1.0
	for _, n := range []int{10, 100, 1000, 10000} {
		f := n / 5
		lo, hi := Wilson(f, n, DefaultZ)
		p := float64(f) / float64(n)
		if lo > p || hi < p {
			t.Fatalf("n=%d: [%v,%v] excludes p=%v", n, lo, hi, p)
		}
		if w := hi - lo; w >= prev {
			t.Fatalf("n=%d: width %v did not shrink from %v", n, w, prev)
		} else {
			prev = w
		}
	}
	// Degenerate p=1 stays inside [0,1].
	if _, hi := Wilson(10, 10, DefaultZ); hi > 1 {
		t.Fatalf("10/10 upper bound %v > 1", hi)
	}
}

// TestIntervalMatchesEstimateStdErr: the confidence surface's stderr is
// exactly core.Estimate.StdErr — same formula, same bits.
func TestIntervalMatchesEstimateStdErr(t *testing.T) {
	for _, tc := range []struct{ f, n int }{{0, 100}, {7, 100}, {50, 100}, {999, 1000}} {
		est := core.Estimate{Failures: tc.f, Injections: tc.n,
			AVF: float64(tc.f) / float64(tc.n)}
		if got, want := Interval(tc.f, tc.n, 0).StdErr, est.StdErr(); got != want {
			t.Fatalf("%d/%d: Interval stderr %v != Estimate.StdErr %v", tc.f, tc.n, got, want)
		}
	}
}

// checkReconciles asserts every reconciliation invariant between the
// collector, the estimator, and an independent tally.
func checkReconciles(t *testing.T, e *core.Estimator, c *Collector, tally *tallySink) {
	t.Helper()
	if got, want := c.Concluded(), e.ConcludedInjections(); got != want {
		t.Fatalf("coverage total %d != ConcludedInjections %d", got, want)
	}
	if got := c.Totals(); got.Total() != tally.total {
		t.Fatalf("coverage total %d != independent tally %d", got.Total(), tally.total)
	}
	snap := c.Snapshot()
	for _, ss := range snap.Structures {
		s, _ := pipeline.ParseStructure(ss.Structure)
		want := fromOutcomes(tally.outcomes[s])
		if ss.Outcomes != want {
			t.Fatalf("%s outcomes %+v != tally %+v", ss.Structure, ss.Outcomes, want)
		}
		// Per-structure failure counters: sum of complete-interval
		// estimate failures never exceeds the coverage count, and the
		// two agree once partial-interval records are added via the
		// tally (already checked above); additionally estimates are a
		// lower bound consistency check.
		var estFailures int64
		for _, est := range e.Estimates(s) {
			estFailures += int64(est.Failures)
		}
		if estFailures > ss.Outcomes.Failures {
			t.Fatalf("%s: estimates carry %d failures, coverage map only %d",
				ss.Structure, estFailures, ss.Outcomes.Failures)
		}
		// Residency histogram integrates to the sample count and its
		// first moment to the occupancy sum.
		var n, sum int64
		for k, v := range ss.Residency {
			n += v
			sum += int64(k) * v
		}
		if n != ss.OccupancySamples || sum != ss.OccupancySum {
			t.Fatalf("%s residency integrates to (%d, %d), snapshot says (%d, %d)",
				ss.Structure, n, sum, ss.OccupancySamples, ss.OccupancySum)
		}
		if ss.Covered > ss.Entries {
			t.Fatalf("%s covered %d > entries %d", ss.Structure, ss.Covered, ss.Entries)
		}
	}
}

// ndjsonTotals re-derives outcome totals from an NDJSON export's entry
// lines and cross-checks them against the summary and structure lines —
// the same reconciliation the smoke script performs.
func ndjsonTotals(t *testing.T, c *Collector) {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	type line struct {
		Type      string `json:"type"`
		Structure string `json:"structure"`
		Failures  int64  `json:"failures"`
		Masked    int64  `json:"masked"`
		Pending   int64  `json:"pending"`
		Concluded int64  `json:"concluded"`
	}
	perStructEntry := map[string]OutcomeCounts{}
	perStructCycles := map[string]OutcomeCounts{}
	perStruct := map[string]OutcomeCounts{}
	var summary line
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		oc := OutcomeCounts{Failures: l.Failures, Masked: l.Masked, Pending: l.Pending}
		switch l.Type {
		case "summary":
			summary = l
		case "structure":
			perStruct[l.Structure] = oc
		case "entry":
			p := perStructEntry[l.Structure]
			p.Failures += oc.Failures
			p.Masked += oc.Masked
			p.Pending += oc.Pending
			perStructEntry[l.Structure] = p
		case "cycles":
			p := perStructCycles[l.Structure]
			p.Failures += oc.Failures
			p.Masked += oc.Masked
			p.Pending += oc.Pending
			perStructCycles[l.Structure] = p
		}
	}
	var total int64
	for name, want := range perStruct {
		if got := perStructEntry[name]; got != want {
			t.Fatalf("%s: entry lines sum to %+v, structure line says %+v", name, got, want)
		}
		if got := perStructCycles[name]; got != want {
			t.Fatalf("%s: cycle buckets sum to %+v, structure line says %+v", name, got, want)
		}
		total += want.Total()
	}
	if total != summary.Concluded {
		t.Fatalf("structure lines sum to %d, summary concluded %d", total, summary.Concluded)
	}
	if total != c.Concluded() {
		t.Fatalf("NDJSON total %d != collector %d", total, c.Concluded())
	}
}

func TestCoverageReconcilesClassic(t *testing.T) {
	p, e, c, tally := instrument(t, core.Options{M: 50, N: 20}, Config{})
	drive(p, e, 50*20*4)
	if c.Concluded() == 0 {
		t.Fatal("no injections concluded")
	}
	checkReconciles(t, e, c, tally)
	ndjsonTotals(t, c)
}

func TestCoverageReconcilesLanes(t *testing.T) {
	const lanes = 16
	p, e, c, tally := instrument(t, core.Options{M: 50, N: 50, Lanes: lanes}, Config{})
	drive(p, e, 50*50*2)
	if c.Concluded() == 0 {
		t.Fatal("no injections concluded")
	}
	checkReconciles(t, e, c, tally)
	ndjsonTotals(t, c)

	// Lane utilization: every record rode a lane, lanes partition the
	// total, and lane ownership matches the round-robin pool layout.
	snap := c.Snapshot()
	if len(snap.Lanes) != lanes {
		t.Fatalf("%d lane stats, want %d", len(snap.Lanes), lanes)
	}
	var laneTotal, laneFailures int64
	structs := e.Structures()
	for _, ls := range snap.Lanes {
		laneTotal += ls.Injections
		laneFailures += ls.Failures
		if want := structs[ls.Lane%len(structs)].String(); ls.Structure != want {
			t.Fatalf("lane %d owned by %s, want %s", ls.Lane, ls.Structure, want)
		}
		if ls.Injections == 0 {
			t.Fatalf("lane %d never concluded an injection", ls.Lane)
		}
	}
	if laneTotal != c.Concluded() {
		t.Fatalf("lane injections sum to %d, total %d", laneTotal, c.Concluded())
	}
	if laneFailures != c.Totals().Failures {
		t.Fatalf("lane failures sum to %d, total %d", laneFailures, c.Totals().Failures)
	}
}

// TestTelemetryIsPassive: enabling the collector must not perturb the
// estimation — the estimate series of an instrumented run is identical
// to an uninstrumented golden twin, and the occupancy sums the
// collector accumulates equal a manual re-run's own fused scans exactly
// (determinism makes this an equality, not an approximation).
func TestTelemetryIsPassive(t *testing.T) {
	const cycles = 50 * 20 * 4
	opt := core.Options{M: 50, N: 20, Seed: 7}

	// Golden twin: no telemetry, but accumulate occupancy sums by hand
	// at the same boundaries via the same hook.
	var goldenSum [pipeline.NumStructures]int64
	var goldenSamples int64
	pg := newPipe(t)
	var counts [pipeline.NumStructures]int
	optG := opt
	optG.OnConcludeScan = func(cycle int64) {
		pg.Occupancies(&counts)
		goldenSamples++
		for s := 0; s < pipeline.NumStructures; s++ {
			goldenSum[s] += int64(counts[s])
		}
	}
	eg, err := core.NewEstimator(pg, optG)
	if err != nil {
		t.Fatal(err)
	}
	eg.Attach()
	drive(pg, eg, cycles)

	// Instrumented run.
	p, e, c, _ := instrument(t, opt, Config{})
	drive(p, e, cycles)

	for _, s := range e.Structures() {
		a, b := e.Estimates(s), eg.Estimates(s)
		if len(a) != len(b) {
			t.Fatalf("%v: %d estimates instrumented vs %d golden", s, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v interval %d: instrumented %+v != golden %+v", s, i, a[i], b[i])
			}
		}
	}
	snap := c.Snapshot()
	if snap.Samples != goldenSamples {
		t.Fatalf("collector took %d samples, golden twin %d", snap.Samples, goldenSamples)
	}
	for _, ss := range snap.Structures {
		s, _ := pipeline.ParseStructure(ss.Structure)
		if ss.OccupancySum != goldenSum[s] {
			t.Fatalf("%s occupancy sum %d != golden-run sum %d", ss.Structure, ss.OccupancySum, goldenSum[s])
		}
		wantMean := float64(goldenSum[s]) / float64(goldenSamples)
		if ss.OccupancyMean != wantMean {
			t.Fatalf("%s occupancy mean %v != golden mean %v", ss.Structure, ss.OccupancyMean, wantMean)
		}
	}
}

// TestRebinKeepsTotalsBounded: a tiny initial bucket width forces many
// in-place rebins; totals survive every fold and the table never grows.
func TestRebinKeepsTotalsBounded(t *testing.T) {
	p, e, c, tally := instrument(t, core.Options{M: 20, N: 50}, Config{BucketCycles: 4})
	drive(p, e, 60_000)
	if c.bucketCycles <= 4 {
		t.Fatalf("bucket width never grew from 4 across 60k cycles (max idx %d)", c.maxBucket)
	}
	if c.maxBucket >= maxCycleBuckets {
		t.Fatalf("bucket index %d escaped the %d budget", c.maxBucket, maxCycleBuckets)
	}
	checkReconciles(t, e, c, tally)
	ndjsonTotals(t, c)
}

// TestEstimateConfidenceSurface: RecordEstimate retains the latest
// interval's Wilson bounds per structure and they bracket the AVF.
func TestEstimateConfidenceSurface(t *testing.T) {
	p, e, c, _ := instrument(t, core.Options{M: 20, N: 25,
		OnInterval: func(est core.Estimate) {
			// experiment-layer wiring under test: estimates feed the surface
		}}, Config{})
	_ = p
	drive(p, e, 20*25*3)
	for _, s := range e.Structures() {
		for _, est := range e.Estimates(s) {
			c.RecordEstimate(s, est.Interval, est.Failures, est.Injections)
		}
	}
	snap := c.Snapshot()
	sawConf := false
	for _, ss := range snap.Structures {
		if ss.Confidence == nil {
			continue
		}
		sawConf = true
		if ss.Confidence.Lo > ss.AVF || ss.Confidence.Hi < ss.AVF {
			t.Fatalf("%s: interval [%v,%v] excludes AVF %v",
				ss.Structure, ss.Confidence.Lo, ss.Confidence.Hi, ss.AVF)
		}
		if ss.Confidence.StdErr < 0 {
			t.Fatalf("%s: negative stderr", ss.Structure)
		}
	}
	if !sawConf {
		t.Fatal("no structure acquired a confidence interval")
	}
}

func TestMergeSnapshots(t *testing.T) {
	p1, e1, c1, _ := instrument(t, core.Options{M: 50, N: 20}, Config{})
	drive(p1, e1, 50*20*2)
	p2, e2, c2, _ := instrument(t, core.Options{M: 50, N: 20, Lanes: 16}, Config{})
	drive(p2, e2, 50*20*2)

	s1, s2 := c1.Snapshot(), c2.Snapshot()
	merged := MergeSnapshots([]*Snapshot{s1, s2, nil})
	if merged.Concluded != s1.Concluded+s2.Concluded {
		t.Fatalf("merged concluded %d != %d + %d", merged.Concluded, s1.Concluded, s2.Concluded)
	}
	if merged.Samples != s1.Samples+s2.Samples {
		t.Fatalf("merged samples %d != %d + %d", merged.Samples, s1.Samples, s2.Samples)
	}
	if len(merged.Lanes) != 0 {
		t.Fatal("merged snapshot carries per-job lane stats")
	}
	for _, ms := range merged.Structures {
		var wantSum, wantSamples int64
		for _, sn := range []*Snapshot{s1, s2} {
			for _, ss := range sn.Structures {
				if ss.Structure == ms.Structure {
					wantSum += ss.OccupancySum
					wantSamples += ss.OccupancySamples
				}
			}
		}
		if ms.OccupancySum != wantSum || ms.OccupancySamples != wantSamples {
			t.Fatalf("%s merged occupancy (%d, %d), want (%d, %d)",
				ms.Structure, ms.OccupancySum, ms.OccupancySamples, wantSum, wantSamples)
		}
		var n int64
		for _, v := range ms.Residency {
			n += v
		}
		if n != ms.OccupancySamples {
			t.Fatalf("%s merged residency integrates to %d, want %d", ms.Structure, n, ms.OccupancySamples)
		}
	}
}

// TestCollectorTickZeroAllocs is the telemetry-ON allocation guard: a
// bound collector (coverage + occupancy, no metrics mirror) adds no
// per-Tick allocations over the bare estimator — everything was
// preallocated at Bind. Run by the CI perf-smoke job.
func TestCollectorTickZeroAllocs(t *testing.T) {
	const cycles = 5000

	run := func(withCollector bool) func() {
		return func() {
			p := newPipe(t)
			opt := core.Options{M: 100, N: 1000, Lanes: 64}
			var c *Collector
			if withCollector {
				c = New(Config{})
				opt.Sink = c
				opt.OnConcludeScan = c.SampleOccupancy
			}
			e, err := core.NewEstimator(p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if withCollector {
				c.Bind(p, e.Structures(), 64)
			}
			e.Attach()
			for i := 0; i < cycles; i++ {
				p.Step()
				e.Tick()
			}
		}
	}

	allocs := func(fn func()) uint64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	bare, full := run(false), run(true)
	bare()
	full()

	base := allocs(bare)
	instrumented := allocs(full)
	// Bind's fixed tables (a few slices per structure) are the only
	// extra allocations allowed; a per-Tick or per-record allocation
	// across 5000 cycles would blow far past this bound.
	if instrumented > base+96 {
		t.Fatalf("telemetry-on path allocated %d objects vs %d bare — per-record allocation regression",
			instrumented, base)
	}
}
