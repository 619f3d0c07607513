package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"avfsim/internal/config"
	"avfsim/internal/core"
	"avfsim/internal/experiment"
	"avfsim/internal/isa"
	"avfsim/internal/pipeline"
	"avfsim/internal/softarch"
	"avfsim/internal/span"
	"avfsim/internal/workload"
)

// runSim runs a simulator workload: each operation is one
// experiment.RunCtx, the library path avfreport and avfd both run. A
// traced run executes every operation twice, once through RunCtx and
// once through the benchmark's own layer-timed wiring, alternating which
// goes first, so the untraced reference and the trace share the window.
func runSim(ctx context.Context, c settings, w *benchWorkload, chk *checks, t *tally) (*outcome, error) {
	var setups []time.Duration
	for rep := 0; rep < c.setupReps; rep++ {
		t0 := time.Now()
		for _, s := range w.warm(c.seed) {
			if _, err := experiment.RunCtx(ctx, c.spec(s).runConfig()); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0))
	}

	var (
		lat         []float64
		completions []time.Time
		accuracy    [][]experiment.StructSeries
		cycles, inj int64
		retired     int64
		untraced    time.Duration // RunCtx wall time (traced runs)
		layers      layerTotals
		mallocs     uint64
		allocBytes  uint64
		spans       []span.Span
	)
	rng := mix(c.seed, 1<<42) | 1
	cpu0, err := cpuTime(0)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	disp := newDispenser(w, start.Add(time.Duration(c.seconds*float64(time.Second))))
	for {
		k, ok := disp.take()
		if !ok {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spec := c.spec(w.job(c.seed, k))
		rc := spec.runConfig()

		runUntraced := func() *experiment.Result {
			var m0, m1 runtime.MemStats
			if c.trace {
				runtime.ReadMemStats(&m0)
			}
			t0 := time.Now()
			res, err := experiment.RunCtx(ctx, rc)
			d := time.Since(t0)
			if c.trace {
				runtime.ReadMemStats(&m1)
				mallocs += m1.Mallocs - m0.Mallocs
				allocBytes += m1.TotalAlloc - m0.TotalAlloc
				untraced += d
			} else {
				lat = append(lat, ms(d))
			}
			if !chk.record("sim.run", err) {
				return nil
			}
			return res
		}
		var res *experiment.Result
		var tr *layerRun
		if c.trace && k%2 == 1 {
			tr = runTraced(ctx, rc, &rng, chk)
		}
		res = runUntraced()
		if c.trace && k%2 == 0 {
			tr = runTraced(ctx, rc, &rng, chk)
		}
		if tr != nil {
			spans = append(spans, tr.span(spec, k))
		}
		okOp := res != nil && chk.record("sim.shape", checkSeries(res, spec.Intervals))
		if c.trace {
			okOp = okOp && tr != nil &&
				chk.record("sim.traced_equals_runctx", checkSameSeries(tr.series, res.Series))
			if tr != nil {
				layers.add(tr, k < w.roundLen)
			}
		}
		t.add(okOp)
		completions = append(completions, time.Now())
		if res != nil {
			cycles += res.Stats.Cycles
			retired += res.Stats.Retired
			inj += res.Estimator.ConcludedInjections()
			if k < w.accuracyRounds*w.roundLen {
				accuracy = append(accuracy, res.Series)
			}
		}
	}
	window := time.Since(start)
	cpu1, err := cpuTime(0)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}

	rates := roundRates(start, completions, w.roundLen)
	q1, med, q3 := quartiles(rates)
	out := &outcome{
		values: map[string]float64{},
		info: map[string]any{
			"ops": len(completions), "rounds": len(rates), "window_s": window.Seconds(),
			"round_ops_per_s_q1_med_q3": []float64{q1, med, q3},
			"sim_cycles_per_s":          float64(cycles) / window.Seconds(),
			"inj_per_s":                 float64(inj) / window.Seconds(),
			"sim_inst_per_s":            float64(retired) / window.Seconds(),
			"setup_reps_s":              durationsSeconds(setups),
		},
		expect: []string{"sim.run", "sim.shape"},
	}
	if !c.trace {
		out.values["setup_s"] = percentile(durationsSeconds(setups), 50)
		out.values["ops_per_s"] = med
		out.values["op_p50_ms"] = percentile(lat, 50)
		out.values["op_p90_ms"] = percentile(lat, 90)
		out.values["cpu_ms_per_op"] = ms(cpu1-cpu0) / float64(len(completions))
		out.values["peak_rss_mb"] = rss
		out.values["avf_mae"] = absErr(accuracy)
		out.info["latency_samples"] = len(lat)
		return out, nil
	}
	out.expect = append(out.expect, "sim.traced_run", "sim.traced_equals_runctx")
	layers.report(out, untraced, mallocs, allocBytes)
	zeroAbsentLayers(out.values)
	return out, writeSpans(filepath.Join(c.out, "spans.ndjson"), spans)
}

// layerRun is one operation of the traced wiring. Times are raw ns,
// summed over the sampled cycles of their class.
type layerRun struct {
	series []experiment.StructSeries
	// Step-timed cycles time Step (hooks included) and Tick; hook-timed
	// cycles time each hook call on its own; clock-timed cycles time an
	// empty region at the same point of the loop, which is the clock's
	// own share of every timed region. No timed region encloses another,
	// so that share is removed exactly once from each.
	stepCycles, hookCycles, clockCycles int64
	stepNs, tickNs, clockNs             float64
	saNs, failNs                        float64
	saTimed, failTimed                  int64
	// Whole-run figures.
	start                      time.Time
	wall                       time.Duration
	constructNs, flushNs       float64
	cycles, retired            int64
	injections, failures, ests int64
	saCalls, failCalls         int64
}

// A seeded-random 1/64 of cycles is step-timed, another 1/64 hook-timed
// and another clock-timed: a clock read costs tens of ns, on the order of
// a hook call and a tenth of a cycle, so timing every cycle would swamp
// the layers.
const (
	sampleMask = 63
	stepTimed  = 0
	hookTimed  = 1
	clockTimed = 2
)

// runTraced executes rc through the same layers, in the same order, as
// experiment.RunCtx, timing sampled cycles. Call counts are exact on
// every cycle. It leaves out RunCtx's passive samplers (utilization,
// occupancy, features), whose cost shows in the residual.
func runTraced(ctx context.Context, rc experiment.RunConfig, rng *uint64, chk *checks) *layerRun {
	lr, err := traceRun(ctx, rc, rng)
	if !chk.record("sim.traced_run", err) {
		return nil
	}
	return lr
}

func traceRun(ctx context.Context, rc experiment.RunConfig, rng *uint64) (*layerRun, error) {
	wall0 := time.Now()
	lr := &layerRun{start: wall0}
	structs := pipeline.PaperStructures
	prof, err := workload.ByName(rc.Benchmark)
	if err != nil {
		return nil, err
	}
	if rc.Scale != 1 {
		prof = workload.Scale(prof, rc.Scale)
	}
	src, err := prof.Source(rc.Seed)
	if err != nil {
		return nil, err
	}
	cfg := config.Default()
	p, err := pipeline.New(&cfg, src)
	if err != nil {
		return nil, err
	}
	est, err := core.NewEstimator(p, core.Options{
		M: rc.M, N: rc.N, Structures: structs, Seed: rc.Seed, Lanes: rc.Lanes,
	})
	if err != nil {
		return nil, err
	}
	intervalCycles := rc.M * int64(rc.N)
	if rc.Lanes > 1 {
		minPool := rc.Lanes / len(structs)
		intervalCycles = rc.M * int64((rc.N+minPool-1)/minPool)
	}
	ref, err := softarch.NewAnalyzer(p, softarch.Options{IntervalCycles: intervalCycles})
	if err != nil {
		return nil, err
	}
	lr.constructNs = float64(time.Since(wall0))

	hookTiming := false
	sa := ref.Hooks()
	hooks := pipeline.Hooks{
		OnRetire: func(ev *pipeline.RetireEvent) {
			lr.saCalls++
			if !hookTiming {
				sa.OnRetire(ev)
				return
			}
			t := time.Now()
			sa.OnRetire(ev)
			lr.saNs += float64(time.Since(t))
			lr.saTimed++
		},
		OnRegWrite: func(file pipeline.RegFileID, phys int16, cycle, seq int64) {
			lr.saCalls++
			if !hookTiming {
				sa.OnRegWrite(file, phys, cycle, seq)
				return
			}
			t := time.Now()
			sa.OnRegWrite(file, phys, cycle, seq)
			lr.saNs += float64(time.Since(t))
			lr.saTimed++
		},
		OnRegRead: func(file pipeline.RegFileID, phys int16, cycle, seq int64) {
			lr.saCalls++
			if !hookTiming {
				sa.OnRegRead(file, phys, cycle, seq)
				return
			}
			t := time.Now()
			sa.OnRegRead(file, phys, cycle, seq)
			lr.saNs += float64(time.Since(t))
			lr.saTimed++
		},
		OnTLBAccess: func(s pipeline.Structure, entry int, cycle int64, refill bool) {
			lr.saCalls++
			if !hookTiming {
				sa.OnTLBAccess(s, entry, cycle, refill)
				return
			}
			t := time.Now()
			sa.OnTLBAccess(s, entry, cycle, refill)
			lr.saNs += float64(time.Since(t))
			lr.saTimed++
		},
	}
	if rc.Lanes > 1 {
		hooks.OnFailureMask = func(mask pipeline.ErrMask, seq, cycle int64, class isa.Class) {
			lr.failCalls++
			if !hookTiming {
				est.HandleFailureMask(mask, seq, cycle, class)
				return
			}
			t := time.Now()
			est.HandleFailureMask(mask, seq, cycle, class)
			lr.failNs += float64(time.Since(t))
			lr.failTimed++
		}
	} else {
		hooks.OnFailure = func(s pipeline.Structure, seq, cycle int64, class isa.Class) {
			lr.failCalls++
			if !hookTiming {
				est.HandleFailure(s, seq, cycle, class)
				return
			}
			t := time.Now()
			est.HandleFailure(s, seq, cycle, class)
			lr.failNs += float64(time.Since(t))
			lr.failTimed++
		}
	}
	p.SetHooks(hooks)

	// The drive loop's stopping rule is RunCtx's.
	totalCycles := intervalCycles * int64(rc.Intervals)
	capCycles := 4*totalCycles + 4*rc.M
	lanesDone := func() bool {
		for _, s := range structs {
			if len(est.Estimates(s)) < rc.Intervals {
				return false
			}
		}
		return true
	}
	lastConcluded := int64(-1)
	nextCtxCheck := int64(2048)
	x := *rng
	for {
		if rc.Lanes > 1 {
			if c := est.ConcludedInjections(); c != lastConcluded {
				lastConcluded = c
				if lanesDone() {
					break
				}
			}
			if p.Cycle() > capCycles {
				return nil, fmt.Errorf("lane run exceeded %d cycles", capCycles)
			}
		} else if p.Cycle() >= totalCycles+1 {
			break
		}
		if p.Cycle() >= nextCtxCheck {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			nextCtxCheck = p.Cycle() + 2048
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var stepped bool
		switch x & sampleMask {
		case stepTimed:
			lr.stepCycles++
			t := time.Now()
			stepped = p.Step()
			lr.stepNs += float64(time.Since(t))
			t = time.Now()
			est.Tick()
			lr.tickNs += float64(time.Since(t))
		case hookTimed:
			lr.hookCycles++
			hookTiming = true
			stepped = p.Step()
			hookTiming = false
			est.Tick()
		case clockTimed:
			lr.clockCycles++
			t := time.Now()
			lr.clockNs += float64(time.Since(t))
			stepped = p.Step()
			est.Tick()
		default:
			stepped = p.Step()
			est.Tick()
		}
		if !stepped {
			return nil, fmt.Errorf("trace ended after %d cycles", p.Cycle())
		}
	}
	*rng = x
	t := time.Now()
	ref.Flush()
	lr.flushNs = float64(time.Since(t))

	for _, s := range structs {
		online := make([]float64, rc.Intervals)
		copy(online, est.AVFSeries(s))
		lr.series = append(lr.series, experiment.StructSeries{
			Structure: s, Online: online, Reference: ref.AVFSeries(s, rc.Intervals),
		})
		for _, e := range est.Estimates(s) {
			lr.failures += int64(e.Failures)
			lr.ests++
		}
	}
	lr.cycles, lr.retired = p.Cycle(), p.Retired()
	lr.injections = est.ConcludedInjections()
	lr.wall = time.Since(wall0)
	return lr, nil
}

// span renders one traced operation as a span whose attributes carry
// its layer times.
func (lr *layerRun) span(spec jobSpec, k int) span.Span {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', 6, 64) }
	return span.Span{
		TraceID: fmt.Sprintf("%032x", spec.Seed), SpanID: fmt.Sprintf("%016x", k+1),
		Name: "sim.traced", Job: spec.Benchmark, Status: "ok",
		Start: lr.start, End: lr.start.Add(lr.wall), DurationSeconds: lr.wall.Seconds(),
		Attrs: map[string]string{
			"cycles": strconv.FormatInt(lr.cycles, 10), "step_cycles": strconv.FormatInt(lr.stepCycles, 10),
			"hook_cycles": strconv.FormatInt(lr.hookCycles, 10),
			"step_ns":     f(lr.stepNs), "tick_ns": f(lr.tickNs), "softarch_ns": f(lr.saNs),
			"failure_hook_ns": f(lr.failNs), "construct_ns": f(lr.constructNs), "flush_ns": f(lr.flushNs),
		},
	}
}

// layerTotals accumulates traced operations; first sums the exact
// counts of the first round only, which the seed alone determines.
type layerTotals struct {
	runs                                int
	stepCycles, hookCycles, clockCycles int64
	cycles                              int64
	stepNs, tickNs, clockNs             float64
	saNs, failNs                        float64
	saTimed, failTimed                  int64
	constructNs, flushNs                float64
	wall                                time.Duration
	first                               layerRun
}

func (lt *layerTotals) add(lr *layerRun, firstRound bool) {
	lt.runs++
	lt.stepCycles += lr.stepCycles
	lt.hookCycles += lr.hookCycles
	lt.clockCycles += lr.clockCycles
	lt.clockNs += lr.clockNs
	lt.saTimed += lr.saTimed
	lt.failTimed += lr.failTimed
	lt.cycles += lr.cycles
	lt.stepNs += lr.stepNs
	lt.tickNs += lr.tickNs
	lt.saNs += lr.saNs
	lt.failNs += lr.failNs
	lt.constructNs += lr.constructNs
	lt.flushNs += lr.flushNs
	lt.wall += lr.wall
	if firstRound {
		f := &lt.first
		f.cycles += lr.cycles
		f.retired += lr.retired
		f.injections += lr.injections
		f.failures += lr.failures
		f.ests += lr.ests
		f.saCalls += lr.saCalls
		f.failCalls += lr.failCalls
	}
}

// report fills the simulator per-layer metrics. untraced is the RunCtx
// wall time of the same operations.
func (lt *layerTotals) report(out *outcome, untraced time.Duration, mallocs, allocBytes uint64) {
	v := out.values
	if lt.stepCycles == 0 || lt.hookCycles == 0 || lt.clockCycles == 0 {
		return
	}
	cyc := float64(lt.cycles)
	clock := lt.clockNs / float64(lt.clockCycles)
	step := lt.stepNs/float64(lt.stepCycles) - clock
	sa := (lt.saNs - float64(lt.saTimed)*clock) / float64(lt.hookCycles)
	fail := (lt.failNs - float64(lt.failTimed)*clock) / float64(lt.hookCycles)
	v["pipeline.self_ns_per_cycle"] = step - sa - fail
	v["softarch.hooks_ns_per_cycle"] = sa + lt.flushNs/cyc
	v["core.tick_ns_per_cycle"] = lt.tickNs/float64(lt.stepCycles) - clock
	v["core.failure_hook_ns_per_cycle"] = fail
	v["experiment.construct_ms_per_run"] = lt.constructNs / float64(lt.runs) / 1e6
	untracedPerCycle := float64(untraced) / cyc
	layerSum := step + v["core.tick_ns_per_cycle"] + (lt.flushNs+lt.constructNs)/cyc
	v["sim.untraced_ns_per_cycle"] = untracedPerCycle
	v["experiment.residual_ns_per_cycle"] = untracedPerCycle - layerSum
	v["sim.allocs_per_cycle"] = float64(mallocs) / cyc
	v["sim.bytes_per_cycle"] = float64(allocBytes) / cyc
	f := lt.first
	v["pipeline.cycles"] = float64(f.cycles)
	v["pipeline.retired"] = float64(f.retired)
	v["core.injections"] = float64(f.injections)
	v["core.failures"] = float64(f.failures)
	v["core.estimates"] = float64(f.ests)
	v["softarch.hook_calls"] = float64(f.saCalls)
	v["core.failure_hook_calls"] = float64(f.failCalls)
	tracedPerCycle := float64(lt.wall) / cyc
	v["trace.overhead_pct"] = 100 * (tracedPerCycle - untracedPerCycle) / untracedPerCycle
	out.info["traced_ns_per_cycle"] = tracedPerCycle
	out.info["layer_sum_ns_per_cycle"] = layerSum
	out.info["step_cycles"], out.info["hook_cycles"] = lt.stepCycles, lt.hookCycles
	out.info["clock_ns"] = clock
}

// zeroAbsentLayers sets to 0 the per-layer metrics of layers a
// workload does not run.
func zeroAbsentLayers(v map[string]float64) {
	for _, d := range perLayer {
		if _, ok := v[d.name]; !ok {
			v[d.name] = 0
		}
	}
}
