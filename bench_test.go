// Package avfsim's root benchmarks regenerate each of the paper's tables
// and figures at a reduced scale, one benchmark per artifact:
//
//	go test -bench=. -benchmem
//
// The shapes these produce (who wins, by what factor) mirror the paper;
// absolute AVF values differ because the workloads are synthetic stand-ins
// for SPEC CPU2000 (see DESIGN.md §2). cmd/avfreport renders the same
// artifacts as text tables, up to full paper scale.
package avfsim

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"avfsim/internal/config"
	"avfsim/internal/core"
	"avfsim/internal/experiment"
	"avfsim/internal/obs"
	"avfsim/internal/pipeline"
	"avfsim/internal/predict"
	"avfsim/internal/sched"
	"avfsim/internal/stats"
	"avfsim/internal/workload"
)

// benchSpec trims the Quick scale further so the full bench suite stays
// in CI territory.
var benchSpec = experiment.ScaleSpec{
	Name: "bench", Scale: 0.02, M: 1000, N: 100,
	Intervals: 4, DetailIntervals: 6, Fig2M: 2000, Fig2Samples: 500,
}

// BenchmarkTable1Simulator measures the timing simulator's cycle
// throughput at the Table 1 (POWER4-like) configuration.
func BenchmarkTable1Simulator(b *testing.B) {
	prof, err := workload.ByName("mesa")
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.Default()
	p, err := pipeline.New(&cfg, prof.MustSource(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
	b.ReportMetric(float64(p.Retired())/float64(p.Cycle()), "ipc")
}

// BenchmarkFigure1SampleSize measures the sample-size analysis behind
// Figure 1 (N = AVF(1-AVF)/sigma^2 curves).
func BenchmarkFigure1SampleSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sigma := range stats.Figure1Sigmas {
			curve := stats.SampleSizeCurve(sigma, 100)
			if curve[50].N == 0 {
				b.Fatal("degenerate curve")
			}
		}
	}
}

// BenchmarkFigure2PropagationCDF regenerates the error-propagation-latency
// CDFs for the register file and FXU on bzip2.
func BenchmarkFigure2PropagationCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiment.NewSuite(benchSpec, 1)
		data, err := s.Figure2Data()
		if err != nil {
			b.Fatal(err)
		}
		if len(data) != 2 || data[0].Samples == 0 {
			b.Fatal("no CDF data")
		}
	}
}

// BenchmarkFigure3ErrorStats regenerates one column of Figure 3: the
// online and utilization error aggregates against the reference for one
// application across all four structures.
func BenchmarkFigure3ErrorStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(experiment.RunConfig{
			Benchmark: "mesa", Scale: benchSpec.Scale, Seed: 1,
			M: benchSpec.M, N: benchSpec.N, Intervals: benchSpec.Intervals,
		})
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, ss := range res.Series {
			if m := stats.Mean(stats.AbsErrors(ss.Online, ss.Reference)); m > worst {
				worst = m
			}
		}
		b.ReportMetric(worst, "worst-mean-abs-err")
	}
}

// BenchmarkFigure4Timeseries regenerates a detailed per-interval AVF time
// series (the Figure 4 view) for one application.
func BenchmarkFigure4Timeseries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(experiment.RunConfig{
			Benchmark: "ammp", Scale: benchSpec.Scale, Seed: 1,
			M: benchSpec.M, N: benchSpec.N, Intervals: benchSpec.DetailIntervals,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.SeriesFor(pipeline.StructIQ).Online) != benchSpec.DetailIntervals {
			b.Fatal("short series")
		}
	}
}

// BenchmarkFigure5Prediction regenerates the last-value prediction errors
// for one application across the four structures.
func BenchmarkFigure5Prediction(b *testing.B) {
	res, err := experiment.Run(experiment.RunConfig{
		Benchmark: "bzip2", Scale: benchSpec.Scale, Seed: 1,
		M: benchSpec.M, N: benchSpec.N, Intervals: benchSpec.DetailIntervals,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ss := range res.Series {
			ev, err := predict.Evaluate(predict.NewLastValue(), ss.Online, ss.Reference)
			if err != nil {
				b.Fatal(err)
			}
			_ = ev
		}
	}
}

// parallelGridConfigs is the benchmark × seed grid for
// BenchmarkParallelGrid: every workload once, at the bench scale.
func parallelGridConfigs() []experiment.RunConfig {
	var cfgs []experiment.RunConfig
	for _, bench := range workload.Names() {
		cfgs = append(cfgs, experiment.RunConfig{
			Benchmark: bench, Scale: benchSpec.Scale, Seed: 1,
			M: benchSpec.M, N: benchSpec.N, Intervals: benchSpec.Intervals,
		})
	}
	return cfgs
}

// BenchmarkParallelGrid compares the serial benchmark grid against the
// sched.Pool fan-out used by avfreport -fig3/-fig5 and cmd/avfd. The
// grid is embarrassingly parallel (independent simulations), so the
// pooled wall-time approaches serial/worker-count on multi-core hosts;
// see EXPERIMENTS.md for measured numbers.
func BenchmarkParallelGrid(b *testing.B) {
	cfgs := parallelGridConfigs()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, rc := range cfgs {
				if _, err := experiment.Run(rc); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("pool-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pool := sched.New(sched.Options{Workers: workers, QueueCap: len(cfgs)})
				if _, err := experiment.RunGrid(context.Background(), pool, cfgs); err != nil {
					b.Fatal(err)
				}
				pool.Shutdown(context.Background())
			}
		})
	}
}

// obsLoop builds the Table 1 simulator on mesa with an attached
// estimator (M=1000, N=100) that reports to sink, nil leaving
// observability off, and returns a function stepping both for a number
// of cycles: the hot loop whose observability cost
// BenchmarkEstimatorObs and TestObsOverheadUnderFivePercent measure.
func obsLoop(tb testing.TB, sink obs.Sink) func(cycles int) {
	tb.Helper()
	prof, err := workload.ByName("mesa")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := config.Default()
	p, err := pipeline.New(&cfg, prof.MustSource(1))
	if err != nil {
		tb.Fatal(err)
	}
	e, err := core.NewEstimator(p, core.Options{M: 1000, N: 100, Sink: sink})
	if err != nil {
		tb.Fatal(err)
	}
	e.Attach()
	return func(cycles int) {
		for i := 0; i < cycles; i++ {
			p.Step()
			e.Tick()
		}
	}
}

// tracingSink is the full avfd production path: a JobTracer forwarding
// to per-structure Prometheus counters.
func tracingSink() obs.Sink {
	return obs.NewJobTracer(obs.NewInjectionCounters(obs.NewRegistry()), 0)
}

// BenchmarkEstimatorObs compares the estimator hot loop with
// observability disabled (nil Sink — the default) against the full avfd
// production path (tracingSink). The "off" case is the one that must
// not regress vs a tree without internal/obs; see EXPERIMENTS.md for
// recorded numbers.
func BenchmarkEstimatorObs(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		step := obsLoop(b, nil)
		b.ResetTimer()
		step(b.N)
	})
	b.Run("on", func(b *testing.B) {
		step := obsLoop(b, tracingSink())
		b.ResetTimer()
		step(b.N)
	})
}

// TestObsOverheadUnderFivePercent gates observability's "near-zero
// overhead" requirement: the full tracing path must cost < 5% over the
// untraced estimator. Each of five fresh (off, on) pairs steps both
// sides through the same cycles in alternating chunks, flipping which
// goes first, so host drift lands on both sides alike. A pair's
// overhead is its median chunk, so a preempted chunk does not count,
// and the median pair is gated, so neither does one instance's memory
// layout: under a concurrent load a single pair's whole-run ratio
// swings by more than three times the budget.
func TestObsOverheadUnderFivePercent(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation multiplies atomic-op cost; the 5% budget is for production builds")
	}
	const (
		pairs  = 5
		cycles = 150_000
		chunk  = 5_000
	)
	timed := func(step func(int)) time.Duration {
		start := time.Now()
		step(chunk)
		return time.Since(start)
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	overheads := make([]float64, pairs)
	for i := range overheads {
		off, on := obsLoop(t, nil), obsLoop(t, tracingSink())
		chunks := make([]float64, cycles/chunk)
		for c := range chunks {
			var offT, onT time.Duration
			if c%2 == 0 {
				offT = timed(off)
				onT = timed(on)
			} else {
				onT = timed(on)
				offT = timed(off)
			}
			chunks[c] = float64(onT-offT) / float64(offT)
		}
		overheads[i] = median(chunks)
		t.Logf("pair %d: overhead %.2f%%", i, overheads[i]*100)
	}
	if m := median(overheads); m > 0.05 {
		t.Errorf("median observability overhead %.2f%% exceeds 5%% budget", m*100)
	}
}
