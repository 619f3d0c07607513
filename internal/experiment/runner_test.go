package experiment

import (
	"fmt"
	"testing"

	"avfsim/internal/config"
	"avfsim/internal/core"
	"avfsim/internal/pipeline"
	"avfsim/internal/softarch"
	"avfsim/internal/stats"
	"avfsim/internal/trace"
	"avfsim/internal/workload"
)

// quickRun is a small but statistically meaningful configuration used
// across the integration tests.
func quickRun(t *testing.T, rc RunConfig) *Result {
	t.Helper()
	if rc.Benchmark == "" && rc.Profile == nil {
		rc.Benchmark = "mesa"
	}
	if rc.Scale == 0 {
		rc.Scale = 0.05
	}
	if rc.M == 0 {
		rc.M = 1000
	}
	if rc.N == 0 {
		rc.N = 300
	}
	if rc.Intervals == 0 {
		rc.Intervals = 6
	}
	res, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOnlineTracksReference is the repository's headline check: the online
// estimator's per-interval AVF stays within the paper's error bands of the
// SoftArch-style reference (abs error rarely above 0.08, mean below 0.05)
// for all four structures.
func TestOnlineTracksReference(t *testing.T) {
	res := quickRun(t, RunConfig{Benchmark: "mesa", Seed: 1})
	if res.DroppedMarks > 100 {
		t.Errorf("reference dropped %d marks", res.DroppedMarks)
	}
	for _, ss := range res.Series {
		errs := stats.AbsErrors(ss.Online, ss.Reference)
		sum := stats.Summarize(errs)
		// N=300 gives estimator sigma up to 0.029, so allow a wider band
		// than the paper's N=1000 numbers.
		if sum.Mean > 0.05 {
			t.Errorf("%v mean abs error = %.4f, want <= 0.05", ss.Structure, sum.Mean)
		}
		if m := stats.Max(errs); m > 0.12 {
			t.Errorf("%v max abs error = %.4f, want <= 0.12", ss.Structure, m)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	a := quickRun(t, RunConfig{Benchmark: "bzip2", Seed: 3, N: 100, Intervals: 3})
	b := quickRun(t, RunConfig{Benchmark: "bzip2", Seed: 3, N: 100, Intervals: 3})
	for i := range a.Series {
		for j := range a.Series[i].Online {
			if a.Series[i].Online[j] != b.Series[i].Online[j] {
				t.Fatalf("online series diverged: %v interval %d", a.Series[i].Structure, j)
			}
			if a.Series[i].Reference[j] != b.Series[i].Reference[j] {
				t.Fatalf("reference series diverged: %v interval %d", a.Series[i].Structure, j)
			}
		}
	}
}

// TestPlaneParallelMatchesSerial verifies the simulator's plane trick: the
// estimate for a structure is identical whether it is monitored alone or
// together with the other structures, because error-bit planes are fully
// independent and injections never perturb timing.
func TestPlaneParallelMatchesSerial(t *testing.T) {
	all := quickRun(t, RunConfig{Benchmark: "mesa", Seed: 2, N: 100, Intervals: 3})
	for _, s := range pipeline.PaperStructures {
		solo := quickRun(t, RunConfig{
			Benchmark: "mesa", Seed: 2, N: 100, Intervals: 3,
			Structures: []pipeline.Structure{s},
		})
		a := all.SeriesFor(s).Online
		b := solo.SeriesFor(s).Online
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%v: plane-parallel %v != serial %v at interval %d", s, a[i], b[i], i)
			}
		}
	}
}

// TestUtilizationOverestimatesFPU reproduces the paper's observation that
// the utilization proxy shows a significant gap from the real AVF, while
// the online method does not (Figure 3c/d).
func TestUtilizationOverestimatesFPU(t *testing.T) {
	res := quickRun(t, RunConfig{Benchmark: "sixtrack", Seed: 1})
	fpu := res.SeriesFor(pipeline.StructFPU)
	if fpu == nil || fpu.Utilization == nil {
		t.Fatal("no FPU utilization series")
	}
	utilErr := stats.Mean(stats.AbsErrors(fpu.Utilization, fpu.Reference))
	onlineErr := stats.Mean(stats.AbsErrors(fpu.Online, fpu.Reference))
	if utilErr <= 2*onlineErr {
		t.Errorf("utilization error %.4f not clearly worse than online %.4f", utilErr, onlineErr)
	}
}

func TestStorageSeriesHaveNoUtilization(t *testing.T) {
	res := quickRun(t, RunConfig{Benchmark: "mesa", Seed: 1, N: 50, Intervals: 2})
	for _, s := range []pipeline.Structure{pipeline.StructIQ, pipeline.StructReg} {
		if ss := res.SeriesFor(s); ss.Utilization != nil {
			t.Errorf("%v has a utilization series", s)
		}
	}
	for _, s := range []pipeline.Structure{pipeline.StructFXU, pipeline.StructFPU} {
		if ss := res.SeriesFor(s); len(ss.Utilization) != 2 {
			t.Errorf("%v utilization has %d intervals", s, len(ss.Utilization))
		}
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(RunConfig{Benchmark: "nosuch"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	// Validate refuses what Run refuses before it builds anything.
	for _, rc := range []RunConfig{
		{Benchmark: "mesa", M: -1},
		{Benchmark: "mesa", Scale: 2},
		{Benchmark: "mesa", Lanes: -1},
		{Benchmark: "mesa", Lanes: 8, Multiplex: true},
		{Benchmark: "mesa", Window: softarch.MaxWindow + 1},
		{Benchmark: "mesa", Structures: []pipeline.Structure{pipeline.StructIQ, pipeline.StructIQ}},
	} {
		if rc.Validate() == nil {
			t.Errorf("%+v: Validate accepted it", rc)
		}
		if _, err := Run(rc); err == nil {
			t.Errorf("%+v: Run accepted it", rc)
		}
	}
}

func TestSeriesForMissing(t *testing.T) {
	res := quickRun(t, RunConfig{
		Benchmark: "mesa", Seed: 1, N: 50, Intervals: 1,
		Structures: []pipeline.Structure{pipeline.StructIQ},
	})
	if res.SeriesFor(pipeline.StructFPU) != nil {
		t.Error("missing structure returned a series")
	}
	if res.SeriesFor(pipeline.StructIQ) == nil {
		t.Error("monitored structure missing")
	}
}

// TestExtensionStructures runs the non-paper planes (FP register file,
// LSU) through the same machinery.
func TestExtensionStructures(t *testing.T) {
	res := quickRun(t, RunConfig{
		Benchmark: "sixtrack", Seed: 1, N: 200, Intervals: 4,
		Structures: []pipeline.Structure{pipeline.StructFPReg, pipeline.StructLSU},
	})
	for _, ss := range res.Series {
		errs := stats.AbsErrors(ss.Online, ss.Reference)
		if m := stats.Mean(errs); m > 0.06 {
			t.Errorf("%v mean abs error = %.4f", ss.Structure, m)
		}
		if stats.Mean(ss.Reference) == 0 {
			t.Errorf("%v reference identically zero on an FP workload", ss.Structure)
		}
	}
}

// TestRandomAblationsStayAccurate: random entry selection and random
// injection scheduling should estimate about as well as the paper's
// hardware-friendly round-robin/fixed-interval choices.
func TestRandomAblationsStayAccurate(t *testing.T) {
	res := quickRun(t, RunConfig{
		Benchmark: "mesa", Seed: 4, RandomEntry: true, RandomSchedule: true,
	})
	for _, ss := range res.Series {
		if m := stats.Mean(stats.AbsErrors(ss.Online, ss.Reference)); m > 0.06 {
			t.Errorf("%v random-ablation mean abs error = %.4f", ss.Structure, m)
		}
	}
}

// TestEstimatorAccuracyAcrossMachines: the error-bit method's accuracy is
// a property of N, not of the machine; it must hold on a narrow
// embedded-class core and on an aggressive wide one.
func TestEstimatorAccuracyAcrossMachines(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() config.Config
	}{
		{"narrow", config.Narrow},
		{"wide", config.Wide},
	} {
		cfg := tc.cfg()
		res, err := Run(RunConfig{
			Benchmark: "mesa", Scale: 0.03, Seed: 5,
			M: 1000, N: 250, Intervals: 4, Config: &cfg,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, ss := range res.Series {
			if m := stats.Mean(stats.AbsErrors(ss.Online, ss.Reference)); m > 0.06 {
				t.Errorf("%s %v: mean abs error %.4f", tc.name, ss.Structure, m)
			}
		}
	}
}

// TestMultiplexedRunStillTracksReference: the single-error hardware mode
// estimates each structure K times slower but just as accurately.
func TestMultiplexedRunStillTracksReference(t *testing.T) {
	res, err := Run(RunConfig{
		Benchmark: "mesa", Scale: 0.05, Seed: 6,
		M: 1000, N: 150, Intervals: 3, Multiplex: true,
		Structures: []pipeline.Structure{pipeline.StructIQ, pipeline.StructReg},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ss := range res.Series {
		if len(ss.Online) != 3 {
			t.Fatalf("%v: %d intervals", ss.Structure, len(ss.Online))
		}
		if m := stats.Mean(stats.AbsErrors(ss.Online, ss.Reference)); m > 0.08 {
			t.Errorf("%v multiplexed mean abs error = %.4f", ss.Structure, m)
		}
	}
}

// TestConvergencePropertyRandomProfiles is a randomized end-to-end
// validation: for arbitrary (valid) workload profiles, the online
// estimator's mean error against the exact reference stays within the
// sampling bound — the paper's central claim, tested beyond the named
// benchmark suite.
func TestConvergencePropertyRandomProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized multi-run validation")
	}
	rng := uint64(0xabcdef)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	for trial := 0; trial < 5; trial++ {
		params := trace.Params{
			Seed:        rng,
			Blocks:      32 + int(next(200)),
			BlockLen:    3 + int(next(10)),
			DepDistMean: 1 + float64(next(10)),
			DeadFrac:    float64(next(4)) * 0.1,
			WorkingSet:  1 << (12 + next(11)),
			SeqFrac:     float64(next(5)) * 0.25,
			TakenBias:   0.3 + float64(next(5))*0.1,
			BiasedFrac:  float64(next(5)) * 0.25,
			Mix: trace.Mix{
				IntALU: 0.2 + float64(next(30))/100,
				IntMul: float64(next(5)) / 100,
				FPAdd:  float64(next(20)) / 100,
				FPMul:  float64(next(15)) / 100,
				Load:   0.15 + float64(next(20))/100,
				Store:  0.08 + float64(next(10))/100,
				Nop:    float64(next(5)) / 100,
			},
			PCBase:   0x10000,
			DataBase: 0x1000000,
		}
		prof := &workload.Profile{Name: fmt.Sprintf("random-%d", trial),
			Phases: []workload.Phase{{Name: "p", Params: params, Insts: 1 << 30}}}
		res, err := Run(RunConfig{
			Profile: prof, Seed: uint64(trial),
			M: 1000, N: 200, Intervals: 4,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, ss := range res.Series {
			m := stats.Mean(stats.AbsErrors(ss.Online, ss.Reference))
			// Estimator sigma at N=200 is <= 0.035; anything beyond ~2x
			// that indicates a systematic modeling disagreement.
			if m > 0.07 {
				t.Errorf("trial %d %v: mean abs error %.4f (params %+v)",
					trial, ss.Structure, m, params)
			}
		}
	}
}

// TestRerunDeterminism is the checkpoint-resume gate at the runner
// level: two runs of one config emit, through OnInterval, the same
// estimate stream — identical values, identical order — and the same
// final Result series. avfd's WAL recovery rests on this: a resumed job
// re-executes from cycle 0 and drops the intervals its WAL already
// holds, so the suffix it emits is the uninterrupted run's.
func TestRerunDeterminism(t *testing.T) {
	base := RunConfig{Benchmark: "bzip2", Scale: 0.02, Seed: 3, M: 400, N: 50, Intervals: 4}

	collect := func(rc RunConfig) ([]core.Estimate, *Result) {
		var ests []core.Estimate
		rc.OnInterval = func(e core.Estimate) { ests = append(ests, e) }
		res, err := Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		return ests, res
	}

	fullEsts, fullRes := collect(base)
	if len(fullEsts) != 4*len(pipeline.PaperStructures) {
		t.Fatalf("run emitted %d estimates, want %d", len(fullEsts), 4*len(pipeline.PaperStructures))
	}
	againEsts, againRes := collect(base)
	if len(againEsts) != len(fullEsts) {
		t.Fatalf("rerun emitted %d estimates, want %d", len(againEsts), len(fullEsts))
	}
	for i := range fullEsts {
		if againEsts[i] != fullEsts[i] {
			t.Fatalf("rerun estimate %d = %+v, want %+v", i, againEsts[i], fullEsts[i])
		}
	}
	for i, ss := range fullRes.Series {
		rs := againRes.Series[i]
		if ss.Structure != rs.Structure {
			t.Fatalf("series %d structure %v != %v", i, ss.Structure, rs.Structure)
		}
		for k := range ss.Online {
			if ss.Online[k] != rs.Online[k] || ss.Reference[k] != rs.Reference[k] {
				t.Fatalf("%v interval %d: rerun (%v,%v) != first run (%v,%v)",
					ss.Structure, k, rs.Online[k], rs.Reference[k], ss.Online[k], ss.Reference[k])
			}
		}
	}
}
