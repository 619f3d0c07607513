package experiment

import (
	"testing"

	"avfsim/internal/workload"
)

// workCount is what one run simulates: cycles, retired instructions,
// concluded injections, the failures its estimates count (the sum of
// Estimate.Failures) and how many of the cycles the pipeline stepped one
// by one.
type workCount struct {
	bench                               string
	cycles, retired, injected, failures int64
	steps                               int64
}

// workCounts pins, per profile, what one sim-classic-shaped run (scale
// 0.02, seed 1, M=1000, N=100, one interval) simulates. Cycles, retired
// instructions and concluded injections were captured while every cycle
// was still stepped, so skipping idle cycles must leave them unchanged;
// failures were captured at commit e46903e.
var workCounts = []workCount{
	{"ammp", 100001, 65575, 400, 28, 40775},
	{"art", 100001, 32062, 400, 26, 20348},
	{"bzip2", 100001, 8852, 400, 24, 8524},
	{"equake", 100001, 15351, 400, 26, 13717},
	{"facerec", 100001, 59092, 400, 26, 31319},
	{"lucas", 100001, 27704, 400, 45, 21095},
	{"mesa", 100001, 42107, 400, 24, 31600},
	{"perlbmk", 100001, 8885, 400, 18, 9548},
	{"sixtrack", 100001, 112551, 400, 40, 63423},
	{"swim", 100001, 41309, 400, 24, 27280},
	{"wupwise", 100001, 32909, 400, 37, 23583},
}

// laneWorkCounts pins the same for a sim-lanes-shaped run (64 lanes at
// the paper's N=1000, otherwise as above), captured at commit e46903e.
var laneWorkCounts = []workCount{
	{"ammp", 63001, 54066, 4032, 387, 33362},
	{"art", 63001, 19460, 4032, 256, 12626},
	{"bzip2", 63001, 5055, 4032, 127, 4922},
	{"equake", 63001, 8847, 4032, 195, 8320},
	{"facerec", 63001, 36376, 4032, 274, 19490},
	{"lucas", 63001, 16966, 4032, 402, 12929},
	{"mesa", 63001, 23657, 4032, 233, 18385},
	{"perlbmk", 63001, 5162, 4032, 144, 5654},
	{"sixtrack", 63001, 53640, 4032, 347, 32161},
	{"swim", 63001, 23566, 4032, 206, 16450},
	{"wupwise", 63001, 19689, 4032, 302, 14468},
}

// checkWorkCounts runs rc on every profile of want and compares its
// counts, returning the summed cycles and steps.
func checkWorkCounts(t *testing.T, rc RunConfig, want []workCount) (cycles, steps int64) {
	t.Helper()
	if len(want) != len(workload.Names()) {
		t.Fatalf("table covers %d profiles, suite has %d", len(want), len(workload.Names()))
	}
	for _, w := range want {
		rc.Benchmark = w.bench
		res, err := Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		var failures int64
		for _, s := range res.Estimator.Structures() {
			for _, e := range res.Estimator.Estimates(s) {
				failures += int64(e.Failures)
			}
		}
		got := workCount{w.bench, res.Stats.Cycles, res.Stats.Retired,
			res.Estimator.ConcludedInjections(), failures, res.Steps}
		if got != w {
			t.Errorf("lanes=%d: got %+v, want %+v", rc.Lanes, got, w)
		}
		if res.Steps > res.Stats.Cycles {
			t.Errorf("%s: %d steps for %d cycles", w.bench, res.Steps, res.Stats.Cycles)
		}
		cycles += res.Stats.Cycles
		steps += res.Steps
	}
	return cycles, steps
}

// TestRunWorkCounts is the noise-free record of the work the drive loop
// does: the same simulated cycles, instructions, injections and failures,
// with at most 35% of the classic run's cycles stepped over the whole
// suite.
func TestRunWorkCounts(t *testing.T) {
	cycles, steps := checkWorkCounts(t, RunConfig{Scale: 0.02, Seed: 1, M: 1000, N: 100, Intervals: 1}, workCounts)
	checkWorkCounts(t, RunConfig{Scale: 0.02, Seed: 1, M: 1000, N: 1000, Intervals: 1, Lanes: 64}, laneWorkCounts)
	share := float64(steps) / float64(cycles)
	t.Logf("stepped %d of %d cycles (%.1f%%)", steps, cycles, 100*share)
	if share > 0.35 {
		t.Errorf("stepped %.1f%% of simulated cycles, want <= 35%%", 100*share)
	}
}
