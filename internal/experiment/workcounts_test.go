package experiment

import (
	"testing"

	"avfsim/internal/workload"
)

// workCounts pins, per profile, what one sim-classic-shaped run (scale
// 0.02, seed 1, M=1000, N=100, one interval) simulates. Cycles, retired
// instructions and concluded injections were captured while every cycle
// was still stepped, so skipping idle cycles must leave them unchanged;
// steps is how many of those cycles the pipeline still simulates one by
// one.
var workCounts = []struct {
	bench                     string
	cycles, retired, injected int64
	steps                     int64
}{
	{"ammp", 100001, 65575, 400, 40775},
	{"art", 100001, 32062, 400, 20348},
	{"bzip2", 100001, 8852, 400, 8524},
	{"equake", 100001, 15351, 400, 13717},
	{"facerec", 100001, 59092, 400, 31319},
	{"lucas", 100001, 27704, 400, 21095},
	{"mesa", 100001, 42107, 400, 31600},
	{"perlbmk", 100001, 8885, 400, 9548},
	{"sixtrack", 100001, 112551, 400, 63423},
	{"swim", 100001, 41309, 400, 27280},
	{"wupwise", 100001, 32909, 400, 23583},
}

// TestRunWorkCounts is the noise-free record of the work the drive loop
// removed: the same simulated cycles, instructions and injections, with
// at most 35% of the cycles stepped over the whole suite.
func TestRunWorkCounts(t *testing.T) {
	if len(workCounts) != len(workload.Names()) {
		t.Fatalf("workCounts covers %d profiles, suite has %d", len(workCounts), len(workload.Names()))
	}
	var cycles, steps int64
	for _, w := range workCounts {
		res, err := Run(RunConfig{Benchmark: w.bench, Scale: 0.02, Seed: 1, M: 1000, N: 100, Intervals: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := [4]int64{res.Stats.Cycles, res.Stats.Retired, res.Estimator.ConcludedInjections(), res.Steps}
		want := [4]int64{w.cycles, w.retired, w.injected, w.steps}
		if got != want {
			t.Errorf("%s: cycles, retired, injections, steps = %v, want %v", w.bench, got, want)
		}
		if res.Steps > res.Stats.Cycles {
			t.Errorf("%s: %d steps for %d cycles", w.bench, res.Steps, res.Stats.Cycles)
		}
		cycles += res.Stats.Cycles
		steps += res.Steps
	}
	share := float64(steps) / float64(cycles)
	t.Logf("stepped %d of %d cycles (%.1f%%)", steps, cycles, 100*share)
	if share > 0.35 {
		t.Errorf("stepped %.1f%% of simulated cycles, want <= 35%%", 100*share)
	}
}
