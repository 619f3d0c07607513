package experiment

import (
	"strings"
	"sync"
	"testing"

	"avfsim/internal/pipeline"
	"avfsim/internal/stats"
)

// baselineSpec is sized so the full-suite studies stay fast.
var baselineSpec = ScaleSpec{
	Name: "baseline-test", Scale: 0.02, M: 1000, N: 150,
	Intervals: 4, DetailIntervals: 4, Fig2M: 2000, Fig2Samples: 300,
}

// baselineSuite is the one suite the baseline tests share, so its
// memoized 11-run grid is simulated once rather than once per test.
// The tests that use it do not run in parallel.
var baselineSuite = sync.OnceValue(func() *Suite { return NewSuite(baselineSpec, 1) })

func TestOccupancyOverestimatesIQ(t *testing.T) {
	s := baselineSuite()
	rows, err := s.OccupancyStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("got %d rows, want 11 benchmarks", len(rows))
	}
	worseCount := 0
	for _, r := range rows {
		// Occupancy bounds the real AVF from above: it counts dead
		// instructions as vulnerable.
		if r.MeanOcc < r.MeanRef {
			t.Errorf("%s: mean occupancy %.4f below real AVF %.4f", r.Benchmark, r.MeanOcc, r.MeanRef)
		}
		if r.OccErr > r.OnlineErr {
			worseCount++
		}
	}
	// The proxy must be clearly worse than the online method overall.
	if worseCount < 9 {
		t.Errorf("occupancy beat online on %d/11 benchmarks", 11-worseCount)
	}
}

func TestRegressionStudyShape(t *testing.T) {
	s := baselineSuite()
	rows, err := s.RegressionStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(pipeline.PaperStructures) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.TrainErr < 0 || r.TestErr < 0 || r.OnlineErr < 0 {
			t.Errorf("%v: negative error", r.Structure)
		}
		// Generalization gap: held-out error exceeds training error
		// (the transfer risk the paper calls out).
		if r.TestErr < r.TrainErr {
			t.Errorf("%v: test err %.4f below train err %.4f", r.Structure, r.TestErr, r.TrainErr)
		}
		if r.TestErr > 0.2 {
			t.Errorf("%v: regression test err %.4f implausibly large", r.Structure, r.TestErr)
		}
	}
}

func TestRegressionSplitCoversSuite(t *testing.T) {
	train, test := RegressionSplit()
	if len(train)+len(test) != 11 {
		t.Fatalf("split sizes %d + %d", len(train), len(test))
	}
	seen := map[string]bool{}
	for _, b := range append(append([]string{}, train...), test...) {
		if seen[b] {
			t.Errorf("benchmark %s appears twice", b)
		}
		seen[b] = true
	}
}

func TestRunCollectsFeaturesAndOccupancy(t *testing.T) {
	res, err := Run(RunConfig{
		Benchmark: "mesa", Scale: 0.02, Seed: 1, M: 500, N: 100, Intervals: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Features) != 3 {
		t.Fatalf("features rows = %d", len(res.Features))
	}
	for i, row := range res.Features {
		if len(row) != len(FeatureNames) {
			t.Fatalf("row %d has %d features, want %d", i, len(row), len(FeatureNames))
		}
		for j, v := range row {
			if v < 0 || v > 6 { // ipc can exceed 1; rates cannot be negative
				t.Errorf("feature %s[%d] = %v out of plausible range", FeatureNames[j], i, v)
			}
		}
	}
	if len(res.IQOccupancy) != 3 {
		t.Fatalf("occupancy rows = %d", len(res.IQOccupancy))
	}
	if stats.Mean(res.IQOccupancy) <= 0 {
		t.Error("occupancy identically zero")
	}
}

func TestBaselinesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite render")
	}
	var b strings.Builder
	if err := baselineSuite().Baselines(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Baseline A", "Baseline B", "trained on", "occ err", "online err"} {
		if !strings.Contains(out, want) {
			t.Errorf("baselines output missing %q", want)
		}
	}
}
