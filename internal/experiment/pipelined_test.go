package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"avfsim/internal/config"
	"avfsim/internal/core"
	"avfsim/internal/isa"
	"avfsim/internal/softarch"
	"avfsim/internal/trace"
	"avfsim/internal/workload"
)

// simClassic is the sim-classic benchmark's run shape for one profile.
func simClassic(bench string, seed uint64) RunConfig {
	return RunConfig{Benchmark: bench, Scale: 0.02, Seed: seed, M: 1000, N: 100, Intervals: 4}
}

// profileSource is bench's scaled instruction stream.
func profileSource(t *testing.T, bench string) trace.Source {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.Scale(prof, 0.02).Source(1)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// waitGoroutines fails t unless the goroutine count falls back to base
// within a short poll (an exited goroutine leaves the count a moment
// after it has been joined).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after RunCtx returned, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// panicAfter yields k instructions from src, then panics.
type panicAfter struct {
	src trace.Source
	k   int
}

func (p *panicAfter) Next() (isa.Inst, bool) {
	if p.k == 0 {
		panic("source failed")
	}
	p.k--
	return p.src.Next()
}

// TestRunCtxLeavesNoGoroutines: RunCtx's prefetching and SoftArch
// goroutines have exited when it returns, however the run ends. A source
// that panics on the prefetching goroutine makes RunCtx panic on the
// calling goroutine, where a recover (sched's, in avfd) turns it into a
// failed job.
func TestRunCtxLeavesNoGoroutines(t *testing.T) {
	cases := []struct {
		name    string
		rc      func(cancel func()) RunConfig
		wantErr string
	}{
		{"normal end", func(func()) RunConfig { return simClassic("mesa", 1) }, ""},
		{"ctx canceled mid-run", func(cancel func()) RunConfig {
			rc := simClassic("mesa", 1)
			rc.OnInterval = func(core.Estimate) { cancel() }
			return rc
		}, context.Canceled.Error()},
		{"finite source", func(func()) RunConfig {
			rc := simClassic("", 1)
			rc.Source = trace.NewLimit(profileSource(t, "mesa"), 5000)
			return rc
		}, "trace ended"},
		{"panicking source", func(func()) RunConfig {
			rc := simClassic("", 1)
			rc.Source = &panicAfter{src: profileSource(t, "mesa"), k: 20_000}
			return rc
		}, "panic: source failed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			rc := tc.rc(cancel)
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				_, err = RunCtx(ctx, rc)
			}()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatal(err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			}
			waitGoroutines(t, base)
		})
	}
}

// emptyPool runs the two collections that drop whatever the analyzer
// pool holds: the first moves it to the pool's victim cache, the second
// frees it.
func emptyPool() {
	runtime.GC()
	runtime.GC()
}

// TestKeptResultRetainsLittle: a Result kept after RunCtx returns pins
// neither the SoftArch analyzer nor the event and instruction blocks,
// although Result.Estimator reaches the pipeline. A first run before the
// baseline sets up whatever a run sets up once, and both readings are
// taken with the analyzer pool emptied, so only what the kept Results
// hold is counted.
func TestKeptResultRetainsLittle(t *testing.T) {
	const runs = 4
	if _, err := Run(simClassic("mesa", 1)); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	emptyPool()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	kept := make([]*Result, 0, runs)
	for i := 0; i < runs; i++ {
		res, err := Run(simClassic("mesa", uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, res)
	}
	emptyPool()
	runtime.ReadMemStats(&ms)
	per := (int64(ms.HeapAlloc) - int64(before)) / runs
	runtime.KeepAlive(kept)
	t.Logf("%d bytes retained per kept Result", per)
	if per > 1<<20 {
		t.Errorf("%d bytes retained per kept Result, want at most 1 MiB", per)
	}
}

// TestRunCtxBytesPerRetired bounds what RunCtx allocates per retired
// instruction on mesa's sim-classic run, so SoftArch's per-run heap churn
// cannot creep back: cold, with the analyzer pool empty, and warm, on the
// second of two back-to-back runs, which reuses the first run's analyzer.
// The race detector drops a quarter of a sync.Pool's Puts at random, so
// there the warm run may be cold and only the cold bound is checked.
func TestRunCtxBytesPerRetired(t *testing.T) {
	perRetired := func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		res, err := Run(simClassic("mesa", 1))
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return float64(ms.TotalAlloc-before) / float64(res.Stats.Retired)
	}
	emptyPool()
	cold := perRetired()
	warm := perRetired()
	t.Logf("bytes allocated per retired instruction: %.0f cold, %.0f warm", cold, warm)
	if cold > 200 {
		t.Errorf("%.0f bytes allocated per retired instruction cold, want at most 200", cold)
	}
	if warm > 16 && !raceEnabled {
		t.Errorf("%.0f bytes allocated per retired instruction warm, want at most 16", warm)
	}
}

// TestAnalyzerReuse drives one analyzer through a sequence of runs that
// change the window, the interval length, the register and TLB geometry
// and the estimator mode, with a canceled run in the middle: every run's
// series of all eight structures, dropped marks and SoftArch event count
// equal those of a run with a fresh analyzer.
func TestAnalyzerReuse(t *testing.T) {
	structs := allStructures()
	narrow := config.Narrow()
	short := func(rc RunConfig) RunConfig {
		rc.Intervals = 2
		return rc
	}
	steps := []struct {
		name   string
		rc     RunConfig
		cancel bool
	}{
		{"default window", short(simClassic("mesa", 1)), false},
		{"window 128", short(RunConfig{Benchmark: "art", Scale: 0.02, Seed: 2, M: 1000, N: 100, Window: 128}), false},
		{"canceled", simClassic("sixtrack", 1), true},
		{"default window again", short(simClassic("art", 2)), false},
		{"shorter interval", RunConfig{Benchmark: "mesa", Scale: 0.02, Seed: 3, M: 400, N: 50, Intervals: 3}, false},
		{"narrow config", RunConfig{Benchmark: "swim", Scale: 0.02, Seed: 1, M: 1000, N: 100, Intervals: 2, Config: &narrow}, false},
		{"64 lanes", RunConfig{Benchmark: "lucas", Scale: 0.02, Seed: 1, M: 1000, N: 200, Intervals: 2, Lanes: 64}, false},
		{"classic after lanes", short(simClassic("lucas", 1)), false},
	}
	reused := new(softarch.Analyzer)
	for _, st := range steps {
		st.rc.Structures = structs
		if st.cancel {
			ctx, cancel := context.WithCancel(context.Background())
			rc := st.rc
			rc.OnInterval = func(core.Estimate) { cancel() }
			if _, err := runWith(ctx, rc, reused); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", st.name, err)
			}
			cancel()
			continue
		}
		got, err := runWith(context.Background(), st.rc, reused)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		want, err := runWith(context.Background(), st.rc, new(softarch.Analyzer))
		if err != nil {
			t.Fatalf("%s fresh: %v", st.name, err)
		}
		if got.DroppedMarks != want.DroppedMarks || got.SoftArchEvents != want.SoftArchEvents {
			t.Errorf("%s: dropped %d events %d, want %d and %d", st.name,
				got.DroppedMarks, got.SoftArchEvents, want.DroppedMarks, want.SoftArchEvents)
		}
		if g, w := fmt.Sprintf("%v", got.Series), fmt.Sprintf("%v", want.Series); g != w {
			t.Errorf("%s: series\n%s\nwant\n%s", st.name, g, w)
		}
	}
}
