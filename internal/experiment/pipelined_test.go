package experiment

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"avfsim/internal/core"
	"avfsim/internal/isa"
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

// TestKeptResultRetainsLittle: a Result kept after RunCtx returns pins
// neither the SoftArch analyzer nor the event and instruction blocks,
// although Result.Estimator reaches the pipeline.
func TestKeptResultRetainsLittle(t *testing.T) {
	const runs = 4
	var ms runtime.MemStats
	runtime.GC()
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
	runtime.GC()
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
// cannot creep back.
func TestRunCtxBytesPerRetired(t *testing.T) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	res, err := Run(simClassic("mesa", 1))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	per := float64(ms.TotalAlloc-before) / float64(res.Stats.Retired)
	t.Logf("%.0f bytes allocated per retired instruction", per)
	if per > 200 {
		t.Errorf("%.0f bytes allocated per retired instruction, want at most 200", per)
	}
}
