package pipeline

import (
	"testing"

	"avfsim/internal/config"
	"avfsim/internal/workload"
)

// TestStepZeroAllocs pins the bare simulation hot path at zero heap
// allocations per cycle. The pipeline front-loads all of its state (rings,
// bitmaps, uop pool, waiter lists) at construction and during a short
// warm-up; after that, Step and SkipIdle must run allocation-free so
// that throughput is bounded by simulation work, not the garbage
// collector. Any regression here — an escaping event struct, a map in the
// cycle loop, a pool that refills from the heap — fails this test before
// it shows up as a benchmark slowdown.
func TestStepZeroAllocs(t *testing.T) {
	prof, err := workload.ByName("mesa")
	if err != nil {
		t.Fatal(err)
	}
	src := prof.MustSource(0)
	cfg := config.Default()
	p, perr := New(&cfg, src)
	if perr != nil {
		t.Fatal(perr)
	}
	// Warm-up: fill the ROB/queues, grow the uop pool and waiter-list
	// slices to their steady-state capacity.
	for i := 0; i < 50_000; i++ {
		p.Step()
	}
	allocs := testing.AllocsPerRun(20_000, func() {
		p.Step()
	})
	if allocs != 0 {
		t.Fatalf("pipeline.Step allocates %.4f objects/cycle in steady state, want 0", allocs)
	}
	// The event-driven drive loop: skip idle cycles, step the rest.
	allocs = testing.AllocsPerRun(20_000, func() {
		if p.SkipIdle(p.Cycle()+64) == 0 {
			p.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("the SkipIdle+Step loop allocates %.4f objects/iteration in steady state, want 0", allocs)
	}
}
