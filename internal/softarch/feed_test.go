package softarch

import (
	"math"
	"testing"

	"avfsim/internal/config"
	"avfsim/internal/handoff"
	"avfsim/internal/isa"
	"avfsim/internal/pipeline"
	"avfsim/internal/workload"
)

// analyzeProfile runs a scaled profile through the pipeline for the given
// cycles with an analyzer attached, either synchronously through Hooks or
// through a Feeder, and returns the flushed analyzer.
func analyzeProfile(t *testing.T, bench string, window int, cycles int64, fed bool) *Analyzer {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.Scale(prof, 0.02).Source(3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	p, err := pipeline.New(&cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAnalyzer(p, Options{IntervalCycles: 4000, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	var f *Feeder
	if fed {
		f = NewFeeder(a)
		defer f.Stop()
		p.SetHooks(f.Hooks())
	} else {
		p.SetHooks(a.Hooks())
	}
	for p.Cycle() < cycles {
		if !p.Step() {
			t.Fatal("trace ended")
		}
	}
	if f != nil {
		f.Wait()
	}
	a.Flush()
	return a
}

// TestFeederMatchesHooks: replaying the events on the feeder's goroutine
// gives the analysis the synchronous hooks give, bit for bit, in every
// structure including the TLBs (which the run digests do not cover).
// Window 128 makes settlement, chunk reuse and chain truncation happen
// mid-run.
func TestFeederMatchesHooks(t *testing.T) {
	const cycles, intervals = 60_000, 15
	for _, bench := range []string{"mesa", "art", "lucas", "sixtrack"} {
		for _, window := range []int{128, 0} {
			want := analyzeProfile(t, bench, window, cycles, false)
			got := analyzeProfile(t, bench, window, cycles, true)
			if window == 128 && want.DroppedMarks() == 0 {
				t.Errorf("%s: window 128 truncated no chain; the case is not exercised", bench)
			}
			if got.DroppedMarks() != want.DroppedMarks() || got.Events() != want.Events() {
				t.Errorf("%s window %d: dropped %d events %d, want %d and %d", bench, window,
					got.DroppedMarks(), got.Events(), want.DroppedMarks(), want.Events())
			}
			for s := 0; s < pipeline.NumStructures; s++ {
				g := got.AVFSeries(pipeline.Structure(s), intervals)
				w := want.AVFSeries(pipeline.Structure(s), intervals)
				sum := 0.0
				for i := range w {
					sum += w[i]
					if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
						t.Errorf("%s window %d %v interval %d: %v, want %v",
							bench, window, pipeline.Structure(s), i, g[i], w[i])
					}
				}
				if sum == 0 {
					t.Errorf("%s window %d: %v series is all zero; the structure is not exercised",
						bench, window, pipeline.Structure(s))
				}
			}
		}
	}
}

// TestSegQueueAcrossChunks pushes and pops across chunk boundaries,
// empties the queue and refills it: entries come out in push order, and
// the refill reuses the chunks the first fill allocated.
func TestSegQueueAcrossChunks(t *testing.T) {
	var q segQueue
	var pushed, popped int64
	chunks := map[*segChunk]bool{}
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.push(closedSeg{start: pushed})
			pushed++
			chunks[q.tail] = true
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			cs := q.front()
			if cs == nil {
				t.Fatalf("queue empty after %d pops, %d pushed", popped, pushed)
			}
			if cs.start != popped {
				t.Fatalf("popped entry %d, want %d", cs.start, popped)
			}
			q.pop()
			popped++
		}
	}
	if q.front() != nil {
		t.Fatal("new queue not empty")
	}
	push(segChunkLen + 10)
	pop(segChunkLen/2 + 1)
	push(segChunkLen)
	pop(segChunkLen + 3)
	push(3)
	pop(int(pushed - popped))
	if q.front() != nil {
		t.Fatal("queue not empty after popping everything")
	}
	first := len(chunks)
	if first != 3 {
		t.Fatalf("%d chunks for a high-water mark of under three chunks", first)
	}
	push(2*segChunkLen + 7)
	pop(segChunkLen - 1)
	push(segChunkLen / 2)
	pop(int(pushed - popped))
	if q.front() != nil {
		t.Fatal("queue not empty after the refill drained")
	}
	if len(chunks) != first {
		t.Errorf("refill allocated %d new chunks, want 0", len(chunks)-first)
	}
}

// feedSteady records n steps of a steady stream through the four hooks,
// continuing e's sequence: a write and a read of one register, an ALU
// retirement and a dTLB hit per step. Once the analyzer's pools are warm
// it allocates nothing on either side of the feeder.
func feedSteady(h pipeline.Hooks, e *pipeline.RetireEvent, n int) {
	for i := 0; i < n; i++ {
		e.Seq++
		e.RetireCycle = e.Seq
		h.OnRegWrite(pipeline.IntFile, 40, e.Seq, e.Seq)
		h.OnRegRead(pipeline.IntFile, 40, e.Seq, e.Seq)
		h.OnRetire(e)
		h.OnTLBAccess(pipeline.StructDTLB, 3, e.Seq, false)
	}
}

// TestFeederHooksAllocateNothing: recording events, including every block
// handoff, allocates nothing.
func TestFeederHooksAllocateNothing(t *testing.T) {
	a := newAnalyzer(t, 1000, 256)
	f := NewFeeder(a)
	defer f.Stop()
	h := f.Hooks()
	e := ev(0, isa.ClassIntALU, 0)
	feedSteady(h, e, 2*handoff.Window) // warm the analyzer's queue and pools
	if n := testing.AllocsPerRun(1, func() { feedSteady(h, e, handoff.Window) }); n != 0 {
		t.Errorf("%v allocations recording %d events", n, 4*handoff.Window)
	}
}
