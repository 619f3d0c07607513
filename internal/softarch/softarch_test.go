package softarch

import (
	"math"
	"testing"
	"time"

	"avfsim/internal/config"
	"avfsim/internal/isa"
	"avfsim/internal/pipeline"
	"avfsim/internal/trace"
	"avfsim/internal/workload"
)

// idlePipeline is a pipeline of the default geometry with nothing to run.
func idlePipeline(t *testing.T) *pipeline.Pipeline {
	t.Helper()
	cfg := config.Default()
	p, err := pipeline.New(&cfg, trace.NewSliceSource(nil))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newAnalyzer builds an analyzer against the default processor geometry.
func newAnalyzer(t *testing.T, interval int64, window int) *Analyzer {
	t.Helper()
	a, err := NewAnalyzer(idlePipeline(t), Options{IntervalCycles: interval, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// ev builds a minimal retire event.
func ev(seq int64, class isa.Class, retire int64) *pipeline.RetireEvent {
	return &pipeline.RetireEvent{
		Seq: seq, Class: class, RetireCycle: retire,
		IssueCycle: -1, ExecStart: -1, Queue: pipeline.QNone, FU: pipeline.FUNone,
		SrcProducers: [2]int64{-1, -1}, DstPhys: -1,
	}
}

func TestOptionsValidation(t *testing.T) {
	cfg := config.Default()
	p, _ := pipeline.New(&cfg, trace.NewSliceSource(nil))
	if _, err := NewAnalyzer(p, Options{IntervalCycles: 0}); err == nil {
		t.Error("zero interval accepted")
	}
	a, err := NewAnalyzer(p, Options{IntervalCycles: 100, Window: 100})
	if err != nil {
		t.Fatal(err)
	}
	if a.opt.Window != 128 {
		t.Errorf("window not rounded to power of two: %d", a.opt.Window)
	}
}

// TestOptionsRejectHugeWindow: a Window past MaxWindow is an error. One
// above 2^62 once overflowed the power-of-two round-up to 0 and looped
// forever; smaller ones allocated whatever they asked for.
func TestOptionsRejectHugeWindow(t *testing.T) {
	for _, w := range []int{MaxWindow + 1, 1<<62 + 1, math.MaxInt} {
		got := make(chan error, 1)
		go func() {
			o := Options{IntervalCycles: 100, Window: w}
			got <- o.validate()
		}()
		select {
		case err := <-got:
			if err == nil {
				t.Errorf("Window %d accepted", w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("validating Window %d did not return", w)
		}
	}
	o := Options{IntervalCycles: 100, Window: MaxWindow}
	if err := o.validate(); err != nil || o.Window != MaxWindow {
		t.Errorf("Window MaxWindow: err %v, window %d", err, o.Window)
	}
}

func TestFailurePointIsACE(t *testing.T) {
	a := newAnalyzer(t, 100, 1024)
	st := ev(0, isa.ClassStore, 50)
	st.Queue = pipeline.QFXU
	st.DispatchCycle = 10
	st.IssueCycle = 40
	st.FU = pipeline.FULS
	st.Unit = 0
	st.ExecStart = 42
	a.HandleRetire(st)
	a.Flush()
	if !a.aceGet(0) {
		t.Fatal("retiring store not marked ACE")
	}
	// IQ residency [10,40) = 30 entry-cycles over 68 entries × 100 cycles.
	iq := a.AVFSeries(pipeline.StructIQ, 1)
	want := 30.0 / (68.0 * 100.0)
	if math.Abs(iq[0]-want) > 1e-12 {
		t.Errorf("IQ AVF = %v, want %v", iq[0], want)
	}
	// One ACE initiation on the LS units (2 units × 100 cycles).
	lsu := a.AVFSeries(pipeline.StructLSU, 1)
	if math.Abs(lsu[0]-1.0/200.0) > 1e-12 {
		t.Errorf("LSU AVF = %v, want %v", lsu[0], 1.0/200.0)
	}
}

func TestTransitiveMarking(t *testing.T) {
	a := newAnalyzer(t, 100, 1024)
	// Chain: seq0 (alu) -> seq1 (alu) -> seq2 (store). All become ACE.
	e0 := ev(0, isa.ClassIntALU, 10)
	a.HandleRetire(e0)
	e1 := ev(1, isa.ClassIntALU, 20)
	e1.SrcProducers = [2]int64{0, -1}
	a.HandleRetire(e1)
	e2 := ev(2, isa.ClassStore, 30)
	e2.SrcProducers = [2]int64{1, -1}
	a.HandleRetire(e2)
	a.Flush()
	for s := int64(0); s < 3; s++ {
		if !a.aceGet(s) {
			t.Errorf("seq %d not ACE", s)
		}
	}
	if a.DroppedMarks() != 0 {
		t.Errorf("dropped marks = %d", a.DroppedMarks())
	}
}

func TestDeadInstructionNotACE(t *testing.T) {
	a := newAnalyzer(t, 100, 1024)
	// seq0's result feeds only seq1 (alu), whose result feeds nothing.
	e0 := ev(0, isa.ClassIntALU, 10)
	e0.Queue = pipeline.QFXU
	e0.DispatchCycle = 2
	e0.IssueCycle = 5
	e0.FU = pipeline.FUInt
	e0.ExecStart = 5
	a.HandleRetire(e0)
	e1 := ev(1, isa.ClassIntALU, 20)
	e1.SrcProducers = [2]int64{0, -1}
	a.HandleRetire(e1)
	a.Flush()
	if a.aceGet(0) || a.aceGet(1) {
		t.Error("dead chain marked ACE")
	}
	for _, s := range []pipeline.Structure{pipeline.StructIQ, pipeline.StructFXU} {
		if got := a.AVFSeries(s, 1)[0]; got != 0 {
			t.Errorf("%v AVF = %v for dead chain", s, got)
		}
	}
}

func TestRegisterSegmentACEWindow(t *testing.T) {
	a := newAnalyzer(t, 1000, 1024)
	// Value written to int phys 40 at cycle 100; read by an ACE store
	// (seq 5) at cycle 200 and by a dead alu (seq 6) at cycle 300;
	// overwritten at cycle 400. ACE window = [100, 201) = 101 cycles.
	a.HandleRegWrite(pipeline.IntFile, 40, 100, 4)
	a.HandleRegRead(pipeline.IntFile, 40, 200, 5)
	a.HandleRegRead(pipeline.IntFile, 40, 300, 6)
	a.HandleRetire(ev(4, isa.ClassIntALU, 90)) // the writer (dead itself)
	st := ev(5, isa.ClassStore, 250)
	a.HandleRetire(st)
	a.HandleRetire(ev(6, isa.ClassIntALU, 350))
	a.HandleRegWrite(pipeline.IntFile, 40, 400, 7)
	a.Flush()
	reg := a.AVFSeries(pipeline.StructReg, 1)
	want := 101.0 / (80.0 * 1000.0)
	if math.Abs(reg[0]-want) > 1e-12 {
		t.Errorf("REG AVF = %v, want %v", reg[0], want)
	}
}

func TestRegisterSegmentNoACEReads(t *testing.T) {
	a := newAnalyzer(t, 1000, 1024)
	a.HandleRegWrite(pipeline.IntFile, 40, 100, 4)
	a.HandleRegRead(pipeline.IntFile, 40, 200, 6) // dead reader
	a.HandleRetire(ev(6, isa.ClassIntALU, 250))
	a.HandleRegWrite(pipeline.IntFile, 40, 400, 7)
	a.Flush()
	if got := a.AVFSeries(pipeline.StructReg, 1)[0]; got != 0 {
		t.Errorf("REG AVF = %v for never-ACE-read value", got)
	}
}

func TestRegisterSegmentNoReadsAtAll(t *testing.T) {
	a := newAnalyzer(t, 1000, 1024)
	a.HandleRegWrite(pipeline.IntFile, 40, 100, 4)
	a.HandleRegWrite(pipeline.IntFile, 40, 300, 9) // dead value overwritten
	a.Flush()
	if got := a.AVFSeries(pipeline.StructReg, 1)[0]; got != 0 {
		t.Errorf("REG AVF = %v for unread value", got)
	}
}

func TestSpanSplitsAcrossIntervals(t *testing.T) {
	a := newAnalyzer(t, 100, 1024)
	// IQ residency [50, 250) spans three 100-cycle intervals:
	// 50 + 100 + 50 entry-cycles.
	e := ev(0, isa.ClassStore, 260)
	e.Queue = pipeline.QFXU
	e.DispatchCycle = 50
	e.IssueCycle = 250
	a.HandleRetire(e)
	a.Flush()
	iq := a.AVFSeries(pipeline.StructIQ, 3)
	denom := 68.0 * 100.0
	want := []float64{50 / denom, 100 / denom, 50 / denom}
	for i := range want {
		if math.Abs(iq[i]-want[i]) > 1e-12 {
			t.Errorf("interval %d = %v, want %v", i, iq[i], want[i])
		}
	}
}

func TestDroppedMarksWithTinyWindow(t *testing.T) {
	a := newAnalyzer(t, 1000, 4) // ring of 4 nodes
	// A chain long enough that producers are evicted before the failure
	// point retires.
	for s := int64(0); s < 10; s++ {
		e := ev(s, isa.ClassIntALU, s*2)
		if s > 0 {
			e.SrcProducers = [2]int64{s - 1, -1}
		}
		a.HandleRetire(e)
	}
	st := ev(10, isa.ClassStore, 25)
	st.SrcProducers = [2]int64{9, -1}
	a.HandleRetire(st)
	a.Flush()
	if a.DroppedMarks() == 0 {
		t.Error("tiny window should drop marks on a long chain")
	}
}

func TestInitialRegistersCanBeACE(t *testing.T) {
	a := newAnalyzer(t, 1000, 1024)
	// Architectural register 3 holds initial state from cycle 0; a store
	// reads it at cycle 50.
	a.HandleRegRead(pipeline.IntFile, 3, 50, 0)
	a.HandleRetire(ev(0, isa.ClassStore, 60))
	a.Flush()
	reg := a.AVFSeries(pipeline.StructReg, 1)
	want := 51.0 / (80.0 * 1000.0) // [0, 51)
	if math.Abs(reg[0]-want) > 1e-12 {
		t.Errorf("REG AVF = %v, want %v", reg[0], want)
	}
}

func TestAVFSeriesUnknownStructure(t *testing.T) {
	a := newAnalyzer(t, 100, 64)
	if got := a.AVFSeries(pipeline.Structure(99), 1); got != nil {
		t.Errorf("unknown structure gave %v", got)
	}
}

func TestSeriesBoundsOnWorkload(t *testing.T) {
	// Integration sanity: run a real workload through the pipeline with
	// the analyzer attached; every AVF must be in [0,1].
	g := trace.MustNewGenerator(trace.Params{
		Seed: 5, Blocks: 64, BlockLen: 7,
		Mix:         trace.Mix{IntALU: 0.4, FPAdd: 0.12, FPMul: 0.08, Load: 0.25, Store: 0.13, Nop: 0.02},
		DepDistMean: 4, DeadFrac: 0.15, WorkingSet: 1 << 18,
		SeqFrac: 0.6, TakenBias: 0.6, BiasedFrac: 0.8,
		PCBase: 0x10000, DataBase: 0x1000000,
	})
	cfg := config.Default()
	p, _ := pipeline.New(&cfg, g)
	a, err := NewAnalyzer(p, Options{IntervalCycles: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	p.SetHooks(a.Hooks())
	p.Run(100_000)
	a.Flush()
	if a.DroppedMarks() != 0 {
		t.Errorf("dropped marks = %d with default window", a.DroppedMarks())
	}
	for s := 0; s < pipeline.NumStructures; s++ {
		series := a.AVFSeries(pipeline.Structure(s), 10)
		for i, v := range series {
			if v < 0 || v > 1 {
				t.Errorf("%v interval %d AVF = %v", pipeline.Structure(s), i, v)
			}
		}
	}
	// The workload stores results constantly, so the structures must not
	// all read zero.
	sum := 0.0
	for _, v := range a.AVFSeries(pipeline.StructReg, 10) {
		sum += v
	}
	if sum == 0 {
		t.Error("REG reference AVF identically zero on a live workload")
	}
}

func TestTLBSegmentAccounting(t *testing.T) {
	a := newAnalyzer(t, 1000, 1024)
	// dTLB entry 3: filled at 100, hits at 200 and 400, refilled at 600.
	// ACE window = [100, 400) = 300 cycles over 128 entries x 1000.
	a.HandleTLBAccess(pipeline.StructDTLB, 3, 100, true)
	a.HandleTLBAccess(pipeline.StructDTLB, 3, 200, false)
	a.HandleTLBAccess(pipeline.StructDTLB, 3, 400, false)
	a.HandleTLBAccess(pipeline.StructDTLB, 3, 600, true)
	a.Flush()
	got := a.AVFSeries(pipeline.StructDTLB, 1)[0]
	want := 300.0 / (128.0 * 1000.0)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("dTLB AVF = %v, want %v", got, want)
	}
	// The second fill (600) had no subsequent hits: contributes nothing
	// even though still open at Flush.
	if got2 := a.AVFSeries(pipeline.StructITLB, 1)[0]; got2 != 0 {
		t.Errorf("iTLB AVF = %v, want 0", got2)
	}
}

func TestTLBFillWithoutReuseNotACE(t *testing.T) {
	a := newAnalyzer(t, 1000, 1024)
	// Streaming: every access refills a fresh page; no entry is ever
	// reused -> no exposure.
	for i := 0; i < 50; i++ {
		a.HandleTLBAccess(pipeline.StructDTLB, i%128, int64(i*10), true)
	}
	a.Flush()
	if got := a.AVFSeries(pipeline.StructDTLB, 1)[0]; got != 0 {
		t.Errorf("refill-only stream gave AVF %v", got)
	}
}

func TestPendingCompaction(t *testing.T) {
	// Push enough closed register segments through settlement to cycle
	// the queue's chunks many times, then verify accounting survives.
	a := newAnalyzer(t, 1_000_000, 64) // tiny window -> fast settlement
	cycle := int64(0)
	seq := int64(0)
	for i := 0; i < 10_000; i++ {
		phys := int16(40 + i%8)
		a.HandleRegWrite(pipeline.IntFile, phys, cycle, seq)
		a.HandleRegRead(pipeline.IntFile, phys, cycle+1, seq+1)
		// The reader retires as a store -> ACE.
		a.HandleRetire(ev(seq+1, isa.ClassStore, cycle+2))
		// Overwrite closes the segment.
		a.HandleRegWrite(pipeline.IntFile, phys, cycle+3, seq+2)
		cycle += 4
		seq += 3
	}
	a.Flush()
	got := a.AVFSeries(pipeline.StructReg, 1)[0]
	if got <= 0 {
		t.Error("compacted pipeline lost ACE accounting")
	}
	// Each of the 10k segments contributes 2 ACE cycles ([w, r+1)), plus
	// the final open segments; sanity-check magnitude.
	want := 10_000.0 * 2 / (80.0 * 1_000_000.0)
	if math.Abs(got-want)/want > 0.2 {
		t.Errorf("REG AVF = %v, want ~%v", got, want)
	}
}

func TestFlushIdempotentEnough(t *testing.T) {
	// Calling AVFSeries with more intervals than data zero-pads.
	a := newAnalyzer(t, 100, 64)
	st := ev(0, isa.ClassStore, 50)
	st.Queue = pipeline.QFXU
	st.DispatchCycle = 10
	st.IssueCycle = 40
	a.HandleRetire(st)
	a.Flush()
	series := a.AVFSeries(pipeline.StructIQ, 5)
	if len(series) != 5 {
		t.Fatalf("series length %d", len(series))
	}
	for i := 1; i < 5; i++ {
		if series[i] != 0 {
			t.Errorf("interval %d should be zero-padded, got %v", i, series[i])
		}
	}
}

// TestResetStampWraps: when the run stamp wraps around, Reset clears the
// ring, so a node an earlier run left in a slot cannot pass for a node of
// the new run that carries the same stamp.
func TestResetStampWraps(t *testing.T) {
	a := newAnalyzer(t, 100, 64)
	old := ev(0, isa.ClassIntALU, 50)
	old.Queue, old.DispatchCycle, old.IssueCycle = pipeline.QFXU, 10, 40
	a.HandleRetire(old) // left in slot 0 with this run's stamp
	a.run = math.MaxUint32 - 1
	for i := 0; i < 2; i++ { // the second Reset wraps the stamp to this run's
		if err := a.Reset(idlePipeline(t), Options{IntervalCycles: 100, Window: 64}); err != nil {
			t.Fatal(err)
		}
	}
	// A store names seq 0 as its producer, which this run never retired.
	st := ev(1, isa.ClassStore, 60)
	st.SrcProducers = [2]int64{0, -1}
	a.HandleRetire(st)
	a.Flush()
	if a.DroppedMarks() != 1 {
		t.Errorf("dropped marks = %d, want 1", a.DroppedMarks())
	}
	if got := a.AVFSeries(pipeline.StructIQ, 1)[0]; got != 0 {
		t.Errorf("IQ AVF = %v: an earlier run's node was attributed", got)
	}
}

// recordProfile runs a scaled profile for the given cycles and returns
// the pipeline and its SoftArch hook calls, in order, bound to a.
func recordProfile(t *testing.T, a *Analyzer, bench string, cycles int64) (*pipeline.Pipeline, []func()) {
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
	var calls []func()
	p.SetHooks(pipeline.Hooks{
		OnRetire: func(ev *pipeline.RetireEvent) {
			e := *ev
			calls = append(calls, func() { a.HandleRetire(&e) })
		},
		OnRegWrite: func(f pipeline.RegFileID, phys int16, cycle, seq int64) {
			calls = append(calls, func() { a.HandleRegWrite(f, phys, cycle, seq) })
		},
		OnRegRead: func(f pipeline.RegFileID, phys int16, cycle, seq int64) {
			calls = append(calls, func() { a.HandleRegRead(f, phys, cycle, seq) })
		},
		OnTLBAccess: func(s pipeline.Structure, entry int, cycle int64, refill bool) {
			calls = append(calls, func() { a.HandleTLBAccess(s, entry, cycle, refill) })
		},
	})
	for p.Cycle() < cycles {
		if !p.Step() {
			t.Fatal("trace ended")
		}
	}
	return p, calls
}

// TestAnalyzerReplayAllocatesNothing: once an analyzer has grown to a
// run's needs, Reset, replaying the run's events and Flush allocate
// nothing, at the default window and at one small enough to settle
// segments, cycle the read arena and truncate chains mid-run.
func TestAnalyzerReplayAllocatesNothing(t *testing.T) {
	for _, window := range []int{0, 128} {
		a := new(Analyzer)
		p, calls := recordProfile(t, a, "mesa", 60_000)
		replay := func() {
			if err := a.Reset(p, Options{IntervalCycles: 4000, Window: window}); err != nil {
				t.Fatal(err)
			}
			for _, call := range calls {
				call()
			}
			a.Flush()
		}
		replay() // grow the analyzer
		if n := testing.AllocsPerRun(2, replay); n != 0 {
			t.Errorf("window %d: %v allocations replaying %d events", window, n, len(calls))
		}
		if window == 128 && a.DroppedMarks() == 0 {
			t.Error("window 128 truncated no chain; the case is not exercised")
		}
	}
}
