package pipeline

import (
	"testing"
	"testing/quick"

	"avfsim/internal/config"
	"avfsim/internal/isa"
	"avfsim/internal/trace"
)

// TestPipelinePropertyRandomWorkloads drives randomized (but well-formed)
// generated workloads through the pipeline and checks global invariants:
// everything retires, in order, exactly once; the register files return
// to a clean state; counters are consistent.
func TestPipelinePropertyRandomWorkloads(t *testing.T) {
	prop := func(seed uint32, mixSel, wsSel, depSel uint8) bool {
		params := trace.Params{
			Seed:        uint64(seed),
			Blocks:      16 + int(seed%64),
			BlockLen:    3 + int(mixSel%8),
			DepDistMean: 1 + float64(depSel%10),
			DeadFrac:    float64(mixSel%4) * 0.1,
			WorkingSet:  1 << (10 + wsSel%12), // 1KB .. 2MB
			SeqFrac:     float64(wsSel%5) * 0.25,
			TakenBias:   0.3 + float64(depSel%5)*0.1,
			BiasedFrac:  float64(seed%5) * 0.25,
			PCBase:      0x10000,
			DataBase:    0x1000000,
		}
		switch mixSel % 3 {
		case 0:
			params.Mix = trace.Mix{IntALU: 0.5, IntMul: 0.05, Load: 0.3, Store: 0.15}
		case 1:
			params.Mix = trace.Mix{IntALU: 0.2, FPAdd: 0.2, FPMul: 0.15, FPDiv: 0.02, Load: 0.3, Store: 0.13}
		default:
			params.Mix = trace.Mix{IntALU: 0.3, IntDiv: 0.02, FPAdd: 0.1, Load: 0.35, Store: 0.2, Nop: 0.03}
		}
		g, err := trace.NewGenerator(params)
		if err != nil {
			return false
		}
		const n = 4000
		cfg := config.Default()
		p, err := New(&cfg, trace.NewLimit(g, n))
		if err != nil {
			return false
		}
		lastSeq := int64(-1)
		ordered := true
		p.SetHooks(Hooks{OnRetire: func(ev *RetireEvent) {
			if ev.Seq != lastSeq+1 {
				ordered = false
			}
			lastSeq = ev.Seq
		}})
		for i := 0; i < 10_000_000; i++ {
			if !p.Step() {
				break
			}
		}
		if !ordered || p.Retired() != n || lastSeq != n-1 {
			return false
		}
		// Register files drained: exactly the architected mappings remain.
		if len(p.intRF.free) != cfg.IntRegs-32 || len(p.fpRF.free) != cfg.FPRegs-32 {
			return false
		}
		// All queues empty, nothing in flight.
		for q := 0; q < NumQueues; q++ {
			if p.queues[q].count != 0 {
				return false
			}
		}
		return len(p.executing) == 0 && p.rob.empty()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// narrowConfig is a minimal 1-wide machine: every queue, unit pool and
// register file close to the smallest the configuration allows.
func narrowConfig(t *testing.T) config.Config {
	t.Helper()
	narrow := config.Default()
	narrow.FetchWidth = 1
	narrow.DispatchGroup = 1
	narrow.ROBGroups = 16
	narrow.NumIntUnits = 1
	narrow.NumFPUnits = 1
	narrow.NumLSUnits = 1
	narrow.FXUQueueEntries = 8
	narrow.FPUQueueEntries = 4
	narrow.BrQueueEntries = 4
	narrow.IntRegs = 40
	narrow.FPRegs = 40
	if err := narrow.Validate(); err != nil {
		t.Fatal(err)
	}
	return narrow
}

// TestNarrowMachineStillCorrect runs the same workload on a minimal
// 1-wide machine: slower, but the same instructions retire in the same
// order. The AVF machinery must be configuration-agnostic.
func TestNarrowMachineStillCorrect(t *testing.T) {
	narrow := narrowConfig(t)
	mkSrc := func() trace.Source {
		return trace.NewLimit(trace.MustNewGenerator(trace.Params{
			Seed: 77, Blocks: 32, BlockLen: 6,
			Mix:         trace.Mix{IntALU: 0.4, FPAdd: 0.1, Load: 0.3, Store: 0.2},
			DepDistMean: 3, WorkingSet: 1 << 16, SeqFrac: 0.7, TakenBias: 0.6, BiasedFrac: 0.8,
			PCBase: 0x10000, DataBase: 0x1000000,
		}), 20_000)
	}

	wide := config.Default()
	pNarrow, _ := New(&narrow, mkSrc())
	pWide, _ := New(&wide, mkSrc())
	runToDrain(t, pNarrow)
	runToDrain(t, pWide)

	if pNarrow.Retired() != 20_000 || pWide.Retired() != 20_000 {
		t.Fatalf("retired %d / %d", pNarrow.Retired(), pWide.Retired())
	}
	if pNarrow.Cycle() <= pWide.Cycle() {
		t.Errorf("narrow machine (%d cycles) not slower than wide (%d)",
			pNarrow.Cycle(), pWide.Cycle())
	}
}

// TestNarrowMachineAVFEstimation checks the estimator's structural
// agnosticism: injections and failure detection work at any geometry.
func TestNarrowMachineAVFEstimation(t *testing.T) {
	narrow := config.Default()
	narrow.NumIntUnits = 1
	narrow.FXUQueueEntries = 8
	narrow.IntRegs = 40
	g := trace.MustNewGenerator(trace.Params{
		Seed: 9, Blocks: 32, BlockLen: 6,
		Mix:         trace.Mix{IntALU: 0.5, Load: 0.3, Store: 0.2},
		DepDistMean: 3, WorkingSet: 1 << 14, SeqFrac: 0.9, TakenBias: 0.7, BiasedFrac: 0.9,
		PCBase: 0x10000, DataBase: 0x1000000,
	})
	p, err := New(&narrow, g)
	if err != nil {
		t.Fatal(err)
	}
	fc := newFailureCollector(p)
	// Exercise every structure's full entry range.
	for s := Structure(0); int(s) < NumStructures; s++ {
		p.Run(500)
		for e := 0; e < p.StructureEntries(s); e++ {
			p.Inject(s, e)
		}
		p.Run(500)
		p.ClearPlane(s)
	}
	_ = fc
	// No panics and entries matched the narrow geometry.
	if p.StructureEntries(StructFXU) != 1 || p.StructureEntries(StructReg) != 40 {
		t.Error("entries do not reflect the narrow configuration")
	}
}

// TestUopPoolReuseDoesNotLeakState: recycled uops must never leak error
// bits or stale fields into later instructions.
func TestUopPoolReuseDoesNotLeakState(t *testing.T) {
	r1, r5 := isa.IntReg(1), isa.IntReg(5)
	var insts []isa.Inst
	// First half: erroneous chain; second half: clean code. If pool
	// recycling leaked errMask, the clean half would flag failures after
	// the plane is cleared.
	for i := 0; i < 50; i++ {
		insts = append(insts, alu(uint64(0x1000+8*i), r5, r1, isa.RegNone))
		insts = append(insts, isa.Inst{PC: uint64(0x1004 + 8*i), Class: isa.ClassStore,
			Dst: isa.RegNone, Src1: r5, Src2: r1, Addr: 0x100})
	}
	p := newTestPipeline(t, insts)
	fc := newFailureCollector(p)
	p.Inject(StructReg, int(physOf(p, r1)))
	// The bound covers the cold-start I-fetch stall (~265 cycles).
	for i := 0; i < 2000 && fc.count[StructReg] == 0; i++ {
		p.Step()
	}
	if fc.count[StructReg] == 0 {
		t.Fatal("seed error never propagated")
	}
	before := fc.count[StructReg]
	p.ClearPlane(StructReg)
	runToDrain(t, p)
	if fc.count[StructReg] != before {
		t.Errorf("failures kept accruing after ClearPlane: %d -> %d", before, fc.count[StructReg])
	}
}

// TestRingWraparound exercises the internal FIFO through several
// capacities of wrap.
func TestRingWraparound(t *testing.T) {
	r := newRing[int](3)
	if !r.empty() || r.full() || r.space() != 3 {
		t.Fatal("fresh ring state wrong")
	}
	for round := 0; round < 5; round++ {
		r.push(round * 10)
		r.push(round*10 + 1)
		if r.len() != 2 || r.at(1) != round*10+1 {
			t.Fatalf("round %d: len=%d", round, r.len())
		}
		if got := r.pop(); got != round*10 {
			t.Fatalf("round %d: pop=%d", round, got)
		}
		if got := r.pop(); got != round*10+1 {
			t.Fatalf("round %d: pop=%d", round, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("pop from empty ring should panic")
		}
	}()
	r.pop()
}

func TestRingOverflowPanics(t *testing.T) {
	r := newRing[int](1)
	r.push(1)
	defer func() {
		if recover() == nil {
			t.Error("push to full ring should panic")
		}
	}()
	r.push(2)
}
