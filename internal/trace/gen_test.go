package trace

import (
	"math"
	"testing"

	"avfsim/internal/isa"
)

func testParams() Params {
	return Params{
		Seed:        42,
		Blocks:      64,
		BlockLen:    8,
		Mix:         Mix{IntALU: 0.40, IntMul: 0.03, IntDiv: 0.01, FPAdd: 0.05, FPMul: 0.04, FPDiv: 0.01, Load: 0.25, Store: 0.12, Nop: 0.02},
		DepDistMean: 4,
		DeadFrac:    0.15,
		WorkingSet:  1 << 16,
		SeqFrac:     0.5,
		TakenBias:   0.6,
		BiasedFrac:  0.8,
		PCBase:      0x10000,
		DataBase:    0x1000000,
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := MustNewGenerator(testParams())
	b := MustNewGenerator(testParams())
	for i := 0; i < 10000; i++ {
		ia, oka := a.Next()
		ib, okb := b.Next()
		if !oka || !okb {
			t.Fatal("generator ended")
		}
		if ia != ib {
			t.Fatalf("divergence at %d: %v vs %v", i, ia, ib)
		}
	}
	if a.Count() != 10000 {
		t.Errorf("Count = %d", a.Count())
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	p1, p2 := testParams(), testParams()
	p2.Seed = 43
	a, b := MustNewGenerator(p1), MustNewGenerator(p2)
	same := 0
	for i := 0; i < 1000; i++ {
		ia, _ := a.Next()
		ib, _ := b.Next()
		if ia == ib {
			same++
		}
	}
	if same > 900 {
		t.Errorf("different seeds produced %d/1000 identical instructions", same)
	}
}

func TestGeneratorInstructionsWellFormed(t *testing.T) {
	g := MustNewGenerator(testParams())
	p := g.Params()
	for i := 0; i < 50000; i++ {
		in, ok := g.Next()
		if !ok {
			t.Fatal("generator ended")
		}
		if !in.Class.Valid() {
			t.Fatalf("inst %d: invalid class %d", i, in.Class)
		}
		if in.HasDst() && !in.Dst.Valid() {
			t.Fatalf("inst %d: invalid dst %v", i, in.Dst)
		}
		for _, s := range in.Sources(nil) {
			if !s.Valid() {
				t.Fatalf("inst %d: invalid source %v", i, s)
			}
		}
		switch in.Class {
		case isa.ClassLoad:
			if !in.HasDst() || in.Src1 == isa.RegNone {
				t.Fatalf("inst %d: load lacks dst or base: %v", i, in)
			}
			if in.Addr < p.DataBase || in.Addr >= p.DataBase+p.WorkingSet {
				t.Fatalf("inst %d: load addr %#x outside working set", i, in.Addr)
			}
			if in.Addr%8 != 0 {
				t.Fatalf("inst %d: unaligned address %#x", i, in.Addr)
			}
		case isa.ClassStore:
			if in.HasDst() {
				t.Fatalf("inst %d: store has dst: %v", i, in)
			}
			if in.Src1 == isa.RegNone || in.Src2 == isa.RegNone {
				t.Fatalf("inst %d: store lacks data or base: %v", i, in)
			}
		case isa.ClassBranch:
			if in.HasDst() {
				t.Fatalf("inst %d: branch has dst", i)
			}
			if in.Taken && in.Target == 0 {
				t.Fatalf("inst %d: taken branch without target", i)
			}
		case isa.ClassNop:
			if in.HasDst() || in.Src1 != isa.RegNone || in.Src2 != isa.RegNone {
				t.Fatalf("inst %d: nop with operands: %v", i, in)
			}
		}
		if in.Class.IsFP() {
			if in.HasDst() && !in.Dst.IsFP() {
				t.Fatalf("inst %d: FP op writes int reg", i)
			}
		}
	}
}

func TestGeneratorBranchTargetsAreBlockStarts(t *testing.T) {
	g := MustNewGenerator(testParams())
	starts := map[uint64]bool{}
	for i := range g.blocks {
		starts[g.blocks[i].pc] = true
	}
	for i := 0; i < 20000; i++ {
		in, _ := g.Next()
		if in.Class == isa.ClassBranch && in.Taken && !starts[in.Target] {
			t.Fatalf("inst %d: branch target %#x is not a block start", i, in.Target)
		}
	}
}

func TestGeneratorMixConverges(t *testing.T) {
	p := testParams()
	p.BlockLen = 20 // dilute branch share for a cleaner mix comparison
	p.Blocks = 512  // enough static slots that hot-block skew averages out
	g := MustNewGenerator(p)
	counts := map[isa.Class]int{}
	const n = 200000
	nonBranch := 0
	for i := 0; i < n; i++ {
		in, _ := g.Next()
		counts[in.Class]++
		if in.Class != isa.ClassBranch {
			nonBranch++
		}
	}
	// Within non-branch instructions, the realized shares should be close
	// to the requested mix.
	want := map[isa.Class]float64{
		isa.ClassIntALU: 0.40, isa.ClassLoad: 0.25, isa.ClassStore: 0.12,
		isa.ClassFPAdd: 0.05,
	}
	// Tolerance is loose: execution frequency concentrates on hot blocks,
	// so dynamic shares wander from the static mix (as in real programs).
	for c, w := range want {
		got := float64(counts[c]) / float64(nonBranch)
		if math.Abs(got-w) > 0.04 {
			t.Errorf("class %v share = %.3f, want ~%.3f", c, got, w)
		}
	}
	// Branch share should be roughly 1/(BlockLen+1).
	brShare := float64(counts[isa.ClassBranch]) / float64(n)
	if brShare < 0.02 || brShare > 0.10 {
		t.Errorf("branch share = %.3f, expected near 1/(BlockLen+1)", brShare)
	}
}

func TestGeneratorDeadFractionControlsReuse(t *testing.T) {
	// With DeadFrac=0.6 many values are written and never read; verify by
	// replaying dataflow: count values overwritten without a read.
	deadShare := func(deadFrac float64) float64 {
		p := testParams()
		p.DeadFrac = deadFrac
		g := MustNewGenerator(p)
		lastWriteRead := map[isa.Reg]bool{}
		written := map[isa.Reg]bool{}
		deaths, writes := 0, 0
		for i := 0; i < 100000; i++ {
			in, _ := g.Next()
			for _, s := range in.Sources(nil) {
				lastWriteRead[s] = true
			}
			if in.HasDst() {
				if written[in.Dst] && !lastWriteRead[in.Dst] {
					deaths++
				}
				writes++
				written[in.Dst] = true
				lastWriteRead[in.Dst] = false
			}
		}
		return float64(deaths) / float64(writes)
	}
	low := deadShare(0.0)
	high := deadShare(0.6)
	if high <= low+0.2 {
		t.Errorf("dead-value share did not respond to DeadFrac: low=%.3f high=%.3f", low, high)
	}
}

func TestGeneratorPhaseAddressRegions(t *testing.T) {
	p := testParams()
	p.DataBase = 0x4000000
	p.PCBase = 0x200000
	g := MustNewGenerator(p)
	for i := 0; i < 5000; i++ {
		in, _ := g.Next()
		if in.PC < p.PCBase {
			t.Fatalf("PC %#x below base", in.PC)
		}
		if in.Class.IsMem() && in.Addr < p.DataBase {
			t.Fatalf("addr %#x below data base", in.Addr)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	good := testParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Blocks = 0 },
		func(p *Params) { p.BlockLen = 0 },
		func(p *Params) { p.DepDistMean = 0.5 },
		func(p *Params) { p.DeadFrac = 1.0 },
		func(p *Params) { p.DeadFrac = -0.1 },
		func(p *Params) { p.WorkingSet = 8 },
		func(p *Params) { p.SeqFrac = 1.5 },
		func(p *Params) { p.TakenBias = -1 },
		func(p *Params) { p.BiasedFrac = 2 },
		func(p *Params) { p.Mix = Mix{} },
		func(p *Params) { p.Mix.Load = -1 },
	}
	for i, mut := range bad {
		p := testParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := NewGenerator(p); err == nil {
			t.Errorf("NewGenerator accepted mutation %d", i)
		}
	}
}

func TestMustNewGeneratorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewGenerator should panic on invalid params")
		}
	}()
	MustNewGenerator(Params{})
}

func TestRNGDistributions(t *testing.T) {
	r := newRNG(7)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.float64()
		if v < 0 || v >= 1 {
			t.Fatalf("float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("float64 mean = %.4f", mean)
	}
	// geometric mean ~ target mean.
	gsum := 0
	for i := 0; i < n; i++ {
		gsum += r.geometric(4, 100)
	}
	if gm := float64(gsum) / n; math.Abs(gm-4) > 0.15 {
		t.Errorf("geometric mean = %.3f, want ~4", gm)
	}
	if r.geometric(0.5, 10) != 1 {
		t.Error("geometric with mean <= 1 should return 1")
	}
	// intn bounds.
	for i := 0; i < 1000; i++ {
		if v := r.intn(7); v < 0 || v >= 7 {
			t.Fatalf("intn out of range: %d", v)
		}
	}
	// zero seed still works.
	z := newRNG(0)
	if z.next64() == 0 && z.next64() == 0 {
		t.Error("zero-seeded rng looks broken")
	}
}

func TestHistRingSkipsOverwritten(t *testing.T) {
	var h histRing
	// Write r5, r6; then overwrite r5 with a dead value. pick(1) must be
	// r6, and pick(2) falls back to r6: the overwritten r5 is gone.
	h.write(isa.IntReg(5), true)
	h.write(isa.IntReg(6), true)
	h.write(isa.IntReg(5), false)
	if got := h.pick(1); got != isa.IntReg(6) {
		t.Errorf("pick(1) = %v, want r6", got)
	}
	if got := h.pick(2); got != isa.IntReg(6) {
		t.Errorf("pick(2) should fall back to newest live, got %v", got)
	}
	var empty histRing
	if got := empty.pick(1); got != isa.RegNone {
		t.Errorf("empty ring pick = %v", got)
	}
}

// scanRing is the lookback the generator used before histRing kept only
// live entries: a ring of the last histCap live writes, each stamped
// with its write sequence number, scanned newest first past every entry
// whose register was written again since.
type scanRing struct {
	buf [histCap]struct {
		reg isa.Reg
		seq uint32
	}
	head, n int
	lastSeq [64]uint32
	seq     uint32
}

func (r *scanRing) write(reg isa.Reg, live bool) {
	r.seq++
	r.lastSeq[reg] = r.seq
	if !live {
		return
	}
	r.buf[r.head].reg, r.buf[r.head].seq = reg, r.seq
	r.head = (r.head + 1) % histCap
	if r.n < histCap {
		r.n++
	}
}

func (r *scanRing) pick(dist int) isa.Reg {
	seen, newest := 0, isa.RegNone
	for i := 1; i <= r.n; i++ {
		e := r.buf[(r.head-i+histCap)%histCap]
		if r.lastSeq[e.reg] != e.seq {
			continue
		}
		if newest == isa.RegNone {
			newest = e.reg
		}
		if seen++; seen >= dist {
			return e.reg
		}
	}
	return newest
}

// TestHistRingMatchesScan drives histRing and the old scan through the
// same seeded random writes and picks. Register pools and dead fractions
// range from a few registers (every pick crosses overwritten entries) to
// all 64 (entries age out of the window, and the live list fills up),
// and picks reach past the live count.
func TestHistRingMatchesScan(t *testing.T) {
	r := newRNG(2024)
	for trial := 0; trial < 200; trial++ {
		regs := 1 + r.intn(histCap)
		dead := r.float64()
		var h histRing
		var old scanRing
		for op := 0; op < 2000; op++ {
			if r.bool(0.5) {
				reg := isa.Reg(r.intn(regs))
				live := !r.bool(dead)
				h.write(reg, live)
				old.write(reg, live)
				continue
			}
			dist := 1 + r.intn(histCap+8)
			if got, want := h.pick(dist), old.pick(dist); got != want {
				t.Fatalf("trial %d op %d: pick(%d) = %v, old scan %v", trial, op, dist, got, want)
			}
		}
	}
}

func TestLoop(t *testing.T) {
	insts := []isa.Inst{
		{PC: 0, Class: isa.ClassNop, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone},
		{PC: 4, Class: isa.ClassNop, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone},
	}
	l := NewLoop(insts)
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	for i := 0; i < 10; i++ {
		in, ok := l.Next()
		if !ok {
			t.Fatal("loop ended")
		}
		if want := insts[i%2]; in != want {
			t.Fatalf("iteration %d: %v, want %v", i, in, want)
		}
	}
}

func TestLoopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty loop accepted")
		}
	}()
	NewLoop(nil)
}
