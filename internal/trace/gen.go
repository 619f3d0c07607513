package trace

import (
	"errors"
	"fmt"

	"avfsim/internal/isa"
)

// Mix gives the relative weights of non-branch instruction classes in a
// synthesized stream. Weights need not sum to 1; they are normalized.
// Branch frequency is implied by block length (one branch terminates each
// basic block).
type Mix struct {
	IntALU, IntMul, IntDiv float64
	FPAdd, FPMul, FPDiv    float64
	Load, Store            float64
	Nop                    float64
}

func (m Mix) weights() [9]float64 {
	return [9]float64{m.IntALU, m.IntMul, m.IntDiv, m.FPAdd, m.FPMul, m.FPDiv, m.Load, m.Store, m.Nop}
}

var mixClasses = [9]isa.Class{
	isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv,
	isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv,
	isa.ClassLoad, isa.ClassStore, isa.ClassNop,
}

// fpShare returns the fraction of value-producing traffic that is
// floating-point, used to type load destinations and store data.
func (m Mix) fpShare() float64 {
	fp := m.FPAdd + m.FPMul + m.FPDiv
	in := m.IntALU + m.IntMul + m.IntDiv
	if fp+in == 0 {
		return 0
	}
	return fp / (fp + in)
}

// Params parameterizes the synthetic workload generator. Each Params value
// describes one program phase: a static control-flow graph of basic blocks
// walked with per-block branch biases, register dataflow with a geometric
// dependency-distance distribution and a controllable dead-value fraction,
// and a data working set accessed with a mixture of streaming and random
// references. These are the knobs that drive AVF (Section 1 of the paper:
// utilization, dead values, speculation, occupancy).
type Params struct {
	// Seed makes the stream deterministic.
	Seed uint64
	// Blocks is the number of static basic blocks (code footprint).
	Blocks int
	// BlockLen is the mean number of non-branch instructions per block.
	BlockLen int
	// Mix weights the non-branch instruction classes.
	Mix Mix
	// DepDistMean is the mean register dependency distance, in
	// instructions (geometric distribution).
	DepDistMean float64
	// DeadFrac is the probability that a produced value is never
	// consumed (a dead value — a first-order source of masking).
	DeadFrac float64
	// WorkingSet is the data working-set size in bytes.
	WorkingSet uint64
	// SeqFrac is the fraction of blocks whose memory accesses stream
	// sequentially (the rest access the working set at random).
	SeqFrac float64
	// TakenBias is the probability that a biased static branch is
	// biased toward taken.
	TakenBias float64
	// BiasedFrac is the fraction of static branches that are strongly
	// biased (predictable); the rest have a uniform random bias.
	BiasedFrac float64
	// PCBase and DataBase set the code and data address regions, so
	// distinct phases occupy distinct code/data footprints.
	PCBase   uint64
	DataBase uint64
}

// Validate reports the first invalid parameter, or nil.
func (p *Params) Validate() error {
	switch {
	case p.Blocks < 1:
		return errors.New("trace: Params.Blocks must be >= 1")
	case p.BlockLen < 1:
		return errors.New("trace: Params.BlockLen must be >= 1")
	case p.DepDistMean < 1:
		return errors.New("trace: Params.DepDistMean must be >= 1")
	case p.DeadFrac < 0 || p.DeadFrac >= 1:
		return errors.New("trace: Params.DeadFrac must be in [0,1)")
	case p.WorkingSet < 64:
		return errors.New("trace: Params.WorkingSet must be >= 64 bytes")
	case p.SeqFrac < 0 || p.SeqFrac > 1:
		return errors.New("trace: Params.SeqFrac must be in [0,1]")
	case p.TakenBias < 0 || p.TakenBias > 1:
		return errors.New("trace: Params.TakenBias must be in [0,1]")
	case p.BiasedFrac < 0 || p.BiasedFrac > 1:
		return errors.New("trace: Params.BiasedFrac must be in [0,1]")
	}
	w := p.Mix.weights()
	sum := 0.0
	for _, x := range w {
		if x < 0 {
			return errors.New("trace: Mix weights must be non-negative")
		}
		sum += x
	}
	if sum <= 0 {
		return errors.New("trace: Mix weights must not all be zero")
	}
	return nil
}

// Register conventions used by the generator. Pointer registers hold base
// addresses and are refreshed by occasional ALU writes; data registers
// carry computed values.
const (
	numPtrRegs     = 4  // r1..r4
	firstDataReg   = 5  // r5..r31 are the integer data pool
	ptrUpdateEvery = 16 // mean instructions between pointer refreshes
	histCap        = 64 // recent-writer lookback window
	maxDepDist     = 48 // cap for the geometric dependency distance
)

// histEntry is one live value: the register holding it and the index of
// the live write that produced it.
type histEntry struct {
	reg isa.Reg
	at  uint32
}

// histRing holds, oldest first, the values produced by the last histCap
// live writes that are still in their registers. A register has at most
// one entry: writing it again removes the old one.
type histRing struct {
	live   [histCap]histEntry
	n      int    // entries in live
	pushes uint32 // live writes so far (wraps; only differences are used)
}

// write records a write to reg. Its previous value is gone; a live value
// becomes the newest entry, and the entry produced histCap live writes
// before it leaves the lookback window.
func (h *histRing) write(reg isa.Reg, live bool) {
	for i := 0; i < h.n; i++ {
		if h.live[i].reg == reg {
			copy(h.live[i:h.n], h.live[i+1:h.n])
			h.n--
			break
		}
	}
	if !live {
		return
	}
	if h.n > 0 && h.pushes-h.live[0].at >= histCap {
		copy(h.live[:h.n], h.live[1:h.n])
		h.n--
	}
	h.live[h.n] = histEntry{reg: reg, at: h.pushes}
	h.n++
	h.pushes++
}

// pick returns the register written dist (>= 1) live entries ago (1 =
// most recent), the newest when fewer than dist remain, or RegNone when
// none does.
func (h *histRing) pick(dist int) isa.Reg {
	switch {
	case h.n == 0:
		return isa.RegNone
	case dist > h.n:
		return h.live[h.n-1].reg
	}
	return h.live[h.n-dist].reg
}

// block is one static basic block of the synthetic program.
type block struct {
	idx     int
	pc      uint64
	classes []isa.Class
	// seqMem selects streaming (true) or random (false) data access.
	seqMem bool
	region uint64 // base offset of this block's data region
	bias   float64
	// takenTo and fallTo are successor block indices.
	takenTo, fallTo int
}

// Generator synthesizes a deterministic dynamic instruction stream from
// Params. It implements Source and never ends.
type Generator struct {
	p       Params
	rng     *rng
	blocks  []block
	cumMix  [9]float64
	fpShare float64

	cur, slot int
	seqCursor []uint64 // per-block streaming cursor

	intHist, fpHist histRing

	count int64 // instructions generated
}

// NewGenerator builds the static program for p and returns a ready stream.
func NewGenerator(p Params) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{p: p, rng: newRNG(p.Seed), fpShare: p.Mix.fpShare()}

	w := p.Mix.weights()
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	acc := 0.0
	for i, x := range w {
		acc += x / sum
		g.cumMix[i] = acc
	}
	g.cumMix[8] = 1.0 // guard against float drift

	g.buildProgram()
	g.seqCursor = make([]uint64, len(g.blocks))
	return g, nil
}

// MustNewGenerator is NewGenerator, panicking on invalid Params. For tests
// and examples with known-good constants.
func MustNewGenerator(p Params) *Generator {
	g, err := NewGenerator(p)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Generator) buildProgram() {
	p := g.p
	g.blocks = make([]block, p.Blocks)
	pc := p.PCBase
	// Region granularity for streaming blocks: divide the working set so
	// multiple streams coexist.
	regions := uint64(8)
	regionSize := p.WorkingSet / regions
	if regionSize < 64 {
		regionSize = 64
	}
	for i := range g.blocks {
		n := 1 + g.rng.intn(2*p.BlockLen-1) // mean ~BlockLen
		b := &g.blocks[i]
		b.idx = i
		b.pc = pc
		b.classes = make([]isa.Class, n)
		for j := range b.classes {
			b.classes[j] = g.drawClass()
		}
		pc += uint64(n+1) * 4 // +1 for the terminating branch
		b.seqMem = g.rng.bool(p.SeqFrac)
		b.region = (uint64(g.rng.intn(int(regions))) * regionSize) % p.WorkingSet
		if g.rng.bool(p.BiasedFrac) {
			if g.rng.bool(p.TakenBias) {
				b.bias = 0.96
			} else {
				b.bias = 0.04
			}
		} else {
			b.bias = 0.2 + 0.6*g.rng.float64()
		}
		b.takenTo = g.rng.intn(p.Blocks)
		b.fallTo = (i + 1) % p.Blocks
	}
}

func (g *Generator) drawClass() isa.Class {
	x := g.rng.float64()
	for i, c := range g.cumMix {
		if x < c {
			return mixClasses[i]
		}
	}
	return isa.ClassNop
}

// Count returns the number of instructions generated so far.
func (g *Generator) Count() int64 { return g.count }

// Params returns the generator's parameters.
func (g *Generator) Params() Params { return g.p }

// Next implements Source. The stream is infinite.
func (g *Generator) Next() (isa.Inst, bool) {
	b := &g.blocks[g.cur]
	var in isa.Inst
	if g.slot < len(b.classes) {
		in = g.synth(b, b.classes[g.slot], b.pc+uint64(g.slot)*4)
		g.slot++
	} else {
		in = g.synthBranch(b)
		g.slot = 0
	}
	g.count++
	return in, true
}

// synth builds one non-branch instruction.
func (g *Generator) synth(b *block, class isa.Class, pc uint64) isa.Inst {
	in := isa.Inst{PC: pc, Class: class, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	switch class {
	case isa.ClassNop:
		// no operands
	case isa.ClassIntALU, isa.ClassIntMul, isa.ClassIntDiv:
		in.Src1 = g.pickInt()
		if g.rng.bool(0.7) {
			in.Src2 = g.pickInt()
		}
		if class == isa.ClassIntALU && g.rng.bool(1.0/ptrUpdateEvery) {
			// Address-computation write refreshing a pointer register.
			in.Dst = isa.IntReg(1 + g.rng.intn(numPtrRegs))
			g.write(in.Dst, false) // pointers are consumed via loads/stores
		} else {
			in.Dst = g.allocInt()
			g.write(in.Dst, !g.rng.bool(g.p.DeadFrac))
		}
	case isa.ClassFPAdd, isa.ClassFPMul, isa.ClassFPDiv:
		in.Src1 = g.pickFP()
		if g.rng.bool(0.8) {
			in.Src2 = g.pickFP()
		}
		in.Dst = g.allocFP()
		g.write(in.Dst, !g.rng.bool(g.p.DeadFrac))
	case isa.ClassLoad:
		in.Src1 = g.ptrReg()
		in.Addr = g.address(b)
		if g.rng.bool(g.fpShare) {
			in.Dst = g.allocFP()
		} else {
			in.Dst = g.allocInt()
		}
		g.write(in.Dst, !g.rng.bool(g.p.DeadFrac))
	case isa.ClassStore:
		if g.rng.bool(g.fpShare) {
			in.Src1 = g.pickFP()
		} else {
			in.Src1 = g.pickInt()
		}
		in.Src2 = g.ptrReg()
		in.Addr = g.address(b)
	default:
		panic(fmt.Sprintf("trace: synth cannot build class %v", class))
	}
	return in
}

// synthBranch builds the block-terminating branch and advances the walk.
func (g *Generator) synthBranch(b *block) isa.Inst {
	in := isa.Inst{
		PC:    b.pc + uint64(len(b.classes))*4,
		Class: isa.ClassBranch,
		Dst:   isa.RegNone,
		Src1:  g.pickInt(),
		Src2:  isa.RegNone,
	}
	in.Taken = g.rng.bool(b.bias)
	if in.Taken {
		in.Target = g.blocks[b.takenTo].pc
		g.cur = b.takenTo
	} else {
		g.cur = b.fallTo
	}
	return in
}

// write records that reg now holds a fresh value; live values become
// visible to future source picks, dead ones do not (they will simply be
// overwritten — the generator's mechanism for controllable dead-value
// masking).
func (g *Generator) write(reg isa.Reg, live bool) {
	if reg.IsFP() {
		g.fpHist.write(reg, live)
	} else {
		g.intHist.write(reg, live)
	}
}

// allocInt picks a destination from the integer data pool.
func (g *Generator) allocInt() isa.Reg {
	return isa.IntReg(firstDataReg + g.rng.intn(isa.NumIntArchRegs-firstDataReg))
}

// allocFP picks a destination from the FP pool.
func (g *Generator) allocFP() isa.Reg {
	return isa.FPReg(g.rng.intn(isa.NumFPArchRegs))
}

// pickInt returns an integer source register at a geometric dependency
// distance, falling back to r5 before any value has been produced.
func (g *Generator) pickInt() isa.Reg {
	d := g.rng.geometric(g.p.DepDistMean, maxDepDist)
	if r := g.intHist.pick(d); r != isa.RegNone {
		return r
	}
	return isa.IntReg(firstDataReg)
}

// pickFP is pickInt for the floating-point file.
func (g *Generator) pickFP() isa.Reg {
	d := g.rng.geometric(g.p.DepDistMean, maxDepDist)
	if r := g.fpHist.pick(d); r != isa.RegNone {
		return r
	}
	return isa.FPReg(0)
}

// ptrReg returns one of the pointer registers.
func (g *Generator) ptrReg() isa.Reg {
	return isa.IntReg(1 + g.rng.intn(numPtrRegs))
}

// address produces the effective address for a memory access in block b:
// streaming blocks advance a per-block cursor through their region; random
// blocks sample the whole working set.
func (g *Generator) address(b *block) uint64 {
	if b.seqMem {
		cur := g.seqCursor[b.idx]
		g.seqCursor[b.idx] = cur + 8
		off := (b.region + cur) % g.p.WorkingSet
		return g.p.DataBase + (off &^ 7)
	}
	off := g.rng.next64() % g.p.WorkingSet
	return g.p.DataBase + (off &^ 7)
}
