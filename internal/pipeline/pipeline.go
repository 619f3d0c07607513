package pipeline

import (
	"fmt"
	"math/bits"

	"avfsim/internal/branch"
	"avfsim/internal/config"
	"avfsim/internal/isa"
	"avfsim/internal/mem"
	"avfsim/internal/trace"
)

// uop is one in-flight instruction.
type uop struct {
	inst isa.Inst
	seq  int64

	queue  QueueID
	fu     FUKind
	qEntry int
	unit   int

	srcPhys      [2]int16 // -1 = no source
	srcFile      [2]RegFileID
	srcProducers [2]int64
	dstPhys      int16 // -1 = no destination
	dstFile      RegFileID
	oldDst       int16

	dispatchCycle int64
	issueCycle    int64
	execStart     int64
	doneCycle     int64

	done         bool
	mispredicted bool

	// waitCount is the number of not-yet-produced sources; the uop sits
	// in its producers' waiter lists until it reaches zero, at which
	// point its queue slot is flagged issue-ready (event-driven wakeup —
	// issue never re-polls operand readiness).
	waitCount int8

	errMask ErrMask
}

// fetched pairs a trace instruction with its fetch-time branch prediction
// outcome while it waits in the instruction buffer.
type fetched struct {
	inst    isa.Inst
	mispred bool
	seq     int64
	// errMask carries error bits acquired at fetch (a corrupted iTLB
	// translation corrupts every instruction fetched through it).
	errMask ErrMask
}

// ring is a bounded FIFO. The backing array is rounded up to a power of
// two so every index computation is a mask instead of a modulo; the
// logical capacity stays exactly what the caller asked for (the ROB holds
// 100 instructions, not 128).
type ring[T any] struct {
	buf  []T // len(buf) is a power of two >= capacity
	mask int
	head int
	size int
	cap  int // logical capacity
}

func newRing[T any](capacity int) *ring[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &ring[T]{buf: make([]T, n), mask: n - 1, cap: capacity}
}

func (r *ring[T]) full() bool  { return r.size == r.cap }
func (r *ring[T]) empty() bool { return r.size == 0 }
func (r *ring[T]) len() int    { return r.size }
func (r *ring[T]) space() int  { return r.cap - r.size }

func (r *ring[T]) push(v T) {
	if r.full() {
		panic("pipeline: ring overflow")
	}
	r.buf[(r.head+r.size)&r.mask] = v
	r.size++
}

func (r *ring[T]) front() T { return r.buf[r.head] }

// pop leaves the vacated slot untouched: only [head, head+size) is ever
// read, and the pipeline's element types are either pointer-free values
// or pooled *uops that stay reachable through the pool anyway, so there
// is nothing to zero for the GC's sake.
func (r *ring[T]) pop() T {
	if r.empty() {
		panic("pipeline: ring underflow")
	}
	v := r.buf[r.head]
	r.head = (r.head + 1) & r.mask
	r.size--
	return v
}

// at returns the i-th element from the front without removing it.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)&r.mask] }

// spans returns the live contents, oldest first, as up to two linear
// slices — the allocation-free way to scan the whole ring (ClearPlane,
// PlanePopulation) without per-element index arithmetic.
func (r *ring[T]) spans() (a, b []T) {
	end := r.head + r.size
	if end <= len(r.buf) {
		return r.buf[r.head:end], nil
	}
	return r.buf[r.head:], r.buf[:end&r.mask]
}

// issueQueue is a fixed set of reservation slots. An occupancy bitmap
// mirrors slots so allocation and the per-cycle wakeup scan touch only
// occupied entries instead of walking every slot.
type issueQueue struct {
	slots []*uop
	occ   []uint64 // bit i set <=> slots[i] != nil
	// ready has a bit per slot whose occupant has all sources produced
	// and is waiting for a functional unit. Set by the wakeup path,
	// cleared when the op issues; the per-cycle issue scan walks only
	// these bits.
	ready []uint64
	count int
}

func (q *issueQueue) init(n int) {
	q.slots = make([]*uop, n)
	q.occ = make([]uint64, (n+63)/64)
	q.ready = make([]uint64, (n+63)/64)
}

func (q *issueQueue) hasSpace() bool { return q.count < len(q.slots) }

// alloc claims the lowest free slot. Valid slot bits precede the unused
// tail bits of the last word, so when hasSpace holds the first zero bit
// is always a real slot.
func (q *issueQueue) alloc(u *uop) int {
	for wi, w := range q.occ {
		if w == ^uint64(0) {
			continue
		}
		b := bits.TrailingZeros64(^w)
		i := wi<<6 + b
		q.occ[wi] |= 1 << uint(b)
		q.slots[i] = u
		q.count++
		return i
	}
	panic("pipeline: issue queue overflow")
}

func (q *issueQueue) free(i int) {
	q.occ[i>>6] &^= 1 << (uint(i) & 63)
	q.ready[i>>6] &^= 1 << (uint(i) & 63)
	q.slots[i] = nil
	q.count--
}

// markReady flags slot i as issue-ready.
func (q *issueQueue) markReady(i int) {
	q.ready[i>>6] |= 1 << (uint(i) & 63)
}

// Pipeline is the simulated processor.
type Pipeline struct {
	cfg  *config.Config
	src  trace.Source
	hier *mem.Hierarchy
	pred *branch.Predictor

	cycle   int64
	steps   int64 // cycles simulated by Step (the rest were skipped idle)
	seq     int64 // next fetch sequence number
	retired int64

	// Fetch state.
	pending         fetched // next instruction not yet in the buffer
	havePending     bool
	srcDone         bool
	instBuf         *ring[fetched]
	fetchStallUntil int64
	fetchHalted     bool  // waiting on a mispredicted branch to resolve
	fetchHaltSeq    int64 // seq of that branch
	curFetchLine    uint64
	haveFetchLine   bool
	curLineErr      ErrMask // iTLB error bits of the current fetch line
	lineMask        uint64  // ^(L1I line size - 1), hoisted out of fetch

	// Rename / registers.
	intRF, fpRF *regFile

	// Window.
	rob    *ring[*uop]
	queues [NumQueues]issueQueue

	// Execution.
	executing []*uop
	inflight  [NumFUKinds][]int // per unit: ops in flight
	// activeUnits tracks, per kind, how many units currently have at
	// least one op in flight — the busy-unit-cycle statistic accumulated
	// incrementally instead of rescanning inflight every cycle.
	activeUnits [NumFUKinds]int64

	// Error-bit machinery. Armed logic injections live in a small fixed
	// table (one entry per armed lane; the classic estimator arms at
	// most one per logic structure, the lane engine at most one per
	// lane). logicArmed gates every per-cycle touch of the table:
	// between injections (the overwhelmingly common case) issue and
	// accountCycle pay one bool check instead of a table walk.
	arms       [MaxLanes]logicArm
	armCount   int
	logicArmed bool
	dtlbErr    []ErrMask
	itlbErr    []ErrMask

	hooks Hooks

	// Flight recorder (see flightevents.go). recOn gates every emission
	// site on one branch; nil/false — the default — keeps the hot path
	// identical to a build without recording.
	rec   ErrRecorder
	recOn bool

	// Statistics.
	busyUnitCycles [NumFUKinds]int64
	initiations    [NumFUKinds]int64
	iqOccupancySum int64
	failures       [NumStructures]int64

	// Scratch buffers reused across cycles. retireEv is the single
	// RetireEvent passed (by pointer, valid only during the callback) to
	// OnRetire — a literal here would escape and cost one heap
	// allocation per retired instruction.
	candBuf  []*uop
	retireEv RetireEvent

	// uop free pool.
	pool []*uop
}

// New builds a pipeline over the given instruction source.
func New(cfg *config.Config, src trace.Source) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hier, err := mem.NewHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:     cfg,
		src:     src,
		hier:    hier,
		pred:    branch.New(cfg),
		instBuf: newRing[fetched](cfg.InstBufferEntries),
		intRF:   newRegFile(IntFile, cfg.IntRegs),
		fpRF:    newRegFile(FPFile, cfg.FPRegs),
		rob:     newRing[*uop](cfg.ROBEntries()),
	}
	p.lineMask = ^uint64(cfg.L1I.LineBytes - 1)
	p.dtlbErr = make([]ErrMask, cfg.DTLBEntries)
	p.itlbErr = make([]ErrMask, cfg.ITLBEntries)
	p.queues[QFXU].init(cfg.FXUQueueEntries)
	p.queues[QFPU].init(cfg.FPUQueueEntries)
	p.queues[QBr].init(cfg.BrQueueEntries)
	p.inflight[FUInt] = make([]int, cfg.NumIntUnits)
	p.inflight[FUFP] = make([]int, cfg.NumFPUnits)
	p.inflight[FULS] = make([]int, cfg.NumLSUnits)
	p.inflight[FUBr] = make([]int, cfg.NumBrUnits)
	return p, nil
}

// SetHooks installs observation callbacks. Call before stepping.
func (p *Pipeline) SetHooks(h Hooks) { p.hooks = h }

// Cycle returns the number of cycles simulated so far.
func (p *Pipeline) Cycle() int64 { return p.cycle }

// Retired returns the number of instructions retired so far.
func (p *Pipeline) Retired() int64 { return p.retired }

// Hierarchy exposes the memory system for reporting.
func (p *Pipeline) Hierarchy() *mem.Hierarchy { return p.hier }

// Predictor exposes the branch predictor for reporting.
func (p *Pipeline) Predictor() *branch.Predictor { return p.pred }

// Config returns the processor configuration.
func (p *Pipeline) Config() *config.Config { return p.cfg }

// getUop returns a pooled uop. The struct is NOT zeroed: dispatch
// initializes every field that is read before being written (the fields
// guarded by srcPhys/dstPhys sentinels are only read when their guard
// was set alongside them).
func (p *Pipeline) getUop() *uop {
	if n := len(p.pool); n > 0 {
		u := p.pool[n-1]
		p.pool = p.pool[:n-1]
		return u
	}
	return &uop{}
}

func (p *Pipeline) putUop(u *uop) { p.pool = append(p.pool, u) }

// Step simulates one cycle. It returns false once the trace is exhausted
// and the pipeline has drained.
func (p *Pipeline) Step() bool {
	if p.done() {
		return false
	}
	p.retire()
	p.complete()
	p.issue()
	p.dispatch()
	p.fetch()
	p.accountCycle()
	p.cycle++
	p.steps++
	return true
}

// Steps returns the number of cycles Step has simulated; the other
// Cycle() - Steps() cycles were skipped by SkipIdle.
func (p *Pipeline) Steps() int64 { return p.steps }

// SkipIdle advances the clock over the cycles in which Step would change
// nothing but the busy-unit and issue-queue occupancy sums, landing no
// later than limit, and returns how many cycles it skipped. A return of
// 0 means the current cycle may do work (or the pipeline has drained):
// call Step.
//
// A cycle is idle when no logic injection is armed (the armed unit must
// see its cycle), nothing can retire, complete or issue, dispatch is
// blocked, and fetch is blocked. Those conditions hold until the
// earliest in-flight operation completes or, when the fetch stall is all
// that holds fetch back, until the stall ends: SkipIdle lands at the
// first of those cycles and limit. Error bits never affect timing, so a
// drive loop that passes its next estimator, sampling and stop cycle as
// limit sees exactly what stepping every cycle would show it.
func (p *Pipeline) SkipIdle(limit int64) int64 {
	if limit <= p.cycle || p.logicArmed || p.done() {
		return 0
	}
	if !p.rob.empty() && p.rob.front().done {
		return 0
	}
	for q := range p.queues {
		for _, w := range p.queues[q].ready {
			if w != 0 {
				return 0
			}
		}
	}
	if !p.dispatchBlocked() {
		return 0
	}
	wake := limit
	// An exhausted source stays exhausted, so only a stall can be all
	// that holds fetch back.
	if !p.fetchHalted && !p.instBuf.full() && !p.srcDone {
		if p.cycle >= p.fetchStallUntil {
			return 0
		}
		wake = min(wake, p.fetchStallUntil)
	}
	for _, u := range p.executing {
		if u.doneCycle <= p.cycle {
			return 0
		}
		wake = min(wake, u.doneCycle)
	}
	n := wake - p.cycle
	p.accrue(n)
	p.cycle = wake
	return n
}

// dispatchBlocked reports whether dispatch would move nothing this
// cycle. It checks dispatch's guards in dispatch's order.
func (p *Pipeline) dispatchBlocked() bool {
	if p.instBuf.empty() || p.rob.full() {
		return true
	}
	f := p.instBuf.front()
	if q, _ := route(f.inst.Class); q != QNone && !p.queues[q].hasSpace() {
		return true
	}
	if f.inst.HasDst() {
		file, _ := fileOf(f.inst.Dst)
		return !p.fileFor(file).canAlloc(1)
	}
	return false
}

// Run steps until the pipeline drains or maxCycles elapse (if > 0). It
// returns the cycles executed during this call.
func (p *Pipeline) Run(maxCycles int64) int64 {
	start := p.cycle
	for maxCycles <= 0 || p.cycle-start < maxCycles {
		if !p.Step() {
			break
		}
	}
	return p.cycle - start
}

func (p *Pipeline) done() bool {
	return p.srcDone && !p.havePending && p.instBuf.empty() && p.rob.empty()
}

// retire commits up to one dispatch group per cycle, in order.
func (p *Pipeline) retire() {
	for n := 0; n < p.cfg.DispatchGroup && !p.rob.empty(); n++ {
		u := p.rob.front()
		if !u.done {
			break
		}
		p.rob.pop()
		p.retired++

		if u.errMask != 0 {
			if u.inst.Class.IsFailurePoint() {
				if p.hooks.OnFailureMask != nil {
					// Lane layout: bit indexes are experiment lanes, not
					// structures — hand the whole mask to the lane-aware
					// consumer, which owns the lane→structure table.
					// Per-structure counters are skipped; the consumer
					// attributes failures itself.
					p.hooks.OnFailureMask(u.errMask, u.seq, p.cycle, u.inst.Class)
				} else {
					// Plane layout: walk only the set bits, ascending
					// (same order as the old per-structure scan).
					for m := uint64(u.errMask); m != 0; m &= m - 1 {
						s := Structure(bits.TrailingZeros64(m))
						p.failures[s]++
						if p.hooks.OnFailure != nil {
							p.hooks.OnFailure(s, u.seq, p.cycle, u.inst.Class)
						}
					}
				}
				if p.recOn {
					ev := p.baseEv(EvRetireFail, u.errMask)
					ev.Seq, ev.Class = u.seq, u.inst.Class
					p.emitEv(ev)
				}
			} else if p.recOn {
				ev := p.baseEv(EvRetireDrop, u.errMask)
				ev.Seq, ev.Class = u.seq, u.inst.Class
				p.emitEv(ev)
			}
		}
		if p.hooks.OnRetire != nil {
			p.retireEv = RetireEvent{
				Seq:           u.seq,
				Class:         u.inst.Class,
				PC:            u.inst.PC,
				DispatchCycle: u.dispatchCycle,
				IssueCycle:    u.issueCycle,
				RetireCycle:   p.cycle,
				Queue:         u.queue,
				QueueEntry:    u.qEntry,
				FU:            u.fu,
				Unit:          u.unit,
				ExecStart:     u.execStart,
				SrcProducers:  u.srcProducers,
				DstFile:       u.dstFile,
				DstPhys:       u.dstPhys,
				Err:           u.errMask,
				Mispredicted:  u.mispredicted,
			}
			p.hooks.OnRetire(&p.retireEv)
		}
		if u.dstPhys >= 0 {
			rf := p.fileFor(u.dstFile)
			if p.recOn {
				if m := rf.err[u.oldDst]; m != 0 {
					// The overwriting instruction retired: the previous
					// mapping (and any error bits it carried) dies.
					ev := p.baseEv(EvRegOverwrite, m)
					ev.File, ev.Phys, ev.Seq = u.dstFile, u.oldDst, u.seq
					p.emitEv(ev)
				}
			}
			rf.release(u.oldDst)
			if p.hooks.OnRegFree != nil {
				p.hooks.OnRegFree(u.dstFile, u.oldDst, p.cycle)
			}
		}
		p.putUop(u)
	}
}

func (p *Pipeline) fileFor(id RegFileID) *regFile {
	if id == FPFile {
		return p.fpRF
	}
	return p.intRF
}

// complete performs writeback for operations finishing this cycle.
func (p *Pipeline) complete() {
	out := p.executing[:0]
	for _, u := range p.executing {
		if u.doneCycle > p.cycle {
			out = append(out, u)
			continue
		}
		u.done = true
		if p.inflight[u.fu][u.unit]--; p.inflight[u.fu][u.unit] == 0 {
			p.activeUnits[u.fu]--
		}
		if u.dstPhys >= 0 {
			rf := p.fileFor(u.dstFile)
			rf.ready[u.dstPhys] = true
			if p.recOn {
				// Bits injected into the not-yet-written register are
				// destroyed by the write (overwrite masking); bits the
				// instruction carries are copied in.
				if lost := rf.err[u.dstPhys] &^ u.errMask; lost != 0 {
					ev := p.baseEv(EvRegOverwrite, lost)
					ev.File, ev.Phys, ev.Seq = u.dstFile, u.dstPhys, u.seq
					p.emitEv(ev)
				}
				if u.errMask != 0 {
					ev := p.baseEv(EvWriteCopy, u.errMask)
					ev.File, ev.Phys, ev.Seq = u.dstFile, u.dstPhys, u.seq
					p.emitEv(ev)
				}
			}
			rf.err[u.dstPhys] = u.errMask
			rf.writer[u.dstPhys] = u.seq
			// Wake the consumers blocked on this value.
			if ws := rf.waiters[u.dstPhys]; len(ws) > 0 {
				for _, w := range ws {
					if w.waitCount--; w.waitCount == 0 {
						p.queues[w.queue].markReady(w.qEntry)
					}
				}
				rf.waiters[u.dstPhys] = ws[:0]
			}
			if p.hooks.OnRegWrite != nil {
				p.hooks.OnRegWrite(u.dstFile, u.dstPhys, p.cycle, u.seq)
			}
		}
		if u.mispredicted && p.fetchHalted && u.seq == p.fetchHaltSeq {
			p.fetchHalted = false
			stallUntil := p.cycle + int64(p.cfg.MispredictPenalty)
			if stallUntil > p.fetchStallUntil {
				p.fetchStallUntil = stallUntil
			}
		}
	}
	p.executing = out
}

// issue selects ready instructions from the queues, oldest first, and
// starts them on free functional units.
func (p *Pipeline) issue() {
	var avail [NumFUKinds]int
	avail[FUInt] = p.cfg.NumIntUnits
	avail[FUFP] = p.cfg.NumFPUnits
	avail[FULS] = p.cfg.NumLSUnits
	avail[FUBr] = p.cfg.NumBrUnits

	for q := 0; q < NumQueues; q++ {
		queue := &p.queues[q]
		if queue.count == 0 {
			continue
		}
		// Gather the slots the wakeup path flagged issue-ready (slot
		// order; the seq sort below makes gather order irrelevant).
		cands := p.candBuf[:0]
		for wi, w := range queue.ready {
			base := wi << 6
			for ; w != 0; w &= w - 1 {
				cands = append(cands, queue.slots[base+bits.TrailingZeros64(w)])
			}
		}
		// Oldest first (insertion sort; candidate lists are tiny).
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && cands[j].seq < cands[j-1].seq; j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}
		for _, u := range cands {
			if avail[u.fu] == 0 {
				continue
			}
			unit := p.pickUnit(u.fu, avail[u.fu])
			avail[u.fu]--
			p.start(u, unit)
			queue.free(u.qEntry)
		}
		p.candBuf = cands[:0]
	}
}

// pickUnit chooses the unit instance for this issue slot: units fill in
// order within a cycle (avail counts down).
func (p *Pipeline) pickUnit(k FUKind, avail int) int {
	return len(p.inflight[k]) - avail
}

// start begins execution of u on the given unit: operands are read (error
// bits OR in), a pending logic injection on this unit lands, and the
// completion time is scheduled.
func (p *Pipeline) start(u *uop, unit int) {
	u.issueCycle = p.cycle
	u.execStart = p.cycle
	u.unit = unit

	// Nil-hook fast path hoisted out of the source loop: a run without
	// observers attached pays no per-operand callback check.
	onRead := p.hooks.OnRegRead
	for i := 0; i < 2; i++ {
		if u.srcPhys[i] < 0 {
			continue
		}
		rf := p.fileFor(u.srcFile[i])
		u.errMask |= rf.err[u.srcPhys[i]]
		u.srcProducers[i] = rf.writer[u.srcPhys[i]]
		if p.recOn {
			if m := rf.err[u.srcPhys[i]]; m != 0 {
				ev := p.baseEv(EvReadCopy, m)
				ev.Seq, ev.SrcSeq = u.seq, u.srcProducers[i]
				ev.File, ev.Phys = u.srcFile[i], u.srcPhys[i]
				p.emitEv(ev)
			}
		}
		if onRead != nil {
			onRead(u.srcFile[i], u.srcPhys[i], p.cycle, u.seq)
		}
	}

	// A pending single-cycle logic injection corrupts the op starting on
	// the chosen unit this cycle. logicArmed is false except during the
	// one cycle following an Inject/InjectLane on a logic structure.
	// Several lanes may have armed the same unit; every match lands.
	if p.logicArmed {
		if ls := logicStructure(u.fu); int(ls) < NumStructures {
			for i := 0; i < p.armCount; i++ {
				a := &p.arms[i]
				if a.bit == 0 || a.s != ls || int(a.unit) != unit {
					continue
				}
				u.errMask |= a.bit
				if p.recOn {
					ev := p.baseEv(EvLogicLand, a.bit)
					ev.Structure, ev.Entry, ev.Seq = ls, unit, u.seq
					p.emitEv(ev)
				}
				a.bit = 0 // consumed
			}
		}
	}

	u.doneCycle = p.cycle + p.latency(u)
	if p.inflight[u.fu][unit]++; p.inflight[u.fu][unit] == 1 {
		p.activeUnits[u.fu]++
	}
	p.initiations[u.fu]++
	p.executing = append(p.executing, u)
}

// latency returns the execution latency for u, charging the memory
// hierarchy for loads.
func (p *Pipeline) latency(u *uop) int64 {
	switch u.inst.Class {
	case isa.ClassIntALU:
		return int64(p.cfg.IntALULatency)
	case isa.ClassIntMul:
		return int64(p.cfg.IntMulLatency)
	case isa.ClassIntDiv:
		return int64(p.cfg.IntDivLatency)
	case isa.ClassFPAdd, isa.ClassFPMul:
		return int64(p.cfg.FPDefaultLatency)
	case isa.ClassFPDiv:
		return int64(p.cfg.FPDivLatency)
	case isa.ClassLoad:
		return 1 + int64(p.dataAccess(u))
	case isa.ClassStore:
		// Address generation only; the store drains from a store buffer
		// after retirement. The cache state is still updated.
		p.dataAccess(u)
		return 1
	case isa.ClassBranch:
		return 1
	default:
		return 1
	}
}

// dataAccess performs u's data-side memory access: it charges the
// latency, propagates a corrupted dTLB translation into the instruction,
// and clears the entry's error bit on refill (the new translation
// overwrites it).
func (p *Pipeline) dataAccess(u *uop) int {
	acc := p.hier.DataAccess(u.inst.Addr)
	if acc.TLBHit {
		if p.recOn {
			if m := p.dtlbErr[acc.TLBEntry]; m != 0 {
				ev := p.baseEv(EvTLBCopy, m)
				ev.Structure, ev.Entry, ev.Seq = StructDTLB, acc.TLBEntry, u.seq
				p.emitEv(ev)
			}
		}
		u.errMask |= p.dtlbErr[acc.TLBEntry]
	} else {
		if p.recOn {
			if m := p.dtlbErr[acc.TLBEntry]; m != 0 {
				ev := p.baseEv(EvTLBRefill, m)
				ev.Structure, ev.Entry = StructDTLB, acc.TLBEntry
				p.emitEv(ev)
			}
		}
		p.dtlbErr[acc.TLBEntry] = 0
	}
	if p.hooks.OnTLBAccess != nil {
		p.hooks.OnTLBAccess(StructDTLB, acc.TLBEntry, p.cycle, !acc.TLBHit)
	}
	return acc.Latency
}

// dispatch renames and inserts up to one dispatch group into the window.
func (p *Pipeline) dispatch() {
	for n := 0; n < p.cfg.DispatchGroup && !p.instBuf.empty() && !p.rob.full(); n++ {
		f := p.instBuf.front()
		q, fu := route(f.inst.Class)
		if q != QNone && !p.queues[q].hasSpace() {
			break
		}
		var rf *regFile
		if f.inst.HasDst() {
			file, _ := fileOf(f.inst.Dst)
			rf = p.fileFor(file)
			if !rf.canAlloc(1) {
				break
			}
		}
		p.instBuf.pop()

		// Full (re-)initialization of the pooled uop; getUop does not
		// zero. srcFile/dstFile/oldDst are only read under their
		// srcPhys/dstPhys >= 0 guards, set together below.
		u := p.getUop()
		u.inst = f.inst
		u.seq = f.seq
		u.queue = q
		u.fu = fu
		u.qEntry = -1
		u.unit = -1
		u.dispatchCycle = p.cycle
		u.issueCycle = -1
		u.execStart = -1
		u.doneCycle = -1
		u.dstPhys = -1
		u.srcPhys = [2]int16{-1, -1}
		u.srcProducers = [2]int64{-1, -1}
		u.done = false
		u.waitCount = 0
		u.mispredicted = f.mispred
		u.errMask = f.errMask

		srcs := [2]isa.Reg{f.inst.Src1, f.inst.Src2}
		for i, s := range srcs {
			if s == isa.RegNone {
				continue
			}
			file, idx := fileOf(s)
			u.srcFile[i] = file
			u.srcPhys[i] = p.fileFor(file).lookup(idx)
		}
		if f.inst.HasDst() {
			file, idx := fileOf(f.inst.Dst)
			u.dstFile = file
			if p.recOn {
				// alloc clears the fresh register's error mask; a bit
				// injected into a free-listed register dies here.
				if ph := rf.peekFree(); rf.err[ph] != 0 {
					ev := p.baseEv(EvRegOverwrite, rf.err[ph])
					ev.File, ev.Phys, ev.Seq = file, ph, f.seq
					p.emitEv(ev)
				}
			}
			u.dstPhys, u.oldDst = rf.alloc(idx)
		}

		p.rob.push(u)
		if q != QNone {
			u.qEntry = p.queues[q].alloc(u)
			// Subscribe to unproduced sources; a uop with all sources
			// ready is issue-ready immediately.
			for i := 0; i < 2; i++ {
				if s := u.srcPhys[i]; s >= 0 {
					srf := p.fileFor(u.srcFile[i])
					if !srf.ready[s] {
						srf.waiters[s] = append(srf.waiters[s], u)
						u.waitCount++
					}
				}
			}
			if u.waitCount == 0 {
				p.queues[q].markReady(u.qEntry)
			}
		} else {
			// Nops bypass the queues and complete immediately.
			u.done = true
			u.doneCycle = p.cycle
		}
	}
}

// fetch brings up to FetchWidth instructions per cycle into the
// instruction buffer, honoring I-cache latency, taken-branch fetch breaks,
// and misprediction stalls.
func (p *Pipeline) fetch() {
	if p.fetchHalted || p.cycle < p.fetchStallUntil {
		return
	}
	for n := 0; n < p.cfg.FetchWidth && !p.instBuf.full(); n++ {
		if !p.havePending {
			in, ok := p.src.Next()
			if !ok {
				p.srcDone = true
				return
			}
			p.pending = fetched{inst: in, seq: p.seq}
			p.havePending = true
			p.seq++
		}
		f := &p.pending
		// New cache line: probe the I-side hierarchy; a miss stalls the
		// front end until the line arrives.
		line := f.inst.PC & p.lineMask
		if !p.haveFetchLine || line != p.curFetchLine {
			acc := p.hier.InstAccess(f.inst.PC)
			p.curFetchLine = line
			p.haveFetchLine = true
			if acc.TLBHit {
				p.curLineErr = p.itlbErr[acc.TLBEntry]
				if p.recOn && p.curLineErr != 0 {
					ev := p.baseEv(EvTLBCopy, p.curLineErr)
					ev.Structure, ev.Entry = StructITLB, acc.TLBEntry
					p.emitEv(ev)
				}
			} else {
				// The refill overwrites the entry (and any error in it);
				// the fetched instructions use the fresh translation.
				if p.recOn {
					if m := p.itlbErr[acc.TLBEntry]; m != 0 {
						ev := p.baseEv(EvTLBRefill, m)
						ev.Structure, ev.Entry = StructITLB, acc.TLBEntry
						p.emitEv(ev)
					}
				}
				p.itlbErr[acc.TLBEntry] = 0
				p.curLineErr = 0
			}
			if p.hooks.OnTLBAccess != nil {
				p.hooks.OnTLBAccess(StructITLB, acc.TLBEntry, p.cycle, !acc.TLBHit)
			}
			if acc.Latency > p.cfg.L1I.LatencyCycles {
				p.fetchStallUntil = p.cycle + int64(acc.Latency)
				return
			}
		}
		f.errMask = p.curLineErr
		if p.recOn && f.errMask != 0 {
			ev := p.baseEv(EvFetchCopy, f.errMask)
			ev.Seq = f.seq
			p.emitEv(ev)
		}
		// Branch prediction happens at fetch; the trace carries the
		// resolved outcome, so we learn immediately whether the front
		// end would have misfetched.
		if f.inst.Class == isa.ClassBranch {
			f.mispred = p.pred.Resolve(f.inst.PC, f.inst.Taken, f.inst.Target)
		}
		p.instBuf.push(*f)
		p.havePending = false

		if f.inst.Class == isa.ClassBranch {
			if f.mispred {
				// Fetch halts until the branch resolves in the back end.
				p.fetchHalted = true
				p.fetchHaltSeq = f.seq
				return
			}
			if f.inst.Taken {
				// A correctly predicted taken branch still ends the
				// fetch group.
				return
			}
		}
	}
}

// accrue charges n cycles of the current busy units and issue-queue
// population to the statistics. Idle cycles change neither, so SkipIdle
// charges a whole idle run at once.
func (p *Pipeline) accrue(n int64) {
	for k := 0; k < NumFUKinds; k++ {
		p.busyUnitCycles[k] += p.activeUnits[k] * n
	}
	p.iqOccupancySum += int64(p.iqCount()) * n
}

// iqCount is the combined population of the issue queues.
func (p *Pipeline) iqCount() int {
	return p.queues[QFXU].count + p.queues[QFPU].count + p.queues[QBr].count
}

// accountCycle updates per-cycle statistics.
func (p *Pipeline) accountCycle() {
	p.accrue(1)
	// Unconsumed single-cycle logic injections are masked (unit idle).
	// Mask events are emitted in ascending structure order (matching the
	// old per-structure pendingLogic sweep), insertion order within one.
	if p.logicArmed {
		if p.recOn {
			for s := Structure(0); int(s) < NumStructures; s++ {
				for i := 0; i < p.armCount; i++ {
					a := &p.arms[i]
					if a.bit == 0 || a.s != s {
						continue
					}
					ev := p.baseEv(EvLogicMask, a.bit)
					ev.Structure, ev.Entry = a.s, int(a.unit)
					p.emitEv(ev)
				}
			}
		}
		p.armCount = 0
		p.logicArmed = false
	}
}

// Stats is a snapshot of pipeline counters.
type Stats struct {
	Cycles  int64
	Retired int64
	IPC     float64
	// BusyUnitCycles counts unit-cycles with at least one op in flight,
	// per unit kind.
	BusyUnitCycles [NumFUKinds]int64
	// Initiations counts operations started per unit kind.
	Initiations [NumFUKinds]int64
	// MeanIQOccupancy is the average combined issue-queue population.
	MeanIQOccupancy float64
	// Failures counts failure-point retirements carrying each plane's
	// error bit.
	Failures [NumStructures]int64
}

// Snapshot returns current statistics.
func (p *Pipeline) Snapshot() Stats {
	st := Stats{
		Cycles:         p.cycle,
		Retired:        p.retired,
		BusyUnitCycles: p.busyUnitCycles,
		Initiations:    p.initiations,
		Failures:       p.failures,
	}
	if p.cycle > 0 {
		st.IPC = float64(p.retired) / float64(p.cycle)
		st.MeanIQOccupancy = float64(p.iqOccupancySum) / float64(p.cycle)
	}
	return st
}

// String summarizes the snapshot.
func (s Stats) String() string {
	return fmt.Sprintf("cycles=%d retired=%d ipc=%.3f iq-occ=%.1f",
		s.Cycles, s.Retired, s.IPC, s.MeanIQOccupancy)
}
