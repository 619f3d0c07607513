// Package softarch is the offline reference AVF analysis used to validate
// the online estimator, standing in for the SoftArch tool the paper
// compares against. It performs an exact ACE (architecturally correct
// execution) analysis over the simulated execution, using the same
// conservative failure points as the online method (retiring loads,
// stores, and branches):
//
//   - An instruction is ACE if it is itself a failure point, or if its
//     result transitively feeds one. ACE marking runs backward over the
//     retirement stream through the register dataflow edges the pipeline
//     reports.
//   - Issue-queue AVF: fraction of entry-cycles occupied by ACE
//     instructions.
//   - Register-file AVF: fraction of register-cycles holding a value
//     between its write and its last ACE read.
//   - Functional-unit AVF: fraction of unit-cycles on which an ACE
//     operation starts (the window in which the single-cycle logic
//     injection of the online method would corrupt it).
//
// The analysis streams: dynamic-instruction nodes live in a bounded ring
// (ACE flags are kept for the whole run in a bitset), and attribution of
// a node happens when it falls out of the ring, by which time its ACE
// status has settled for any realistic chain length. Chains longer than
// the ring are truncated and counted in DroppedMarks.
package softarch

import (
	"errors"
	"fmt"

	"avfsim/internal/pipeline"
)

// Options configures the analyzer.
type Options struct {
	// IntervalCycles is the AVF reporting granularity; match the online
	// estimator's M*N.
	IntervalCycles int64
	// Window is the node-ring capacity (rounded up to a power of two).
	// It bounds how far back ACE marking can reach. Default
	// DefaultWindow; at most MaxWindow.
	Window int
}

const (
	// DefaultWindow is the node-ring capacity when Options.Window <= 0.
	DefaultWindow = 1 << 17
	// MaxWindow is the largest accepted Options.Window: the ring
	// preallocates one node per slot, so this caps it at 56 MiB.
	MaxWindow = 1 << 20
)

func (o *Options) validate() error {
	if o.IntervalCycles <= 0 {
		return errors.New("softarch: IntervalCycles must be positive")
	}
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.Window > MaxWindow {
		return fmt.Errorf("softarch: Window %d exceeds %d", o.Window, MaxWindow)
	}
	// Round up to a power of two for cheap masking.
	w := 1
	for w < o.Window {
		w <<= 1
	}
	o.Window = w
	return nil
}

// node is the retained state of one retired instruction.
type node struct {
	seq          int64
	srcProducers [2]int64
	dispatch     int64
	issue        int64
	execStart    int64
	queue        pipeline.QueueID
	fu           pipeline.FUKind
	valid        bool
}

// readRec is one register read: when and by whom.
type readRec struct {
	cycle int64
	seq   int64
}

// segment is one value's residency in a physical register: from its write
// until the next write to the same register.
type segment struct {
	open  bool
	start int64
	reads []readRec
}

// tlbSegment is one translation's residency in a TLB entry.
type tlbSegment struct {
	open    bool
	fill    int64
	lastHit int64
}

// closedSeg is a finished segment awaiting reader-flag settlement.
type closedSeg struct {
	file       pipeline.RegFileID
	start, end int64
	reads      []readRec
	maxReader  int64
}

// Analyzer consumes pipeline events and produces per-interval reference
// AVFs.
type Analyzer struct {
	opt  Options
	mask int64

	ring    []node
	aceBits []uint64 // one bit per dynamic instruction, kept for the run
	maxSeq  int64    // highest seq retired + 1

	droppedMarks int64
	markStack    []int64

	// Per-interval accumulators (grown on demand).
	iqAceCycles  []float64
	regAceCycles [2][]float64 // by RegFileID
	fuAceStarts  [pipeline.NumFUKinds][]float64
	tlbAceCycles [2][]float64 // 0 = dTLB, 1 = iTLB

	// TLB entry segments: a corrupted translation causes failure iff the
	// entry is used again before being refilled, so a value's ACE window
	// runs from its fill to its last hit.
	tlbSegs [2][]tlbSegment

	// Register segment tracking. pending is a FIFO (head index advances;
	// the slice is compacted when the head grows large): segments settle
	// in roughly the order they close, so settlement only ever inspects
	// the front.
	segs        [2][]segment // by RegFileID, per physical register
	pending     []closedSeg
	pendingHead int
	readPool    [][]readRec
	lastCycle   int64

	// Structure geometry for normalization.
	entries [pipeline.NumStructures]int
}

// NewAnalyzer builds an analyzer for p's geometry.
func NewAnalyzer(p *pipeline.Pipeline, opt Options) (*Analyzer, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	a := &Analyzer{
		opt:  opt,
		mask: int64(opt.Window - 1),
		ring: make([]node, opt.Window),
	}
	for s := 0; s < pipeline.NumStructures; s++ {
		a.entries[s] = p.StructureEntries(pipeline.Structure(s))
	}
	a.segs[pipeline.IntFile] = make([]segment, a.entries[pipeline.StructReg])
	a.segs[pipeline.FPFile] = make([]segment, a.entries[pipeline.StructFPReg])
	a.tlbSegs[0] = make([]tlbSegment, a.entries[pipeline.StructDTLB])
	a.tlbSegs[1] = make([]tlbSegment, a.entries[pipeline.StructITLB])
	// The initially mapped architectural registers hold live values from
	// cycle 0 with an unknown (-1) producer.
	for f := 0; f < 2; f++ {
		for i := 0; i < 32 && i < len(a.segs[f]); i++ {
			a.segs[f][i] = segment{open: true, start: 0}
		}
	}
	return a, nil
}

// Hooks returns a pipeline.Hooks wired to this analyzer. Merge the fields
// into your own Hooks if other consumers also observe the pipeline.
func (a *Analyzer) Hooks() pipeline.Hooks {
	return pipeline.Hooks{
		OnRetire:    a.HandleRetire,
		OnRegWrite:  a.HandleRegWrite,
		OnRegRead:   a.HandleRegRead,
		OnTLBAccess: a.HandleTLBAccess,
	}
}

// --- ACE bitset -------------------------------------------------------

func (a *Analyzer) aceGet(seq int64) bool {
	if seq < 0 || seq>>6 >= int64(len(a.aceBits)) {
		return false
	}
	return a.aceBits[seq>>6]&(1<<(uint(seq)&63)) != 0
}

func (a *Analyzer) aceSet(seq int64) {
	idx := seq >> 6
	for int64(len(a.aceBits)) <= idx {
		a.aceBits = append(a.aceBits, 0)
	}
	a.aceBits[idx] |= 1 << (uint(seq) & 63)
}

// nodeAt returns the ring node for seq, or nil if it has been evicted.
func (a *Analyzer) nodeAt(seq int64) *node {
	n := &a.ring[seq&a.mask]
	if n.valid && n.seq == seq {
		return n
	}
	return nil
}

// markACE marks seq and its transitive producers ACE.
func (a *Analyzer) markACE(seq int64) {
	a.markStack = append(a.markStack[:0], seq)
	for len(a.markStack) > 0 {
		s := a.markStack[len(a.markStack)-1]
		a.markStack = a.markStack[:len(a.markStack)-1]
		if s < 0 || a.aceGet(s) {
			continue
		}
		a.aceSet(s)
		n := a.nodeAt(s)
		if n == nil {
			// Producer evicted before its consumer was marked: the
			// chain is truncated here.
			a.droppedMarks++
			continue
		}
		a.markStack = append(a.markStack, n.srcProducers[0], n.srcProducers[1])
	}
}

// --- interval accumulation --------------------------------------------

func ensureLen(xs []float64, n int) []float64 {
	for len(xs) < n {
		xs = append(xs, 0)
	}
	return xs
}

// addSpan adds the half-open cycle span [from, to) into per-interval
// buckets.
func (a *Analyzer) addSpan(acc []float64, from, to int64) []float64 {
	if to <= from {
		return acc
	}
	iv := a.opt.IntervalCycles
	first := from / iv
	last := (to - 1) / iv
	acc = ensureLen(acc, int(last)+1)
	if first == last {
		acc[first] += float64(to - from)
		return acc
	}
	acc[first] += float64((first+1)*iv - from)
	for i := first + 1; i < last; i++ {
		acc[i] += float64(iv)
	}
	acc[last] += float64(to - last*iv)
	return acc
}

// addPoint adds one event at the given cycle.
func (a *Analyzer) addPoint(acc []float64, cycle int64) []float64 {
	i := int(cycle / a.opt.IntervalCycles)
	acc = ensureLen(acc, i+1)
	acc[i]++
	return acc
}

// --- event handlers -----------------------------------------------------

// HandleRetire consumes a retirement event: it marks failure points ACE,
// inserts the node into the ring (finalizing the evicted one), and
// advances segment settlement.
func (a *Analyzer) HandleRetire(ev *pipeline.RetireEvent) {
	slot := ev.Seq & a.mask
	if old := &a.ring[slot]; old.valid {
		a.finalizeNode(old)
	}
	a.ring[slot] = node{
		seq:          ev.Seq,
		srcProducers: ev.SrcProducers,
		dispatch:     ev.DispatchCycle,
		issue:        ev.IssueCycle,
		execStart:    ev.ExecStart,
		queue:        ev.Queue,
		fu:           ev.FU,
		valid:        true,
	}
	if ev.Seq >= a.maxSeq {
		a.maxSeq = ev.Seq + 1
	}
	if ev.Class.IsFailurePoint() {
		// The node is in the ring now, so the marking walk reaches its
		// producers transitively.
		a.markACE(ev.Seq)
	}
	a.lastCycle = ev.RetireCycle
	a.settlePending()
}

// finalizeNode attributes a node's structure residency now that its ACE
// status has settled.
func (a *Analyzer) finalizeNode(n *node) {
	if !a.aceGet(n.seq) {
		return
	}
	if n.queue != pipeline.QNone && n.issue > n.dispatch {
		a.iqAceCycles = a.addSpan(a.iqAceCycles, n.dispatch, n.issue)
	}
	if int(n.fu) < pipeline.NumFUKinds && n.execStart >= 0 {
		a.fuAceStarts[n.fu] = a.addPoint(a.fuAceStarts[n.fu], n.execStart)
	}
}

// HandleRegWrite opens a new value segment, closing the previous value's
// exposure window (the old value stops being injectable once overwritten).
func (a *Analyzer) HandleRegWrite(file pipeline.RegFileID, phys int16, cycle, writerSeq int64) {
	seg := &a.segs[file][phys]
	if seg.open {
		a.closeSegment(file, seg, cycle)
	}
	seg.open = true
	seg.start = cycle
	seg.reads = a.getReadBuf()
}

// HandleRegRead records a read of the register's current value.
func (a *Analyzer) HandleRegRead(file pipeline.RegFileID, phys int16, cycle, readerSeq int64) {
	seg := &a.segs[file][phys]
	if !seg.open {
		// Reading initial machine state through a register we have not
		// seen written: open an implicit segment from cycle 0.
		seg.open = true
		seg.start = 0
		seg.reads = a.getReadBuf()
	}
	seg.reads = append(seg.reads, readRec{cycle: cycle, seq: readerSeq})
}

// readBufChunk is how many read buffers one slab allocation yields. The
// settlement queue keeps up to a Window's worth of closed segments (and
// their buffers) in flight, so refilling the pool one buffer at a time
// costs one allocation per segment; a slab cuts that by 64x.
const readBufChunk = 64

func (a *Analyzer) getReadBuf() []readRec {
	if n := len(a.readPool); n > 0 {
		b := a.readPool[n-1]
		a.readPool = a.readPool[:n-1]
		return b[:0]
	}
	// Carve a slab into full-capacity slices; appending past cap 4
	// reallocates that buffer independently, leaving its siblings alone.
	slab := make([]readRec, readBufChunk*4)
	for i := readBufChunk - 1; i > 0; i-- {
		a.readPool = append(a.readPool, slab[i*4:i*4:(i+1)*4])
	}
	return slab[0:0:4]
}

// closeSegment finalizes or queues a finished segment. A segment with no
// readers can never be ACE, so it is recycled immediately.
func (a *Analyzer) closeSegment(file pipeline.RegFileID, seg *segment, endCycle int64) {
	cs := closedSeg{
		file:      file,
		start:     seg.start,
		end:       endCycle,
		reads:     seg.reads,
		maxReader: -1,
	}
	seg.open = false
	seg.reads = nil
	for _, r := range cs.reads {
		if r.seq > cs.maxReader {
			cs.maxReader = r.seq
		}
	}
	if cs.maxReader < 0 {
		a.finalizeSegment(cs)
		return
	}
	a.pending = append(a.pending, cs)
}

// settlePending finalizes queued segments whose readers' ACE flags can no
// longer change (the readers have been evicted from the ring). Only the
// queue front is inspected: close order tracks reader order closely
// enough that a blocked front just delays later entries harmlessly.
func (a *Analyzer) settlePending() {
	frontier := a.maxSeq - int64(a.opt.Window)
	for a.pendingHead < len(a.pending) && a.pending[a.pendingHead].maxReader < frontier {
		a.finalizeSegment(a.pending[a.pendingHead])
		a.pending[a.pendingHead] = closedSeg{}
		a.pendingHead++
	}
	if a.pendingHead > 4096 && a.pendingHead*2 >= len(a.pending) {
		n := copy(a.pending, a.pending[a.pendingHead:])
		a.pending = a.pending[:n]
		a.pendingHead = 0
	}
}

// finalizeSegment attributes a value's ACE residency: from its write to
// its last ACE read.
func (a *Analyzer) finalizeSegment(cs closedSeg) {
	aceEnd := int64(-1)
	for _, r := range cs.reads {
		if r.cycle > aceEnd && a.aceGet(r.seq) {
			aceEnd = r.cycle
		}
	}
	if aceEnd >= cs.start {
		end := aceEnd + 1
		if end > cs.end {
			end = cs.end
		}
		a.regAceCycles[cs.file] = a.addSpan(a.regAceCycles[cs.file], cs.start, end)
	}
	a.readPool = append(a.readPool, cs.reads[:0])
}

// tlbIndex maps the two TLB structures onto the analyzer's arrays.
func tlbIndex(s pipeline.Structure) int {
	if s == pipeline.StructITLB {
		return 1
	}
	return 0
}

// HandleTLBAccess maintains the TLB-entry segments. Every access by a
// load, store, or fetch is itself on the failure path, so an injection
// anywhere before an entry's last hit causes a potential failure.
func (a *Analyzer) HandleTLBAccess(s pipeline.Structure, entry int, cycle int64, refill bool) {
	idx := tlbIndex(s)
	seg := &a.tlbSegs[idx][entry]
	if refill {
		if seg.open && seg.lastHit > seg.fill {
			a.tlbAceCycles[idx] = a.addSpan(a.tlbAceCycles[idx], seg.fill, seg.lastHit)
		}
		seg.open = true
		seg.fill = cycle
		seg.lastHit = cycle
		return
	}
	if !seg.open {
		// Defensive: a hit on an entry we never saw filled (cannot
		// happen with a cold-started TLB).
		seg.open = true
		seg.fill = cycle
	}
	seg.lastHit = cycle
}

// Flush finalizes everything; call once after the simulation ends, before
// reading the series.
func (a *Analyzer) Flush() {
	for i := range a.ring {
		if a.ring[i].valid {
			a.finalizeNode(&a.ring[i])
			a.ring[i].valid = false
		}
	}
	for f := 0; f < 2; f++ {
		for i := range a.segs[f] {
			if a.segs[f][i].open {
				// The value lives to the end of the run.
				a.closeSegment(pipeline.RegFileID(f), &a.segs[f][i], a.lastCycle+1)
			}
		}
	}
	// All flags are final now; settle unconditionally.
	for _, cs := range a.pending[a.pendingHead:] {
		a.finalizeSegment(cs)
	}
	a.pending = a.pending[:0]
	a.pendingHead = 0
	// Close TLB segments: exposure after an entry's last use is masked,
	// so the close uses the same fill-to-last-hit window.
	for idx := 0; idx < 2; idx++ {
		for i := range a.tlbSegs[idx] {
			seg := &a.tlbSegs[idx][i]
			if seg.open && seg.lastHit > seg.fill {
				a.tlbAceCycles[idx] = a.addSpan(a.tlbAceCycles[idx], seg.fill, seg.lastHit)
			}
			seg.open = false
		}
	}
}

// AVFSeries returns the per-interval reference AVF for structure s over
// the first `intervals` complete intervals.
func (a *Analyzer) AVFSeries(s pipeline.Structure, intervals int) []float64 {
	var acc []float64
	switch s {
	case pipeline.StructIQ:
		acc = a.iqAceCycles
	case pipeline.StructReg:
		acc = a.regAceCycles[pipeline.IntFile]
	case pipeline.StructFPReg:
		acc = a.regAceCycles[pipeline.FPFile]
	case pipeline.StructFXU:
		acc = a.fuAceStarts[pipeline.FUInt]
	case pipeline.StructFPU:
		acc = a.fuAceStarts[pipeline.FUFP]
	case pipeline.StructLSU:
		acc = a.fuAceStarts[pipeline.FULS]
	case pipeline.StructDTLB:
		acc = a.tlbAceCycles[0]
	case pipeline.StructITLB:
		acc = a.tlbAceCycles[1]
	default:
		return nil
	}
	denom := float64(a.entries[s]) * float64(a.opt.IntervalCycles)
	out := make([]float64, intervals)
	for i := 0; i < intervals; i++ {
		if i < len(acc) {
			out[i] = acc[i] / denom
		}
	}
	return out
}

// DroppedMarks reports how many ACE markings arrived after their target
// node was evicted (chain truncation); nonzero values indicate the Window
// is too small.
func (a *Analyzer) DroppedMarks() int64 { return a.droppedMarks }
