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
// (ACE flags are kept for the whole run in a bitset). A node's issue-queue
// residency and unit start are attributed the moment marking sets its ACE
// flag while it is in the ring; a mark that arrives after the node was
// evicted truncates the chain and counts in DroppedMarks. Only register
// values wait: a closed value is attributed once every reader has left
// the ring, when no reader's flag can change any more.
//
// An analyzer's memory outlives its run: Reset readies it for the next
// run and keeps the ring, the bitset, the accumulators and the queued
// reads' storage, so a caller that reuses one analyzer allocates nothing
// per run once they have grown.
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

// node is the retained state of one retired instruction. run is the
// Reset generation that wrote it, so a slot an earlier run filled holds
// no node of this one.
type node struct {
	seq          int64
	srcProducers [2]int64
	dispatch     int64
	issue        int64
	execStart    int64
	queue        pipeline.QueueID
	fu           pipeline.FUKind
	run          uint32
}

// readRec is one register read: when and by whom.
type readRec struct {
	cycle int64
	seq   int64
}

// segment is one value's residency in a physical register: from its write
// until the next write to the same register. reads is the register's
// buffer, reused by each value it holds.
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

// closedSeg is a finished segment awaiting reader-flag settlement. Its
// n reads sit in the read arena from position off.
type closedSeg struct {
	file       pipeline.RegFileID
	start, end int64
	off        int64
	n          int
	maxReader  int64
}

// segChunkLen is how many closed segments a settlement-queue chunk holds.
const segChunkLen = 1024

type segChunk struct {
	segs [segChunkLen]closedSeg
	next *segChunk
}

// segQueue is the settlement FIFO: a cycle of fixed-size chunks, each
// refilled when the tail comes round to it after the head has left, so the
// queue grows only to its high-water mark and never copies an entry.
type segQueue struct {
	head, tail *segChunk
	hi, ti     int // next entry to pop in head, next free slot in tail
}

// push appends cs at the tail.
func (q *segQueue) push(cs closedSeg) {
	switch {
	case q.tail == nil:
		q.tail = new(segChunk)
		q.tail.next, q.head = q.tail, q.tail
	case q.ti == segChunkLen:
		if q.tail.next == q.head { // no free chunk: add one
			q.tail.next = &segChunk{next: q.head}
		}
		q.tail, q.ti = q.tail.next, 0
	}
	q.tail.segs[q.ti] = cs
	q.ti++
}

// front returns the oldest entry, or nil when the queue is empty.
func (q *segQueue) front() *closedSeg {
	if q.head == q.tail && q.hi == q.ti {
		return nil
	}
	return &q.head.segs[q.hi]
}

// pop removes the front entry; the queue must not be empty.
func (q *segQueue) pop() {
	q.hi++
	switch {
	case q.head == q.tail && q.hi == q.ti:
		q.hi, q.ti = 0, 0 // empty: refill this chunk from its start
	case q.hi == segChunkLen:
		q.head, q.hi = q.head.next, 0
	}
}

// reset empties the queue, keeping its chunks.
func (q *segQueue) reset() { q.head, q.hi, q.ti = q.tail, 0, 0 }

// readArena holds the reads of the segments awaiting settlement, in the
// order they closed, which is the order the settlement queue releases
// them: a ring of records that grows to its high-water mark. Positions
// count records pushed since the run began; position i lives at
// i & (len(buf)-1).
type readArena struct {
	buf        []readRec
	head, tail int64 // oldest live position, next free position
}

// push copies rs in and returns the position of its first record.
func (r *readArena) push(rs []readRec) int64 {
	if need := int(r.tail-r.head) + len(rs); need > len(r.buf) {
		r.grow(need)
	}
	off := r.tail
	n := copy(r.buf[off&int64(len(r.buf)-1):], rs)
	copy(r.buf, rs[n:])
	r.tail += int64(len(rs))
	return off
}

// grow moves the live records into a ring of at least need records.
func (r *readArena) grow(need int) {
	size := max(2*len(r.buf), 1024)
	for size < need {
		size <<= 1
	}
	buf := make([]readRec, size)
	for i := r.head; i < r.tail; i++ {
		buf[i&int64(size-1)] = r.buf[i&int64(len(r.buf)-1)]
	}
	r.buf = buf
}

// span returns the n records from position off, in one or two slices.
func (r *readArena) span(off int64, n int) (lo, hi []readRec) {
	i := int(off & int64(len(r.buf)-1))
	if i+n <= len(r.buf) {
		return r.buf[i : i+n], nil
	}
	return r.buf[i:], r.buf[:i+n-len(r.buf)]
}

// free releases the n oldest records.
func (r *readArena) free(n int) { r.head += int64(n) }

// Analyzer consumes pipeline events and produces per-interval reference
// AVFs.
type Analyzer struct {
	opt  Options
	mask int64

	ring    []node
	run     uint32   // stamp of this run's nodes; never 0
	aceBits []uint64 // one bit per dynamic instruction, kept for the run
	maxSeq  int64    // highest seq retired + 1

	droppedMarks int64
	markStack    []int64
	events       int64 // handler calls consumed

	// Per-interval accumulators (grown on demand).
	iqAceCycles  []float64
	regAceCycles [2][]float64 // by RegFileID
	fuAceStarts  [pipeline.NumFUKinds][]float64
	tlbAceCycles [2][]float64 // 0 = dTLB, 1 = iTLB

	// TLB entry segments: a corrupted translation causes failure iff the
	// entry is used again before being refilled, so a value's ACE window
	// runs from its fill to its last hit.
	tlbSegs [2][]tlbSegment

	// Register segment tracking. pending is a FIFO: segments settle in
	// roughly the order they close, so settlement only ever inspects the
	// front, and their reads leave the arena in that order too.
	segs      [2][]segment // by RegFileID, per physical register
	pending   segQueue
	reads     readArena
	lastCycle int64

	// Structure geometry for normalization.
	entries [pipeline.NumStructures]int
}

// NewAnalyzer builds an analyzer for p's geometry.
func NewAnalyzer(p *pipeline.Pipeline, opt Options) (*Analyzer, error) {
	a := new(Analyzer)
	if err := a.Reset(p, opt); err != nil {
		return nil, err
	}
	return a, nil
}

// Reset readies a for a new run on p's geometry, as NewAnalyzer builds
// one, whether or not its last run was flushed. It keeps the memory
// earlier runs grew: the node ring while the window is unchanged, the
// register read buffers while the geometry is, the ACE bitset, the
// accumulators, the settlement queue and the read arena. On error a is
// unchanged.
func (a *Analyzer) Reset(p *pipeline.Pipeline, opt Options) error {
	if err := opt.validate(); err != nil {
		return err
	}
	a.opt, a.mask = opt, int64(opt.Window-1)
	if len(a.ring) != opt.Window {
		a.ring = make([]node, opt.Window)
	}
	a.run++
	if a.run == 0 { // the stamp wrapped: an old node could pass for new
		clear(a.ring)
		a.run = 1
	}
	a.aceBits = a.aceBits[:0]
	a.maxSeq, a.droppedMarks, a.events, a.lastCycle = 0, 0, 0, 0
	a.iqAceCycles = a.iqAceCycles[:0]
	for i := range a.regAceCycles {
		a.regAceCycles[i] = a.regAceCycles[i][:0]
		a.tlbAceCycles[i] = a.tlbAceCycles[i][:0]
	}
	for k := range a.fuAceStarts {
		a.fuAceStarts[k] = a.fuAceStarts[k][:0]
	}
	for s := 0; s < pipeline.NumStructures; s++ {
		a.entries[s] = p.StructureEntries(pipeline.Structure(s))
	}
	a.tlbSegs[0] = sized(a.tlbSegs[0], a.entries[pipeline.StructDTLB])
	a.tlbSegs[1] = sized(a.tlbSegs[1], a.entries[pipeline.StructITLB])
	clear(a.tlbSegs[0])
	clear(a.tlbSegs[1])
	a.segs[pipeline.IntFile] = sized(a.segs[pipeline.IntFile], a.entries[pipeline.StructReg])
	a.segs[pipeline.FPFile] = sized(a.segs[pipeline.FPFile], a.entries[pipeline.StructFPReg])
	for f := range a.segs {
		for i := range a.segs[f] {
			// The initially mapped architectural registers hold live
			// values from cycle 0 with an unknown (-1) producer.
			a.segs[f][i] = segment{open: i < 32, reads: a.segs[f][i].reads[:0]}
		}
	}
	a.pending.reset()
	a.reads.head, a.reads.tail = 0, 0
	return nil
}

// sized returns xs if it has length n, else a new slice of length n.
func sized[T any](xs []T, n int) []T {
	if len(xs) != n {
		return make([]T, n)
	}
	return xs
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
	if n.run == a.run && n.seq == seq {
		return n
	}
	return nil
}

// markACE marks seq and its transitive producers ACE, attributing each
// newly marked node it finds in the ring. A node counts exactly when its
// flag is set while it is in the ring; a mark that finds it evicted is
// dropped. Every accumulator sums integer counts, so the order in which
// nodes are attributed cannot change a bit of the sums.
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
		a.attribute(n)
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

// HandleRetire consumes a retirement event: it inserts the node into the
// ring (evicting the oldest), marks failure points ACE, and advances
// segment settlement.
func (a *Analyzer) HandleRetire(ev *pipeline.RetireEvent) {
	a.events++
	a.ring[ev.Seq&a.mask] = node{
		seq:          ev.Seq,
		srcProducers: ev.SrcProducers,
		dispatch:     ev.DispatchCycle,
		issue:        ev.IssueCycle,
		execStart:    ev.ExecStart,
		queue:        ev.Queue,
		fu:           ev.FU,
		run:          a.run,
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

// attribute adds an ACE node's issue-queue residency and unit start.
func (a *Analyzer) attribute(n *node) {
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
	a.events++
	seg := &a.segs[file][phys]
	if seg.open {
		a.closeSegment(file, seg, cycle)
	}
	seg.open = true
	seg.start = cycle
}

// HandleRegRead records a read of the register's current value.
func (a *Analyzer) HandleRegRead(file pipeline.RegFileID, phys int16, cycle, readerSeq int64) {
	a.events++
	seg := &a.segs[file][phys]
	if !seg.open {
		// Reading initial machine state through a register we have not
		// seen written: open an implicit segment from cycle 0.
		seg.open = true
		seg.start = 0
	}
	seg.reads = append(seg.reads, readRec{cycle: cycle, seq: readerSeq})
}

// closeSegment queues a finished segment for settlement, moving its reads
// into the arena and emptying the register's buffer for the next value.
// A segment with no readers can never be ACE, so it is dropped.
func (a *Analyzer) closeSegment(file pipeline.RegFileID, seg *segment, endCycle int64) {
	seg.open = false
	maxReader := int64(-1)
	for _, r := range seg.reads {
		maxReader = max(maxReader, r.seq)
	}
	if maxReader >= 0 {
		a.pending.push(closedSeg{
			file:      file,
			start:     seg.start,
			end:       endCycle,
			off:       a.reads.push(seg.reads),
			n:         len(seg.reads),
			maxReader: maxReader,
		})
	}
	seg.reads = seg.reads[:0]
}

// settlePending finalizes queued segments whose readers' ACE flags can no
// longer change (the readers have been evicted from the ring). Only the
// queue front is inspected: close order tracks reader order closely
// enough that a blocked front just delays later entries harmlessly.
func (a *Analyzer) settlePending() {
	frontier := a.maxSeq - int64(a.opt.Window)
	for cs := a.pending.front(); cs != nil && cs.maxReader < frontier; cs = a.pending.front() {
		a.finalizeSegment(cs)
		a.pending.pop()
	}
}

// finalizeSegment attributes a value's ACE residency, from its write to
// its last ACE read, and frees its reads.
func (a *Analyzer) finalizeSegment(cs *closedSeg) {
	lo, hi := a.reads.span(cs.off, cs.n)
	aceEnd := max(a.lastACERead(lo), a.lastACERead(hi))
	a.reads.free(cs.n)
	if aceEnd >= cs.start {
		end := aceEnd + 1
		if end > cs.end {
			end = cs.end
		}
		a.regAceCycles[cs.file] = a.addSpan(a.regAceCycles[cs.file], cs.start, end)
	}
}

// lastACERead returns the latest cycle at which an ACE instruction made
// one of reads, or -1.
func (a *Analyzer) lastACERead(reads []readRec) int64 {
	end := int64(-1)
	for _, r := range reads {
		if r.cycle > end && a.aceGet(r.seq) {
			end = r.cycle
		}
	}
	return end
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
	a.events++
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
// reading the series. Nodes need nothing: they were attributed when
// marked.
func (a *Analyzer) Flush() {
	for f := 0; f < 2; f++ {
		for i := range a.segs[f] {
			if a.segs[f][i].open {
				// The value lives to the end of the run.
				a.closeSegment(pipeline.RegFileID(f), &a.segs[f][i], a.lastCycle+1)
			}
		}
	}
	// All flags are final now; settle unconditionally.
	for cs := a.pending.front(); cs != nil; cs = a.pending.front() {
		a.finalizeSegment(cs)
		a.pending.pop()
	}
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

// Events reports how many events the handlers have consumed: retirements,
// register writes and reads, and TLB accesses.
func (a *Analyzer) Events() int64 { return a.events }
