package softarch

import (
	"avfsim/internal/handoff"
	"avfsim/internal/isa"
	"avfsim/internal/pipeline"
)

// evKind tells which handler an event is for.
type evKind uint8

const (
	evRetire evKind = iota
	evRegWrite
	evRegRead
	evTLBHit
	evTLBRefill
)

// event is one recorded hook call, holding only what its handler reads.
// Register events use file, phys, cycle and seq; TLB events use tlb, cycle
// and seq, which carries the entry; retirements use the rest, with cycle
// the retire cycle.
type event struct {
	kind                       evKind
	class                      isa.Class
	queue                      pipeline.QueueID
	fu                         pipeline.FUKind
	file                       pipeline.RegFileID
	tlb                        pipeline.Structure
	phys                       int16
	seq, cycle                 int64
	dispatch, issue, execStart int64
	src                        [2]int64
}

// Feeder runs an Analyzer on a goroutine of its own. Its hooks record the
// pipeline's events, and the goroutine replays them, in order, into the
// analyzer's handlers, which therefore see exactly the sequence Hooks
// would deliver. The analyzer must not be touched until Wait returns.
type Feeder struct {
	q *handoff.Queue[event]
}

// NewFeeder starts the goroutine that replays recorded events into a.
// Wait finishes the analysis and Stop abandons it; either joins the
// goroutine and raises a handler's panic on the caller.
func NewFeeder(a *Analyzer) *Feeder {
	return &Feeder{handoff.Consume(func(q *handoff.Queue[event]) { replay(a, q) })}
}

// replay delivers the recorded events to a's handlers in order.
func replay(a *Analyzer, q *handoff.Queue[event]) {
	var ev pipeline.RetireEvent // HandleRetire reads only the fields set here
	for e := q.Next(); e != nil; e = q.Next() {
		switch e.kind {
		case evRetire:
			ev.Seq, ev.Class, ev.Queue, ev.FU = e.seq, e.class, e.queue, e.fu
			ev.DispatchCycle, ev.IssueCycle, ev.ExecStart = e.dispatch, e.issue, e.execStart
			ev.RetireCycle, ev.SrcProducers = e.cycle, e.src
			a.HandleRetire(&ev)
		case evRegWrite:
			a.HandleRegWrite(e.file, e.phys, e.cycle, e.seq)
		case evRegRead:
			a.HandleRegRead(e.file, e.phys, e.cycle, e.seq)
		default:
			a.HandleTLBAccess(e.tlb, int(e.seq), e.cycle, e.kind == evTLBRefill)
		}
	}
}

// Hooks returns the four hooks Analyzer.Hooks sets, recording events for
// the analyzer instead. They allocate nothing.
func (f *Feeder) Hooks() pipeline.Hooks {
	return pipeline.Hooks{OnRetire: f.retire, OnRegWrite: f.regWrite, OnRegRead: f.regRead, OnTLBAccess: f.tlbAccess}
}

func (f *Feeder) retire(ev *pipeline.RetireEvent) {
	e := f.q.Slot()
	e.kind, e.class, e.queue, e.fu = evRetire, ev.Class, ev.Queue, ev.FU
	e.seq, e.cycle = ev.Seq, ev.RetireCycle
	e.dispatch, e.issue, e.execStart = ev.DispatchCycle, ev.IssueCycle, ev.ExecStart
	e.src = ev.SrcProducers
}

func (f *Feeder) regWrite(file pipeline.RegFileID, phys int16, cycle, writerSeq int64) {
	e := f.q.Slot()
	e.kind, e.file, e.phys, e.cycle, e.seq = evRegWrite, file, phys, cycle, writerSeq
}

func (f *Feeder) regRead(file pipeline.RegFileID, phys int16, cycle, readerSeq int64) {
	e := f.q.Slot()
	e.kind, e.file, e.phys, e.cycle, e.seq = evRegRead, file, phys, cycle, readerSeq
}

func (f *Feeder) tlbAccess(s pipeline.Structure, entry int, cycle int64, refill bool) {
	e := f.q.Slot()
	e.kind = evTLBHit
	if refill {
		e.kind = evTLBRefill
	}
	e.tlb, e.seq, e.cycle = s, int64(entry), cycle
}

// Wait hands over the events recorded so far and returns once the
// analyzer has consumed them all; then it may be read and flushed.
func (f *Feeder) Wait() { f.q.Close() }

// Stop abandons the analysis and returns once the goroutine has exited.
// It does nothing after Wait.
func (f *Feeder) Stop() { f.q.Stop() }
