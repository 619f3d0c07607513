package pipeline

import (
	"fmt"

	"avfsim/internal/isa"
)

// This file is the pipeline side of the flight recorder
// (internal/flight): a stream of cycle-resolved error-bit events that
// captures *how* an injected error propagates — every copy, overwrite,
// mask, and failure-point retirement — instead of only the injection's
// final outcome. Emission is gated on a single bool (recOn), so the
// recorder-off hot path pays one branch per site and stays allocation
// free; with a recorder attached the events are emitted synchronously
// from Step and must therefore be recorded cheaply (the flight package
// appends into a preallocated ring).
//
// Every emission site is read-only with respect to simulation state:
// attaching a recorder never changes simulated behavior, which is what
// keeps the experiment golden digests byte-identical.

// ErrEventKind classifies one error-bit event.
type ErrEventKind uint8

// Error-bit event kinds, in rough lifecycle order.
const (
	// EvInject: Inject set a storage entry's bit or armed a logic unit.
	EvInject ErrEventKind = iota
	// EvReadCopy: an operand read ORed a register's error bits into the
	// consuming instruction (the paper's read-propagation rule).
	EvReadCopy
	// EvWriteCopy: writeback stored an instruction's error bits into its
	// destination physical register.
	EvWriteCopy
	// EvRegOverwrite: a register carrying error bits was overwritten or
	// released — the bits are destroyed (overwrite masking).
	EvRegOverwrite
	// EvTLBCopy: a corrupted TLB translation propagated its bits into an
	// access (dTLB: into the load/store; iTLB: into the fetch line).
	EvTLBCopy
	// EvTLBRefill: a TLB entry carrying bits was refilled — the new
	// translation overwrites the error.
	EvTLBRefill
	// EvFetchCopy: a corrupted fetch line propagated its bits into a
	// fetched instruction.
	EvFetchCopy
	// EvLogicLand: an armed logic injection corrupted the operation
	// starting on the chosen unit.
	EvLogicLand
	// EvLogicMask: an armed logic injection expired unconsumed — the
	// unit stayed idle for the armed cycle (idle-unit masking).
	EvLogicMask
	// EvRetireFail: a failure-point instruction (load/store/branch)
	// retired carrying error bits — the potential failure Algorithm 1
	// counts.
	EvRetireFail
	// EvRetireDrop: a non-failure-point instruction retired carrying
	// bits; its in-flight copy of the error dies with it (any register
	// copy written at writeback lives on).
	EvRetireDrop
	// EvClearPlane: the estimator concluded the injection and wiped the
	// plane; Pop carries the live-bit population just before the wipe.
	EvClearPlane

	// NumErrEventKinds is the number of event kinds.
	NumErrEventKinds = int(EvClearPlane) + 1
)

var errEventNames = [NumErrEventKinds]string{
	"inject", "read-copy", "write-copy", "reg-overwrite",
	"tlb-copy", "tlb-refill", "fetch-copy",
	"logic-land", "logic-mask",
	"retire-fail", "retire-drop", "clear-plane",
}

// String returns the short kebab-case name used on the wire.
func (k ErrEventKind) String() string {
	if int(k) < NumErrEventKinds {
		return errEventNames[k]
	}
	return fmt.Sprintf("errevent(%d)", uint8(k))
}

// StructNone marks events not tied to a single monitored structure
// (read/write/fetch copies carry the full plane set in Mask instead).
const StructNone Structure = 255

// ErrEvent is one cycle-resolved error-bit event. It is a plain value —
// no pointers — so recording it is a struct copy. Fields not meaningful
// for a kind hold their sentinel (-1 for indexes and seqs, StructNone
// for Structure).
type ErrEvent struct {
	// Kind classifies the event; Cycle stamps it.
	Kind  ErrEventKind
	Cycle int64
	// Mask holds the planes whose bits the event involves. For grouping,
	// an event belongs to the propagation trace of every set plane.
	Mask ErrMask
	// Structure and Entry locate inject/logic/TLB/clear events
	// (entry index, unit index, or TLB entry; Pop for clear events).
	Structure Structure
	Entry     int
	// Seq is the dynamic instruction involved (-1 if none); SrcSeq the
	// producing instruction for read copies (-1 = initial state).
	Seq    int64
	SrcSeq int64
	// File and Phys locate register events (Phys -1 if n/a).
	File RegFileID
	Phys int16
	// Class is the retiring instruction's class (retire events).
	Class isa.Class
	// Pop is the plane's live-bit population just before a clear-plane
	// wipe — what distinguishes masked (0) from pending (>0) outcomes.
	Pop int
}

// ErrRecorder receives error-bit events. RecordErrEvent is called
// synchronously from Step; implementations must be cheap and must not
// call back into the pipeline's mutating methods.
type ErrRecorder interface {
	RecordErrEvent(ev ErrEvent)
}

// SetRecorder attaches (or, with nil, detaches) a flight recorder.
// Recording is observation only — simulated behavior is identical with
// and without a recorder.
func (p *Pipeline) SetRecorder(r ErrRecorder) {
	p.rec = r
	p.recOn = r != nil
}

// RecorderAttached reports whether a flight recorder is attached — the
// estimator checks it before computing per-lane populations that only
// feed clear-event emission.
func (p *Pipeline) RecorderAttached() bool { return p.recOn }

// EmitLaneClear emits the clear-plane delimiter for one lane about to be
// wiped by ClearPlanes: s is the structure the lane's experiment was
// injected into (the lane table's attribution, which the bit index no
// longer encodes) and pop the lane's pre-wipe population. No-op without a
// recorder.
func (p *Pipeline) EmitLaneClear(s Structure, lane, pop int) {
	if !p.recOn {
		return
	}
	ev := p.baseEv(EvClearPlane, LaneBit(lane))
	ev.Structure = s
	ev.Pop = pop
	p.emitEv(ev)
}

// emitEv forwards one event to the attached recorder. Callers must
// check p.recOn first (keeps the argument construction off the
// recorder-off path).
func (p *Pipeline) emitEv(ev ErrEvent) { p.rec.RecordErrEvent(ev) }

// baseEv fills the sentinel fields so call sites only set what their
// kind means.
func (p *Pipeline) baseEv(kind ErrEventKind, mask ErrMask) ErrEvent {
	return ErrEvent{
		Kind: kind, Cycle: p.cycle, Mask: mask,
		Structure: StructNone, Entry: -1, Seq: -1, SrcSeq: -1, Phys: -1,
	}
}
