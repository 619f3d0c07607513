package core

import (
	"math"
	"math/bits"

	"avfsim/internal/isa"
	"avfsim/internal/obs"
	"avfsim/internal/pipeline"
)

// This file is the estimator's one engine: a table of lanes, each an
// Algorithm 1 experiment on its own error bit. Error propagation is
// purely bitwise — OR on read, overwrite on write, AND-NOT on clear — so
// lanes never interact, and the paper's one-bit-per-structure model and
// the multi-lane engine are just different bindings of bits to
// structures. The lane-aware bookkeeping sits in exactly two places:
// retire-time failure attribution (HandleFailureMask resolves each set
// bit to its lane through byBit) and the injection boundary (boundary
// concludes every due lane, charging its structure's counters, with ONE
// fused population scan and ONE fused clear scan however many lanes
// conclude).
//
// Three policies, all derived from Options, tell the modes apart:
//   - binding: with Lanes <= 1, lane k monitors Structures[k] on the
//     structure's own plane bit, the layout that Stats.Failures, the
//     flight masks and the sink's Lane -1 describe; with Lanes > 1, lane
//     i monitors Structures[i % len(Structures)] on bit i;
//   - injection: a concluded lane reinjects itself, so every lane stays
//     live; under Multiplex it passes the turn to the next lane instead,
//     so one error is live machine-wide;
//   - gap: under RandomSchedule, Lanes <= 1 draws one gap per boundary,
//     after that boundary's entry draws, which keeps the paper's lanes
//     in lockstep; Lanes > 1 draws each lane's gap right after its entry
//     draw, which keeps a 64-lane machine from emptying and refilling in
//     lockstep. Under the fixed schedule every window is M cycles.
//
// Together they fix each mode's schedule and RNG draw order, which
// TestEngineDigests pins for every mode.

// laneState is one lane's live experiment.
type laneState struct {
	st         *structState // monitored structure
	bit        int          // error bit the lane's injections set
	entry      int          // entry/unit index of the live injection
	injectedAt int64        // cycle of the live injection, -1 if none
	nextAt     int64        // cycle the lane is due (concludes, then injects)
	failed     bool         // live injection already reached a failure point

	// Failure details for the lifecycle record (valid while failed).
	failCycle int64
	failSeq   int64
	failClass isa.Class
}

// initLanes builds the lane table under the binding policy. Every lane
// starts due and not live, so the first Tick injects all of them; under
// Multiplex only the last lane starts due, and passes the first turn to
// lane 0.
func (e *Estimator) initLanes() {
	k := len(e.opt.Structures)
	e.lanes = make([]laneState, max(e.opt.Lanes, k))
	e.idle.injectedAt = -1
	for i := range e.byBit {
		e.byBit[i] = &e.idle
	}
	for i := range e.lanes {
		ln := &e.lanes[i]
		ln.st = e.states[e.opt.Structures[i%k]]
		ln.bit = i
		if e.opt.Lanes <= 1 {
			ln.bit = int(ln.st.s)
		}
		ln.injectedAt = -1
		ln.nextAt = e.p.Cycle()
		if e.opt.Multiplex && i < len(e.lanes)-1 {
			ln.nextAt = math.MaxInt64
		}
		e.byBit[ln.bit] = ln
	}
	e.nextEvent = e.p.Cycle()
}

// HandleFailureMask is the pipeline.Hooks.OnFailureMask sink: a
// failure-point instruction retired carrying the given error bits. Each
// set bit is one lane's experiment, charged to the structure the lane
// monitors.
func (e *Estimator) HandleFailureMask(mask pipeline.ErrMask, seq, cycle int64, class isa.Class) {
	for m := uint64(mask); m != 0; m &= m - 1 {
		ln := e.byBit[bits.TrailingZeros64(m)]
		if ln.injectedAt < 0 || ln.failed {
			continue
		}
		ln.failed = true
		ln.failCycle, ln.failSeq, ln.failClass = cycle, seq, class
		if e.opt.RecordLatency {
			ln.st.latencies.Add(cycle - ln.injectedAt)
		}
	}
}

// boundary is Algorithm 1's injection boundary at cycle: conclude every
// due lane's experiment, wipe the concluded bits, and inject the next
// experiments under the injection and gap policies.
func (e *Estimator) boundary(cycle int64) {
	// Gather the due lanes, then sample their populations in one fused
	// scan (only sink records and flight clear delimiters need them).
	var due pipeline.ErrMask
	for i := range e.lanes {
		if ln := &e.lanes[i]; ln.nextAt <= cycle && ln.injectedAt >= 0 {
			due |= pipeline.LaneBit(ln.bit)
		}
	}
	recOn := e.p.RecorderAttached()
	if due != 0 && (e.opt.Sink != nil || recOn) {
		e.p.PlanePopulations(due, &e.pops)
	}

	// Conclude in lane order, then ONE fused clear scan.
	for i := range e.lanes {
		if ln := &e.lanes[i]; ln.nextAt <= cycle && ln.injectedAt >= 0 {
			e.conclude(ln, cycle)
			if recOn {
				e.p.EmitLaneClear(ln.st.s, ln.bit, e.pops[ln.bit])
			}
		}
	}
	e.p.ClearPlanes(due)

	// Inject after the wipe, so fresh bits survive it.
	perLaneGap := e.opt.Lanes > 1
	for i := range e.lanes {
		ln := &e.lanes[i]
		if ln.nextAt > cycle {
			continue
		}
		if e.opt.Multiplex {
			ln.nextAt = math.MaxInt64
			ln = &e.lanes[(i+1)%len(e.lanes)]
		}
		e.inject(ln, cycle)
		if perLaneGap {
			ln.nextAt = cycle + e.gap()
		}
	}
	var shared int64
	if !perLaneGap {
		shared = cycle + e.gap()
	}
	e.nextEvent = math.MaxInt64
	for i := range e.lanes {
		ln := &e.lanes[i]
		if !perLaneGap && ln.injectedAt == cycle {
			ln.nextAt = shared
		}
		e.nextEvent = min(e.nextEvent, ln.nextAt)
	}
	if e.opt.OnConcludeScan != nil {
		e.opt.OnConcludeScan(cycle)
	}
}

// conclude finishes ln's live experiment: charge its structure's
// Algorithm 1 counters, emit the lifecycle record, and emit the
// structure's estimate once N injections have concluded. The record's
// outcome is failure if a failure point retired with the bit, otherwise
// masked (no bits left — execution discarded the error) or pending (bits
// still live at M-expiry, the Section 4 undercount).
func (e *Estimator) conclude(ln *laneState, cycle int64) {
	st := ln.st
	st.injections++
	e.concluded++
	if ln.failed {
		st.failures++
	}
	if e.opt.Sink != nil {
		rec := obs.Injection{
			Structure:     st.s,
			Entry:         ln.entry,
			Interval:      st.intervalIdx,
			InjectCycle:   ln.injectedAt,
			ConcludeCycle: cycle,
			ErrBits:       e.pops[ln.bit],
			Lane:          -1,
		}
		if e.opt.Lanes > 1 {
			rec.Lane = ln.bit
		}
		switch {
		case ln.failed:
			rec.Outcome = obs.OutcomeFailure
			rec.Latency = ln.failCycle - ln.injectedAt
			rec.FailSeq = ln.failSeq
			rec.FailClass = ln.failClass
		case rec.ErrBits > 0:
			rec.Outcome = obs.OutcomePending
		default:
			rec.Outcome = obs.OutcomeMasked
		}
		e.opt.Sink.RecordInjection(rec)
	}
	ln.injectedAt = -1
	ln.failed = false

	if st.injections >= e.opt.N {
		est := Estimate{
			Structure:  st.s,
			Interval:   st.intervalIdx,
			StartCycle: st.startCycle,
			EndCycle:   cycle,
			AVF:        float64(st.failures) / float64(st.injections),
			Failures:   st.failures,
			Injections: st.injections,
		}
		st.estimates = append(st.estimates, est)
		st.intervalIdx++
		st.injections = 0
		st.failures = 0
		st.startCycle = cycle
		if e.opt.OnInterval != nil {
			e.opt.OnInterval(est)
		}
	}
}

// inject starts ln's next experiment: pick the entry through the
// structure's shared round-robin cursor (or at random) and set the lane's
// bit there — entries for storage structures, units for logic ones.
func (e *Estimator) inject(ln *laneState, cycle int64) {
	st := ln.st
	var idx int
	if e.opt.RandomEntry {
		idx = int(e.rand() % uint64(st.entries))
	} else {
		idx = st.nextEntry
		st.nextEntry++
		if st.nextEntry == st.entries {
			st.nextEntry = 0
		}
	}
	e.p.InjectLane(st.s, idx, ln.bit)
	ln.entry = idx
	ln.injectedAt = cycle
}

// gap draws the cycles until an injection concludes: M, or under
// RandomSchedule uniform in [1, 2M) with mean M.
func (e *Estimator) gap() int64 {
	if e.opt.RandomSchedule {
		return 1 + int64(e.rand()%uint64(2*e.opt.M))
	}
	return e.opt.M
}
