package core

import (
	"math"
	"math/bits"

	"avfsim/internal/isa"
	"avfsim/internal/obs"
	"avfsim/internal/pipeline"
)

// This file is the multi-lane injection engine (Options.Lanes > 1): up to
// pipeline.MaxLanes independent Algorithm 1 experiments ride the same
// cycle loop concurrently, one error-bit lane each. Error propagation is
// purely bitwise — OR on read, overwrite on write, AND-NOT on clear — so
// the lanes never interact; the only lane-aware bookkeeping is here, in
// exactly two places: retire-time failure attribution (HandleFailureMask
// resolves a retired mask's set bits back to experiments through the lane
// table) and conclusion (tickLanes expires due lanes, charging each its
// structure's counters, with ONE fused population scan and ONE fused
// clear scan per conclusion cycle however many lanes conclude).
//
// Each lane belongs to a fixed per-structure pool (lane i monitors
// Structures[i % len(Structures)]) and reinjects the moment it concludes,
// so lane occupancy stays full for the whole run. Under the fixed
// schedule every lane's window is exactly M cycles — the same window the
// classic estimator uses — so per-injection statistics are identical and
// only the wall-clock per estimate shrinks. Under RandomSchedule each
// lane draws its own gap from [1, 2M) per injection (the classic
// estimator draws one global gap for all structures; per-lane draws are
// what keeps a 64-lane machine from emptying and refilling in lockstep).
// That schedule difference is lanes>1-only by construction: Lanes <= 1
// never reaches this file, keeping the classic path byte-identical.

// laneState is one lane's live experiment.
type laneState struct {
	st         *structState // owning structure's pool
	entry      int          // entry/unit index of the live injection
	injectedAt int64        // cycle of the live injection, -1 if none
	nextAt     int64        // cycle the lane concludes (then reinjects)
	failed     bool         // live injection already reached a failure point

	// Failure details for the lifecycle record (valid while failed,
	// written only when a Sink is attached).
	failCycle int64
	failSeq   int64
	failClass isa.Class
}

// initLanes builds the lane table: lane i joins structure
// Structures[i % len(Structures)]'s pool. Every lane is due immediately
// (first Tick injects all of them).
func (e *Estimator) initLanes() {
	e.laneMode = true
	e.lanes = make([]laneState, e.opt.Lanes)
	for i := range e.lanes {
		e.lanes[i] = laneState{
			st:         e.states[e.opt.Structures[i%len(e.opt.Structures)]],
			injectedAt: -1,
			nextAt:     e.p.Cycle(),
		}
	}
	e.nextEvent = e.p.Cycle()
}

// HandleFailureMask is the pipeline.Hooks.OnFailureMask sink: a
// failure-point instruction retired carrying the given error bits. Each
// set bit is one lane's experiment; the lane table attributes the failure
// to the structure the lane was injected into — the bit index alone no
// longer says.
func (e *Estimator) HandleFailureMask(mask pipeline.ErrMask, seq, cycle int64, class isa.Class) {
	for m := uint64(mask); m != 0; m &= m - 1 {
		ln := &e.lanes[bits.TrailingZeros64(m)]
		if ln.injectedAt < 0 || ln.failed {
			continue
		}
		ln.failed = true
		if e.opt.RecordLatency {
			ln.st.latencies.Add(cycle - ln.injectedAt)
		}
		if e.opt.Sink != nil {
			ln.failCycle = cycle
			ln.failSeq = seq
			ln.failClass = class
		}
	}
}

// tickLanes advances the lane engine; nextEvent (the min of every lane's
// due cycle) keeps the off-cycle cost to one comparison.
func (e *Estimator) tickLanes() {
	cycle := e.p.Cycle()
	if cycle < e.nextEvent {
		return
	}

	// Gather the lanes concluding this cycle, then sample all their
	// populations in one fused scan (only needed for sink records and
	// flight clear delimiters).
	var concludeMask pipeline.ErrMask
	for i := range e.lanes {
		if ln := &e.lanes[i]; ln.nextAt <= cycle && ln.injectedAt >= 0 {
			concludeMask |= pipeline.LaneBit(i)
		}
	}
	recOn := e.p.RecorderAttached()
	if concludeMask != 0 && (e.opt.Sink != nil || recOn) {
		e.p.PlanePopulations(concludeMask, &e.lanePops)
	}

	// Per-lane conclusion bookkeeping, then ONE fused clear scan.
	for i := range e.lanes {
		ln := &e.lanes[i]
		if ln.nextAt > cycle || ln.injectedAt < 0 {
			continue
		}
		e.concludeLane(i, ln, cycle)
		if recOn {
			e.p.EmitLaneClear(ln.st.s, i, e.lanePops[i])
		}
	}
	e.p.ClearPlanes(concludeMask)

	// Reinject every due lane (after the wipe, so fresh bits survive)
	// and recompute the next due cycle.
	e.nextEvent = math.MaxInt64
	for i := range e.lanes {
		ln := &e.lanes[i]
		if ln.nextAt <= cycle {
			e.injectLane(i, ln, cycle)
		}
		if ln.nextAt < e.nextEvent {
			e.nextEvent = ln.nextAt
		}
	}
	if e.opt.OnConcludeScan != nil {
		e.opt.OnConcludeScan(cycle)
	}
}

// concludeLane finishes lane i's live experiment: charge the owning
// structure's Algorithm 1 counters, emit the lifecycle record, and emit
// the structure's estimate once its pool has accumulated N injections.
func (e *Estimator) concludeLane(i int, ln *laneState, cycle int64) {
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
			ErrBits:       e.lanePops[i],
			Lane:          i,
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

// injectLane starts lane i's next experiment: pick the entry through the
// owning structure's shared round-robin cursor (or at random), set the
// lane's bit, and schedule the conclusion one gap out.
func (e *Estimator) injectLane(i int, ln *laneState, cycle int64) {
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
	e.p.InjectLane(st.s, idx, i)
	ln.entry = idx
	ln.injectedAt = cycle
	if e.opt.RandomSchedule {
		// Per-lane gap draw (mean M): the lanes of a pool desynchronize
		// instead of concluding in lockstep, and reinject-on-conclude
		// keeps occupancy full between draws.
		ln.nextAt = cycle + 1 + int64(e.rand()%uint64(2*e.opt.M))
	} else {
		ln.nextAt = cycle + e.opt.M
	}
}
