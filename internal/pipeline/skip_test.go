package pipeline

import (
	"math/rand"
	"testing"

	"avfsim/internal/config"
	"avfsim/internal/isa"
	"avfsim/internal/trace"
	"avfsim/internal/workload"
)

// logEntry is one hook call or flight event. Fields a kind does not use
// stay zero, so two logs match only if every call, argument and cycle
// stamp matches.
type logEntry struct {
	hook string
	ret  RetireEvent
	ev   ErrEvent
	args [4]int64
}

// callLog records every hook call and flight event of one pipeline.
type callLog struct{ entries []logEntry }

func (l *callLog) add(hook string, a, b, c, d int64) {
	l.entries = append(l.entries, logEntry{hook: hook, args: [4]int64{a, b, c, d}})
}

func (l *callLog) RecordErrEvent(ev ErrEvent) {
	l.entries = append(l.entries, logEntry{hook: "flight", ev: ev})
}

func (l *callLog) attach(p *Pipeline) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	p.SetHooks(Hooks{
		OnRetire: func(ev *RetireEvent) {
			l.entries = append(l.entries, logEntry{hook: "retire", ret: *ev})
		},
		OnFailure: func(s Structure, seq, cycle int64, class isa.Class) {
			l.add("failure", int64(s), seq, cycle, int64(class))
		},
		OnRegWrite: func(file RegFileID, phys int16, cycle, seq int64) {
			l.add("regwrite", int64(file), int64(phys), cycle, seq)
		},
		OnRegRead: func(file RegFileID, phys int16, cycle, seq int64) {
			l.add("regread", int64(file), int64(phys), cycle, seq)
		},
		OnRegFree: func(file RegFileID, phys int16, cycle int64) {
			l.add("regfree", int64(file), int64(phys), cycle, 0)
		},
		OnTLBAccess: func(s Structure, entry int, cycle int64, refill bool) {
			l.add("tlb", int64(s), int64(entry), cycle, b2i(refill))
		},
	})
	p.SetRecorder(l)
}

// TestSkipIdleMatchesStep drives two pipelines over the same stream: one
// calls only Step, the other SkipIdle with seeded random limits (Step
// when it returns 0). Both get the same storage and logic injections and
// plane clears at the same cycles. At every landing of the skipping
// pipeline the stepping one is brought to the same cycle, and their
// counters, occupancies, hook calls and flight events must match.
func TestSkipIdleMatchesStep(t *testing.T) {
	narrow := narrowConfig(t)
	configs := []struct {
		name string
		cfg  config.Config
	}{{"default", config.Default()}, {"narrow", narrow}}
	for _, c := range configs {
		for _, bench := range []string{"bzip2", "mesa", "sixtrack"} {
			t.Run(c.name+"/"+bench, func(t *testing.T) {
				skipMatchesStep(t, c.cfg, bench)
			})
		}
	}
}

func skipMatchesStep(t *testing.T, cfg config.Config, bench string) {
	const insts = 12_000
	mk := func() (*Pipeline, *callLog) {
		prof, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		src := trace.NewLimit(workload.Scale(prof, 0.02).MustSource(1), insts)
		c := cfg
		p, err := New(&c, src)
		if err != nil {
			t.Fatal(err)
		}
		l := &callLog{}
		l.attach(p)
		return p, l
	}
	step, stepLog := mk()
	skip, skipLog := mk()
	r := rand.New(rand.NewSource(int64(len(bench))*7919 + int64(cfg.FetchWidth)))

	nextInject := int64(1 + r.Intn(300))
	for landings := 0; ; landings++ {
		cycle := skip.Cycle()
		if cycle == nextInject {
			s := Structure(r.Intn(NumStructures))
			entry := r.Intn(skip.StructureEntries(s))
			clear := r.Intn(4) == 0
			for _, p := range []*Pipeline{step, skip} {
				if clear {
					p.ClearPlane(s)
				}
				p.Inject(s, entry)
			}
			nextInject += int64(1 + r.Intn(300))
		}
		limit := nextInject
		switch r.Intn(4) {
		case 0:
			limit = cycle // must not skip
		case 1:
			limit = cycle + 1
		case 2:
			limit = min(limit, cycle+1+int64(r.Intn(16)))
		}
		n := skip.SkipIdle(limit)
		if limit <= cycle && n != 0 {
			t.Fatalf("cycle %d: SkipIdle(%d) skipped %d cycles", cycle, limit, n)
		}
		drained := n == 0 && !skip.Step()
		for step.Cycle() < skip.Cycle() {
			if !step.Step() {
				t.Fatalf("stepping pipeline drained at cycle %d, skipping one reached %d", step.Cycle(), skip.Cycle())
			}
		}
		if drained && step.Step() {
			t.Fatalf("skipping pipeline drained at cycle %d, stepping one did not", skip.Cycle())
		}

		at := skip.Cycle()
		if got, want := skip.Snapshot(), step.Snapshot(); got != want {
			t.Fatalf("cycle %d: stats %+v, stepping %+v", at, got, want)
		}
		var gotOcc, wantOcc [NumStructures]int
		skip.Occupancies(&gotOcc)
		step.Occupancies(&wantOcc)
		if gotOcc != wantOcc {
			t.Fatalf("cycle %d: occupancies %v, stepping %v", at, gotOcc, wantOcc)
		}
		if len(skipLog.entries) != len(stepLog.entries) {
			t.Fatalf("cycle %d: %d hook calls and events, stepping %d", at, len(skipLog.entries), len(stepLog.entries))
		}
		for i := range skipLog.entries {
			if skipLog.entries[i] != stepLog.entries[i] {
				t.Fatalf("cycle %d: call %+v, stepping %+v", at, skipLog.entries[i], stepLog.entries[i])
			}
		}
		skipLog.entries, stepLog.entries = skipLog.entries[:0], stepLog.entries[:0]

		if drained {
			if skip.Retired() != insts {
				t.Fatalf("retired %d of %d", skip.Retired(), insts)
			}
			t.Logf("%d cycles: stepped %d, %d landings", at, skip.Steps(), landings)
			if step.Steps() != at || skip.Steps() > at*9/10 {
				t.Fatalf("steps: stepping %d, skipping %d of %d cycles", step.Steps(), skip.Steps(), at)
			}
			return
		}
	}
}
