package trace

import (
	"avfsim/internal/handoff"
	"avfsim/internal/isa"
)

// Prefetch returns a Source that yields src's instructions in order while
// a goroutine of its own reads src ahead, by up to handoff.Window
// instructions; src must not be used after the call. The returned Source
// ends where src does, and raises a panic of src, on the reader's
// goroutine, after the instructions before it. stop ends the goroutine and
// waits for it; call it once the Source is no longer read.
func Prefetch(src Source) (Source, func()) {
	q := handoff.Produce(func(q *handoff.Queue[isa.Inst]) {
		for in, ok := src.Next(); ok; in, ok = src.Next() {
			*q.Slot() = in
		}
	})
	return prefetched{q}, q.Stop
}

// prefetched reads a Prefetch queue as a Source.
type prefetched struct{ q *handoff.Queue[isa.Inst] }

func (p prefetched) Next() (isa.Inst, bool) {
	if in := p.q.Next(); in != nil {
		return *in, true
	}
	return isa.Inst{}, false
}
