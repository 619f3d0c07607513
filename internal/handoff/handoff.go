// Package handoff carries a stream of values, in order, from one goroutine
// to another through a few fixed-size blocks that circulate over a filled
// and a free channel. One end is the goroutine that starts the queue (the
// owner), the other a helper goroutine the queue runs. Nothing allocates
// after the start, and a helper's panic is raised again on the owner.
package handoff

import (
	"runtime"
	"sync"
)

// Blocks blocks of BlockLen values circulate, so the producer runs at most
// Window values ahead of the consumer.
const (
	BlockLen = 1024
	Blocks   = 4
	Window   = Blocks * BlockLen
)

// Queue is a single-producer, single-consumer FIFO of T between the owner
// and one helper goroutine. Start it with Produce or Consume.
type Queue[T any] struct {
	filled, free chan []T      // full blocks to the consumer, spent ones back
	quit, done   chan struct{} // closed by the owner's Stop; when the helper returns
	fault        any           // the helper's panic, set before done closes
	raised       bool          // the owner has raised fault
	helperWrites bool          // the helper is the producer
	once         sync.Once
	// Each side updates its own block per value; the pads keep the two on
	// separate cache lines, or line pairs, which some CPUs fetch together.
	_       [128]byte
	w       []T // the producer's block being filled
	_       [128]byte
	r, rest []T // the consumer's block being read, and its unread values
}

// Produce runs fill on a helper goroutine as the producer and returns the
// queue for the caller to read with Next and end with Stop. The stream
// ends when fill returns or panics; Next raises the panic after the values
// written before it.
func Produce[T any](fill func(*Queue[T])) *Queue[T] { return start(true, fill) }

// Consume runs drain on a helper goroutine as the consumer, reading with
// Next until it returns nil, and returns the queue for the caller to write
// with Slot and end with Close or Stop. A panic in drain is raised on the
// writer at its next block handoff, or by Close or Stop.
func Consume[T any](drain func(*Queue[T])) *Queue[T] { return start(false, drain) }

func start[T any](helperWrites bool, fn func(*Queue[T])) *Queue[T] {
	// Each channel has room for every block, so no send waits.
	q := &Queue[T]{filled: make(chan []T, Blocks), free: make(chan []T, Blocks),
		quit: make(chan struct{}), done: make(chan struct{}), helperWrites: helperWrites}
	slab := make([]T, Window)
	q.w = slab[:0:BlockLen]
	for i := BlockLen; i < Window; i += BlockLen {
		q.free <- slab[i : i : i+BlockLen]
	}
	go func() {
		defer func() {
			q.fault = recover()
			if helperWrites && len(q.w) > 0 {
				q.filled <- q.w // the values written before the end
			}
			close(q.done)
		}()
		fn(q)
	}()
	return q
}

// Slot returns the next slot for the producer to fill, handing a full
// block over first. The slot holds a stale value: set every field the
// consumer reads.
func (q *Queue[T]) Slot() *T {
	n := len(q.w)
	if n == cap(q.w) {
		q.send()
		n = 0
	}
	q.w = q.w[:n+1]
	return &q.w[n]
}

// send hands the full block over and takes a free one. If the consumer
// has gone, a helper exits (the owner stopped the queue) and an owner
// raises the helper's panic, at the first handoff after it.
func (q *Queue[T]) send() {
	q.filled <- q.w
	q.w = nil
	gone := q.done
	if q.helperWrites {
		gone = q.quit
	}
	select {
	case <-gone:
	default:
		select {
		case q.w = <-q.free:
			return
		case <-gone:
		}
	}
	if q.helperWrites {
		runtime.Goexit()
	}
	q.raise()
	panic("handoff: consumer returned before the stream ended")
}

// Next returns the next value, valid until the next call, or nil once the
// producer has ended and every value it wrote has been read.
func (q *Queue[T]) Next() *T {
	if len(q.rest) == 0 && !q.recv() {
		return nil
	}
	v := &q.rest[0]
	q.rest = q.rest[1:]
	return v
}

// recv hands the spent block back and takes the next, never empty, one.
// At the end of the stream it reports false, or an owner raises the
// helper's panic.
func (q *Queue[T]) recv() bool {
	if q.r != nil {
		q.free <- q.r[:0]
	}
	ended := q.quit
	if q.helperWrites {
		ended = q.done
	}
	select {
	case q.r = <-q.filled:
	case <-ended:
		// Every block the producer handed over is in filled already.
		select {
		case q.r = <-q.filled:
		default:
			q.r = nil
			if q.helperWrites {
				q.raise()
			}
			return false
		}
	}
	q.rest = q.r
	return true
}

// Close, on the owner's writing end, hands over the values written so far
// and stops the queue; the consuming helper reads them all first.
func (q *Queue[T]) Close() {
	if len(q.w) > 0 {
		q.filled <- q.w
		q.w = nil
	}
	q.Stop()
}

// Stop ends the queue and returns once the helper has: a producer at its
// next handoff, a consumer after reading what was handed over. It drops
// the blocks, so a queue left reachable holds no memory. An owner that
// writes raises the helper's panic if not yet raised; one that reads does
// not, as the panic came after values it never read. Further calls do
// nothing; the queue must not be written after it.
func (q *Queue[T]) Stop() {
	q.once.Do(func() {
		close(q.quit)
		<-q.done
		q.w, q.r, q.rest, q.filled, q.free = nil, nil, nil, nil, nil
	})
	if !q.helperWrites {
		q.raise()
	}
}

// raise panics on the owner's goroutine with the helper's panic, once.
// Call it only after done has closed.
func (q *Queue[T]) raise() {
	if q.fault != nil && !q.raised {
		q.raised = true
		panic(q.fault)
	}
}
