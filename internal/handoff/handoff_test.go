package handoff

import (
	"testing"
)

// lengths are the stream lengths around the block boundaries, plus one
// that laps the blocks several times.
var lengths = []int{0, 1, BlockLen - 1, BlockLen, BlockLen + 1, 3*Window + 17}

// produced reads a stream of n values a helper produces, failing t unless
// they arrive in order and the stream then ends.
func produced(t *testing.T, n int) {
	q := Produce(func(q *Queue[int]) {
		for i := 0; i < n; i++ {
			*q.Slot() = i
		}
	})
	defer q.Stop()
	for i := 0; i < n; i++ {
		if v := q.Next(); v == nil || *v != i {
			t.Fatalf("n=%d: value %d is %v", n, i, v)
		}
	}
	for k := 0; k < 2; k++ {
		if v := q.Next(); v != nil {
			t.Fatalf("n=%d: read %d past the end", n, *v)
		}
	}
}

// consumed writes n values to a helper that consumes them, failing t
// unless the helper read them in order and saw the stream end.
func consumed(t *testing.T, n int) {
	var got []int
	ended := false
	q := Consume(func(q *Queue[int]) {
		for v := q.Next(); v != nil; v = q.Next() {
			got = append(got, *v)
		}
		ended = true
	})
	for i := 0; i < n; i++ {
		*q.Slot() = i
	}
	q.Close()
	if !ended || len(got) != n {
		t.Fatalf("n=%d: helper read %d values (ended %v)", n, len(got), ended)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("n=%d: value %d is %d", n, i, v)
		}
	}
}

// TestStreamsKeepOrder: whichever end the helper holds, every value
// arrives once and in order, across block boundaries and for streams of
// every length around them, and the end is reported after the last.
func TestStreamsKeepOrder(t *testing.T) {
	for _, n := range lengths {
		produced(t, n)
		consumed(t, n)
	}
}

// TestProducerPanicRaisedAfterItsValues: a producing helper's panic
// reaches the owner from Next, after the values written before it.
func TestProducerPanicRaisedAfterItsValues(t *testing.T) {
	const k = 2*BlockLen + 3
	q := Produce(func(q *Queue[int]) {
		for i := 0; i < k; i++ {
			*q.Slot() = i
		}
		panic("producer failed")
	})
	defer q.Stop()
	read := 0
	defer func() {
		if r := recover(); r != "producer failed" {
			t.Errorf("recovered %v, want the producer's panic", r)
		}
		if read != k {
			t.Errorf("panic after %d values, want %d", read, k)
		}
	}()
	for {
		if q.Next() == nil {
			t.Fatal("stream ended instead of panicking")
		}
		read++
	}
}

// panicOn starts a consuming helper that panics on reading bad.
func panicOn(bad int) *Queue[int] {
	return Consume(func(q *Queue[int]) {
		for v := q.Next(); v != nil; v = q.Next() {
			if *v == bad {
				panic("consumer failed")
			}
		}
	})
}

// recovered runs f and returns what it panicked with.
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestConsumerPanicRaisedOnWriter: a consuming helper's panic reaches the
// owner at a later block handoff, or from Close when no handoff follows,
// and only once.
func TestConsumerPanicRaisedOnWriter(t *testing.T) {
	q := panicOn(5)
	written := 0
	r := recovered(func() {
		for {
			*q.Slot() = written
			written++
		}
	})
	if r != "consumer failed" {
		t.Errorf("Slot panicked with %v, want the consumer's panic", r)
	}
	if written < BlockLen {
		t.Errorf("raised after %d values, before the first handoff", written)
	}
	if r := recovered(q.Stop); r != nil {
		t.Errorf("Stop raised %v again", r)
	}

	q = panicOn(5)
	for i := 0; i < 10; i++ {
		*q.Slot() = i
	}
	if r := recovered(q.Close); r != "consumer failed" {
		t.Errorf("Close panicked with %v, want the consumer's panic", r)
	}
}

// TestStopJoinsHelper: Stop, mid-stream, returns only after the helper
// has returned, whichever end it holds; the stream then reads as ended,
// and Stop may be called again.
func TestStopJoinsHelper(t *testing.T) {
	exited := make(chan struct{})
	q := Produce(func(q *Queue[int]) {
		defer close(exited)
		for i := 0; ; i++ {
			*q.Slot() = i
		}
	})
	for i := 0; i < BlockLen+1; i++ {
		q.Next()
	}
	q.Stop()
	select {
	case <-exited:
	default:
		t.Fatal("Stop returned before the producing helper")
	}
	if q.Next() != nil {
		t.Error("Next after Stop returned a value")
	}
	q.Stop()

	exited = make(chan struct{})
	c := Consume(func(q *Queue[int]) {
		defer close(exited)
		for q.Next() != nil {
		}
	})
	for i := 0; i < 2*BlockLen+1; i++ {
		*c.Slot() = i
	}
	c.Stop()
	select {
	case <-exited:
	default:
		t.Fatal("Stop returned before the consuming helper")
	}
	c.Close()
}

// TestHandoffAllocatesNothing: once a queue has started, passing blocks
// back and forth allocates nothing, whichever end the helper holds.
func TestHandoffAllocatesNothing(t *testing.T) {
	p := Produce(func(q *Queue[int]) {
		for i := 0; ; i++ {
			*q.Slot() = i
		}
	})
	defer p.Stop()
	if n := testing.AllocsPerRun(4, func() {
		for i := 0; i < 2*Window; i++ {
			p.Next()
		}
	}); n != 0 {
		t.Errorf("%v allocations reading %d values", n, 2*Window)
	}

	c := Consume(func(q *Queue[int]) {
		for q.Next() != nil {
		}
	})
	defer c.Stop()
	if n := testing.AllocsPerRun(4, func() {
		for i := 0; i < 2*Window; i++ {
			*c.Slot() = i
		}
	}); n != 0 {
		t.Errorf("%v allocations writing %d values", n, 2*Window)
	}
}
