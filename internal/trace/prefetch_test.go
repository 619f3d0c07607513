package trace

import (
	"testing"

	"avfsim/internal/handoff"
)

// TestPrefetchYieldsSource: the prefetched stream is the source's,
// instruction for instruction, whether the source is endless or ends
// inside, at or just past a block.
func TestPrefetchYieldsSource(t *testing.T) {
	const endless = -1
	for _, n := range []int{endless, 0, 1, handoff.BlockLen, handoff.BlockLen + 1, 3*handoff.Window + 5} {
		src := Source(MustNewGenerator(testParams()))
		want := Collect(MustNewGenerator(testParams()), 3*handoff.Window+5)
		if n != endless {
			src = NewLimit(src, int64(n))
			want = want[:n]
		}
		pf, stop := Prefetch(src)
		for i, w := range want {
			if got, ok := pf.Next(); !ok || got != w {
				t.Fatalf("n=%d: instruction %d: %v %v, want %v", n, i, got, ok, w)
			}
		}
		if _, ok := pf.Next(); ok == (n != endless) {
			t.Errorf("n=%d: Next after %d instructions reported ok=%v", n, len(want), ok)
		}
		stop()
	}
}
