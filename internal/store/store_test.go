package store

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"avfsim/internal/obs"
)

type testSpec struct {
	Benchmark string `json:"benchmark"`
	N         int    `json:"n"`
}

type testPoint struct {
	Structure string  `json:"structure"`
	Interval  int     `json:"interval"`
	AVF       float64 `json:"avf"`
}

func openT(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestRoundTrip writes a full job lifecycle and recovers it bit-for-bit
// after reopening the directory.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	sub := time.Unix(0, 12345)
	if err := s.AppendSpec("job-1", testSpec{"mesa", 50}, sub); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendState("job-1", "running", ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.AppendInterval("job-1", testPoint{"iq", i, 0.25}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendResult("job-1", map[string]any{"m": 400}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendState("job-1", "done", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Options{})
	jobs := r.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(jobs))
	}
	jr := jobs[0]
	if jr.ID != "job-1" || jr.State != "done" || !jr.Terminal() {
		t.Fatalf("recovered job = %+v", jr)
	}
	if !jr.Submitted.Equal(sub) {
		t.Fatalf("submitted = %v, want %v", jr.Submitted, sub)
	}
	var spec testSpec
	if err := json.Unmarshal(jr.Spec, &spec); err != nil || spec.Benchmark != "mesa" || spec.N != 50 {
		t.Fatalf("spec = %+v (%v)", spec, err)
	}
	if len(jr.Intervals) != 3 {
		t.Fatalf("recovered %d intervals, want 3", len(jr.Intervals))
	}
	var pt testPoint
	if err := json.Unmarshal(jr.Intervals[2], &pt); err != nil || pt.Interval != 2 {
		t.Fatalf("interval[2] = %+v (%v)", pt, err)
	}
	if jr.Result == nil {
		t.Fatal("result not recovered")
	}
	if got := r.Seq(); got != 7 {
		t.Fatalf("seq = %d, want 7", got)
	}
}

// TestTornTailTruncated simulates a crash mid-frame: the torn tail is
// discarded, earlier frames survive, and the log accepts appends again.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := openT(t, dir, Options{})
	s.AppendSpec("job-1", testSpec{"mesa", 50}, time.Now())
	s.AppendInterval("job-1", testPoint{"iq", 0, 0.1})
	s.Close()

	// Half a frame of garbage at the tail, as a power cut would leave.
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02})
	f.Close()

	r := openT(t, dir, Options{Metrics: reg})
	jobs := r.Jobs()
	if len(jobs) != 1 || len(jobs[0].Intervals) != 1 {
		t.Fatalf("recovered %+v, want 1 job with 1 interval", jobs)
	}
	// Truncated clean: a subsequent append then reopen sees the new frame.
	if err := r.AppendInterval("job-1", testPoint{"iq", 1, 0.2}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2 := openT(t, dir, Options{})
	if jobs := r2.Jobs(); len(jobs[0].Intervals) != 2 {
		t.Fatalf("after repair+append: %d intervals, want 2", len(jobs[0].Intervals))
	}
}

// TestCorruptMiddleFrameStopsReplay: a flipped bit mid-log cannot be
// trusted past — replay keeps only the prefix.
func TestCorruptMiddleFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.AppendSpec("job-1", testSpec{"mesa", 50}, time.Now())
	off, _ := s.f.Seek(0, io.SeekCurrent)
	s.AppendInterval("job-1", testPoint{"iq", 0, 0.1})
	s.AppendInterval("job-1", testPoint{"iq", 1, 0.2})
	s.Close()

	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the second frame.
	f.WriteAt([]byte{0xff}, off+frameHeader+2)
	f.Close()

	r := openT(t, dir, Options{})
	jobs := r.Jobs()
	if len(jobs) != 1 || len(jobs[0].Intervals) != 0 {
		t.Fatalf("recovered %+v, want the job with 0 intervals", jobs)
	}
}

// TestCompaction checks auto-compaction keeps state intact, shrinks the
// WAL, and survives reopening (snapshot + empty log).
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{CompactBytes: 512})
	s.AppendSpec("job-1", testSpec{"mesa", 50}, time.Now())
	for i := 0; i < 64; i++ {
		if err := s.AppendInterval("job-1", testPoint{"iq", i, 0.25}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.WALBytes(); got >= 512 {
		t.Fatalf("wal bytes = %d after compaction threshold 512", got)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no snapshot after compaction: %v", err)
	}
	s.AppendState("job-1", "done", "")
	s.Close()

	r := openT(t, dir, Options{})
	jobs := r.Jobs()
	if len(jobs) != 1 || len(jobs[0].Intervals) != 64 || jobs[0].State != "done" {
		t.Fatalf("recovered job = %+v, want 64 intervals state done", jobs[0])
	}
	// Seq must keep increasing across snapshot+reopen so replay ordering
	// stays monotonic.
	if r.Seq() < 66 {
		t.Fatalf("seq = %d, want >= 66", r.Seq())
	}
}

// TestStaleWALFramesSkippedAfterSnapshot covers the compaction crash
// window: snapshot durable, WAL truncate lost. Replay must not re-apply
// pre-snapshot frames.
func TestStaleWALFramesSkippedAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{CompactBytes: -1})
	s.AppendSpec("job-1", testSpec{"mesa", 50}, time.Now())
	s.AppendInterval("job-1", testPoint{"iq", 0, 0.1})
	// Keep the WAL bytes: simulate the crash by compacting into the
	// snapshot and then restoring the old WAL contents.
	walPath := filepath.Join(dir, walName)
	old, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(walPath, old, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Options{})
	jobs := r.Jobs()
	if len(jobs) != 1 || len(jobs[0].Intervals) != 1 {
		t.Fatalf("stale frames re-applied: %+v", jobs)
	}
}

// TestEvict removes the job from materialized state and from disk after
// the next compaction.
func TestEvict(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.AppendSpec("job-1", testSpec{"mesa", 50}, time.Now())
	s.AppendSpec("job-2", testSpec{"bzip2", 50}, time.Now())
	s.AppendState("job-1", "done", "")
	if err := s.Evict("job-1"); err != nil {
		t.Fatal(err)
	}
	if jobs := s.Jobs(); len(jobs) != 1 || jobs[0].ID != "job-2" {
		t.Fatalf("after evict: %+v", jobs)
	}
	s.Compact()
	s.Close()
	r := openT(t, dir, Options{})
	if jobs := r.Jobs(); len(jobs) != 1 || jobs[0].ID != "job-2" {
		t.Fatalf("after evict+compact+reopen: %+v", jobs)
	}
}

// TestEvictUnknownJobWritesNothing: evicting a job the store never
// recorded (a cache hit, a single-flight follower) appends no frame and
// issues no fsync; evicting a recorded job still persists its frame
// without a compaction.
func TestEvictUnknownJobWritesNothing(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := openT(t, dir, Options{Metrics: reg, CompactBytes: -1})
	s.AppendSpec("job-1", testSpec{"mesa", 50}, time.Now())
	s.AppendState("job-1", "done", "")
	s.AppendSpec("job-2", testSpec{"bzip2", 50}, time.Now())

	frames := reg.Counter("avfd_store_frames_total", "")
	fsyncs := reg.Counter("avfd_store_fsyncs_total", "")
	seq, wal, nf, ns := s.Seq(), s.WALBytes(), frames.Value(), fsyncs.Value()
	for _, id := range []string{"job-9", "job-10", "job-11"} {
		if err := s.Evict(id); err != nil {
			t.Fatal(err)
		}
	}
	if s.Seq() != seq || s.WALBytes() != wal || frames.Value() != nf || fsyncs.Value() != ns {
		t.Fatalf("unknown evicts wrote: seq %d→%d, wal %d→%d, frames %d→%d, fsyncs %d→%d",
			seq, s.Seq(), wal, s.WALBytes(), nf, frames.Value(), ns, fsyncs.Value())
	}

	if err := s.Evict("job-1"); err != nil {
		t.Fatal(err)
	}
	if s.Seq() != seq+1 || frames.Value() != nf+1 || fsyncs.Value() != ns+1 {
		t.Fatalf("known evict: seq %d→%d, frames %d→%d, fsyncs %d→%d, want one frame",
			seq, s.Seq(), nf, frames.Value(), ns, fsyncs.Value())
	}
	// A second evict of the same job is unknown by now.
	if err := s.Evict("job-1"); err != nil || s.Seq() != seq+1 {
		t.Fatalf("repeat evict: err %v, seq %d, want %d", err, s.Seq(), seq+1)
	}
	s.Close()

	r := openT(t, dir, Options{})
	if jobs := r.Jobs(); len(jobs) != 1 || jobs[0].ID != "job-2" {
		t.Fatalf("after evict+reopen: %+v", jobs)
	}
	if r.Seq() != seq+1 {
		t.Fatalf("reopened seq = %d, want %d", r.Seq(), seq+1)
	}
}

// TestClosedStoreRejects: appends after Close fail with ErrClosed (the
// crash-simulation hook the server tests use).
func TestClosedStoreRejects(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	s.Close()
	if err := s.AppendState("job-1", "done", ""); err != ErrClosed {
		t.Fatalf("append on closed store: %v, want ErrClosed", err)
	}
	if err := s.Compact(); err != ErrClosed {
		t.Fatalf("compact on closed store: %v, want ErrClosed", err)
	}
}

// TestCacheEntriesRoundTrip persists result-cache entries through WAL
// replay, compaction, and capacity eviction.
func TestCacheEntriesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{CompactBytes: -1})
	val := map[string]any{"leader": "job-1", "points": []int{1, 2, 3}}
	if err := s.AppendCacheResult("aa11", val); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCacheResult("bb22", map[string]any{"leader": "job-2"}); err != nil {
		t.Fatal(err)
	}
	if err := s.EvictCacheEntry("aa11"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// WAL replay path.
	r := openT(t, dir, Options{CompactBytes: -1})
	ents := r.CacheEntries()
	if len(ents) != 1 || ents[0].Key != "bb22" {
		t.Fatalf("after replay: %+v, want only bb22", ents)
	}
	if err := r.AppendCacheResult("cc33", map[string]any{"leader": "job-3"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	r.Close()

	// Snapshot path: entries must survive compaction + reopen.
	q := openT(t, dir, Options{CompactBytes: -1})
	ents = q.CacheEntries()
	if len(ents) != 2 || ents[0].Key != "bb22" || ents[1].Key != "cc33" {
		t.Fatalf("after compaction: %+v, want [bb22 cc33]", ents)
	}
	var got map[string]any
	if err := json.Unmarshal(ents[1].Value, &got); err != nil || got["leader"] != "job-3" {
		t.Fatalf("cc33 value = %s (err %v)", ents[1].Value, err)
	}
}

// TestCacheEntriesSurviveAutoCompaction covers the cache block of the
// snapshot under the automatic size-triggered compaction path, mixed
// with job frames.
func TestCacheEntriesSurviveAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{CompactBytes: 512})
	s.AppendSpec("job-1", testSpec{"mesa", 50}, time.Now())
	if err := s.AppendCacheResult("k1", map[string]any{"leader": "job-1"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := s.AppendInterval("job-1", testPoint{"iq", i, 0.25}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	r := openT(t, dir, Options{})
	if ents := r.CacheEntries(); len(ents) != 1 || ents[0].Key != "k1" {
		t.Fatalf("cache entries after auto-compaction: %+v", ents)
	}
}
