package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// faultyFile is a walFile that fails on demand: the next Write stores
// only short bytes of the frame (as a full disk would), the next Sync
// fails, or every Truncate fails.
type faultyFile struct {
	walFile
	short        int // bytes the failing Write stores; < 0: Write works
	failSync     bool
	failTruncate bool
}

var errInjected = errors.New("injected I/O error")

func (f *faultyFile) Write(b []byte) (int, error) {
	if f.short < 0 {
		return f.walFile.Write(b)
	}
	n, _ := f.walFile.Write(b[:f.short])
	f.short = -1
	return n, errInjected
}

func (f *faultyFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errInjected
	}
	return f.walFile.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncate {
		return errInjected
	}
	return f.walFile.Truncate(size)
}

// TestFailedAppendRollsBack: a failed write or fsync leaves no stray
// bytes behind, so the appends that follow it survive a reopen. Before
// the rollback, 6 stray bytes made replay stop there and drop every
// later frame.
func TestFailedAppendRollsBack(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if err := s.AppendSpec("job-1", testSpec{"mesa", 50}, time.Now()); err != nil {
		t.Fatal(err)
	}
	ff := &faultyFile{walFile: s.f, short: 6}
	s.f = ff
	if err := s.AppendInterval("job-1", testPoint{"iq", 0, 0.1}); err == nil {
		t.Fatal("short write reported success")
	}
	ff.failSync = true
	if err := s.AppendInterval("job-1", testPoint{"iq", 0, 0.1}); err == nil {
		t.Fatal("failed fsync reported success")
	}
	for i := 0; i < 2; i++ {
		if err := s.AppendInterval("job-1", testPoint{"iq", i, 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir, Options{})
	if jobs := r.Jobs(); len(jobs) != 1 || len(jobs[0].Intervals) != 2 {
		t.Fatalf("after two failed and two good appends: %+v, want 1 job with 2 intervals", jobs)
	}
	if r.Seq() != 3 {
		t.Fatalf("seq = %d, want 3: failed appends must not consume a seq", r.Seq())
	}
}

// TestUnrecoverableAppendRefusesMore: when the rollback itself fails,
// the log's tail is unknown and the store refuses further appends
// rather than writing behind stray bytes.
func TestUnrecoverableAppendRefusesMore(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	s.f = &faultyFile{walFile: s.f, short: 3, failTruncate: true}
	if err := s.AppendSpec("job-1", testSpec{"mesa", 50}, time.Now()); err == nil {
		t.Fatal("short write reported success")
	}
	if err := s.AppendSpec("job-2", testSpec{"mesa", 50}, time.Now()); err == nil {
		t.Fatal("append after a failed rollback succeeded")
	}
}

// TestCrashAtEveryOffset cuts a short job's WAL at every byte offset:
// each cut must reopen to exactly the frames that lie wholly before it,
// and accept new frames after it.
func TestCrashAtEveryOffset(t *testing.T) {
	src := t.TempDir()
	s := openT(t, src, Options{NoSync: true})
	// What Jobs and CacheEntries return after each frame, as JSON.
	state := func(s *Store) string {
		b, err := json.Marshal(struct {
			Jobs  []JobRecord
			Cache []CacheEntry
		}{s.Jobs(), s.CacheEntries()})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := []string{state(s)}
	ends := []int64{0}
	steps := []func() error{
		func() error { return s.AppendSpec("job-1", testSpec{"mesa", 50}, time.Unix(0, 1)) },
		func() error { return s.AppendInterval("job-1", testPoint{"iq", 0, 0.1}) },
		func() error { return s.AppendInterval("job-1", testPoint{"reg", 0, 0.2}) },
		func() error {
			return s.AppendState("job-1", "done", "", map[string]int{"m": 400}, []string{"job", "run"})
		},
		func() error { return s.AppendCacheResult("k1", map[string]string{"leader": "job-1"}) },
		func() error { return s.AppendSpec("job-2", testSpec{"swim", 5}, time.Unix(0, 2)) },
		func() error { return s.AppendState("job-2", "canceled", "context canceled", nil, nil) },
		func() error { return s.Evict("job-1") },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		want = append(want, state(s))
		ends = append(ends, s.WALBytes())
	}
	s.Close()
	wal, err := os.ReadFile(filepath.Join(src, walName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(wal)) != ends[len(ends)-1] {
		t.Fatalf("wal is %d bytes, frames end at %d", len(wal), ends[len(ends)-1])
	}

	dir := t.TempDir()
	path := filepath.Join(dir, walName)
	for cut := 0; cut <= len(wal); cut++ {
		k := 0 // frames wholly before the cut
		for k+1 < len(ends) && ends[k+1] <= int64(cut) {
			k++
		}
		if err := os.WriteFile(path, wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := state(r); got != want[k] || r.Seq() != uint64(k) || r.WALBytes() != ends[k] {
			t.Fatalf("cut %d: reopened to seq %d, %d bytes,\n%s\nwant the %d frames before it:\n%s",
				cut, r.Seq(), r.WALBytes(), got, k, want[k])
		}
		if err := r.AppendSpec("job-9", testSpec{"art", 1}, time.Unix(0, 9)); err != nil {
			t.Fatalf("cut %d: append after reopen: %v", cut, err)
		}
		r.Close()
	}
}

// FuzzStoreReplay: arbitrary wal.log bytes never panic Open, and a frame
// appended after Open survives a reopen. The committed corpus under
// testdata/fuzz holds real frames, torn and corrupt tails, and
// oversized length headers.
func FuzzStoreReplay(f *testing.F) {
	f.Add([]byte{})
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, wal []byte) {
		if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := s.AppendSpec("fuzz-job", testSpec{"mesa", 1}, time.Unix(0, 1)); err != nil {
			t.Fatalf("append: %v", err)
		}
		s.Close()
		r, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer r.Close()
		for _, jr := range r.Jobs() {
			if jr.ID == "fuzz-job" {
				return
			}
		}
		t.Fatal("frame appended after Open lost at reopen")
	})
}
