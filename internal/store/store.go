// Package store is avfd's durability layer: a crash-safe append-only
// write-ahead log (WAL) of job lifecycle records plus periodic snapshot
// compaction.
//
// The estimation service is the paper's continuous-monitoring use case
// (§1) run as a daemon, and a daemon restarts. Because the simulator is
// fully deterministic given (spec, seed) — the property the golden-digest
// gates pin down — it is enough to persist the job *spec* and the
// per-interval estimates already emitted: a restarted job re-derives the
// entire machine state (RNG stream, trace position, pipeline contents) by
// deterministic re-execution and resumes emitting exactly where the WAL
// stops, byte-identical to an uninterrupted run.
//
// On-disk layout under the store directory:
//
//	wal.log        frames: [len:4 LE][crc32(payload):4 LE][payload JSON Record]
//	snapshot.json  {"seq": N, "jobs": [...]} — materialized state up to seq N
//
// Every frame is fsync'd by default (Options.NoSync disables for tests
// and benchmarks). Replay stops at the first corrupt or torn frame and
// truncates the log there: a crash mid-write loses at most the frame
// being written, never earlier history. Compaction writes the snapshot
// atomically (tmp + rename + dir sync) *before* truncating the WAL, and
// replay skips WAL records with seq ≤ snapshot seq, so a crash at any
// point between the two steps is safe.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"avfsim/internal/obs"
)

// Record kinds, in the order a job's life emits them.
const (
	KindSpec     = "spec"     // job submitted: Data = wire spec
	KindInterval = "interval" // one per-interval estimate: Data = point
	// KindState is a job's terminal frame: State (+ Error), Data = the
	// final series (done jobs only), Trace = the terminal span summary.
	// A job without one is unfinished and resumes at the next boot.
	KindState = "state"
	KindEvict = "evict" // retention removed the job

	// Cache records address the content-addressed result cache rather
	// than a job: Job carries the cache key (hex SHA-256 of the
	// canonical spec) and Data the opaque cached value.
	KindCache      = "cache"       // result-cache entry stored
	KindCacheEvict = "cache-evict" // result-cache entry evicted (capacity cap)
)

// Record is one WAL frame's payload.
type Record struct {
	Seq   uint64          `json:"seq"`
	Kind  string          `json:"kind"`
	Job   string          `json:"job"`
	Time  int64           `json:"time,omitempty"` // unix nanos (spec/state)
	State string          `json:"state,omitempty"`
	Error string          `json:"error,omitempty"`
	Data  json.RawMessage `json:"data,omitempty"`
	Trace json.RawMessage `json:"trace,omitempty"`
}

// JobRecord is the materialized state of one job after replay. The
// payloads are opaque JSON: the store does not know the server's wire
// shapes, which keeps it dependency-free and reusable.
type JobRecord struct {
	ID        string          `json:"id"`
	Spec      json.RawMessage `json:"spec"`
	Submitted time.Time       `json:"submitted"`
	// State is the job's terminal state ("" until its terminal frame
	// lands: the job is unfinished).
	State   string    `json:"state,omitempty"`
	Error   string    `json:"error,omitempty"`
	Updated time.Time `json:"updated"`
	// Intervals are the persisted per-interval estimates, in emission
	// order — the job's checkpoint: a resumed run skips re-emitting them.
	Intervals []json.RawMessage `json:"intervals,omitempty"`
	Result    json.RawMessage   `json:"result,omitempty"`
	// Trace is the job's terminal span summary (the retained spans of
	// its trace at completion), persisted so a restarted server can
	// re-seed its span ring and keep /v1/jobs/{id}/spans answering for
	// jobs that finished before the restart.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// CacheEntry is one materialized result-cache entry: the content
// address (hex) and the opaque cached value.
type CacheEntry struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// Terminal reports whether the job's terminal frame has landed. Jobs
// without one are the ones recovery re-enqueues; a job shed under load
// stays shed — it is a verdict, not a checkpoint.
func (jr *JobRecord) Terminal() bool {
	switch jr.State {
	case "done", "failed", "canceled", "shed":
		return true
	}
	return false
}

// Options configures a Store.
type Options struct {
	// NoSync skips the per-frame fsync (tests, benchmarks measuring the
	// in-memory cost). Production keeps the default: every frame is
	// durable before Append returns.
	NoSync bool
	// CompactBytes triggers snapshot compaction when the WAL exceeds
	// this size (default 4 MiB; negative disables auto-compaction).
	CompactBytes int64
	// Metrics, when non-nil, registers the avfd_store_* family.
	Metrics *obs.Registry
}

func (o *Options) defaults() {
	if o.CompactBytes == 0 {
		o.CompactBytes = 4 << 20
	}
}

// ErrClosed is returned by appends on a closed store.
var ErrClosed = errors.New("store: closed")

// walFile is the WAL handle's write side; *os.File implements it.
type walFile interface {
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Store is a single-directory WAL + snapshot job store. All methods are
// safe for concurrent use.
type Store struct {
	dir string
	opt Options

	mu       sync.Mutex
	f        walFile
	seq      uint64
	walBytes int64
	jobs     map[string]*JobRecord
	order    []string // job ids in first-seen order
	cache    map[string]json.RawMessage
	cacheOrd []string // cache keys in first-stored order
	closed   bool
	// broken is set when a failed append could not be rolled back: the
	// log's tail is unknown, so no later frame may land after it.
	broken error

	// Metrics (nil without Options.Metrics).
	frames, bytesWritten, fsyncs   *obs.Counter
	compactions, corrupt, replayed *obs.Counter
}

// snapshot is the compaction file shape.
type snapshot struct {
	Seq   uint64       `json:"seq"`
	Jobs  []*JobRecord `json:"jobs"`
	Cache []CacheEntry `json:"cache,omitempty"`
}

const (
	walName  = "wal.log"
	snapName = "snapshot.json"
	// frameHeader is [len:4][crc:4].
	frameHeader = 8
	// maxFrame bounds a single frame so a corrupt length field cannot
	// make replay attempt a giant allocation.
	maxFrame = 64 << 20
)

// Open loads (or creates) the store in dir: snapshot first, then WAL
// replay, truncating any torn tail.
func Open(dir string, opt Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	opt.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opt: opt, jobs: map[string]*JobRecord{}, cache: map[string]json.RawMessage{}}
	if r := opt.Metrics; r != nil {
		s.frames = r.Counter("avfd_store_frames_total",
			"WAL frames appended since boot.")
		s.bytesWritten = r.Counter("avfd_store_bytes_written_total",
			"WAL bytes appended since boot (headers included).")
		s.fsyncs = r.Counter("avfd_store_fsyncs_total",
			"fsync calls issued by the WAL (one per frame unless NoSync).")
		s.compactions = r.Counter("avfd_store_compactions_total",
			"Snapshot compactions performed.")
		s.corrupt = r.Counter("avfd_store_corrupt_frames_total",
			"Torn or corrupt WAL tail frames discarded at open.")
		s.replayed = r.Counter("avfd_store_replayed_frames_total",
			"WAL frames applied during recovery replay at open.")
		r.GaugeFunc("avfd_store_wal_bytes",
			"Current WAL size (resets to 0 at each compaction).",
			func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.walBytes) })
		r.GaugeFunc("avfd_store_jobs",
			"Jobs materialized in the store (snapshot + WAL).",
			func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.jobs)) })
		r.GaugeFunc("avfd_store_cache_entries",
			"Result-cache entries materialized in the store (snapshot + WAL).",
			func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.cache)) })
	}

	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) loadSnapshot() error {
	b, err := os.ReadFile(filepath.Join(s.dir, snapName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read snapshot: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		// The snapshot is written atomically (tmp + rename), so a parse
		// failure means disk corruption, not a crash artifact: surface it.
		return fmt.Errorf("store: corrupt snapshot: %w", err)
	}
	s.seq = snap.Seq
	for _, jr := range snap.Jobs {
		s.jobs[jr.ID] = jr
		s.order = append(s.order, jr.ID)
	}
	for _, ce := range snap.Cache {
		s.cache[ce.Key] = ce.Value
		s.cacheOrd = append(s.cacheOrd, ce.Key)
	}
	return nil
}

// replayWAL applies every intact frame with seq > snapshot seq, then
// truncates the file after the last intact frame (dropping a torn tail)
// and positions the write offset there.
func (s *Store) replayWAL() error {
	path := filepath.Join(s.dir, walName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: open wal: %w", err)
	}
	s.f = f
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat wal: %w", err)
	}

	var (
		off     int64 // end of the last intact frame
		hdr     [frameHeader]byte
		payload []byte
		torn    bool
	)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			torn = !errors.Is(err, io.EOF) // partial header = torn tail
			break
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		// A length past the file's end is a torn or corrupt header: never
		// allocate for it.
		if n == 0 || n > maxFrame || off+frameHeader+int64(n) > fi.Size() {
			torn = true
			break
		}
		if uint32(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(f, payload); err != nil {
			torn = true
			break
		}
		if crc32.ChecksumIEEE(payload) != crc {
			torn = true
			break
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			torn = true
			break
		}
		off += frameHeader + int64(n)
		if rec.Seq <= s.seq {
			continue // pre-snapshot frame left behind by a compaction crash
		}
		s.seq = rec.Seq
		s.apply(&rec)
		if s.replayed != nil {
			s.replayed.Inc()
		}
	}
	if end, err := f.Seek(0, io.SeekEnd); err == nil && (torn || end != off) {
		if s.corrupt != nil {
			s.corrupt.Inc()
		}
		if err := f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncate torn wal tail: %w", err)
		}
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("store: seek wal: %w", err)
	}
	s.walBytes = off
	return nil
}

// apply folds one record into the materialized job map. Callers hold mu
// (or are the single-threaded open path).
func (s *Store) apply(rec *Record) {
	switch rec.Kind {
	case KindSpec:
		if _, ok := s.jobs[rec.Job]; ok {
			return // duplicate spec frame: keep the first
		}
		s.jobs[rec.Job] = &JobRecord{
			ID:        rec.Job,
			Spec:      rec.Data,
			Submitted: time.Unix(0, rec.Time),
			Updated:   time.Unix(0, rec.Time),
		}
		s.order = append(s.order, rec.Job)
	case KindState:
		if jr := s.jobs[rec.Job]; jr != nil {
			jr.State, jr.Error = rec.State, rec.Error
			jr.Updated = time.Unix(0, rec.Time)
			jr.Result, jr.Trace = rec.Data, rec.Trace
		}
	case KindInterval:
		if jr := s.jobs[rec.Job]; jr != nil {
			jr.Intervals = append(jr.Intervals, rec.Data)
		}
	case KindEvict:
		if _, ok := s.jobs[rec.Job]; ok {
			delete(s.jobs, rec.Job)
			for i, id := range s.order {
				if id == rec.Job {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
		}
	case KindCache:
		if _, ok := s.cache[rec.Job]; !ok {
			s.cacheOrd = append(s.cacheOrd, rec.Job)
		}
		s.cache[rec.Job] = rec.Data
	case KindCacheEvict:
		if _, ok := s.cache[rec.Job]; ok {
			delete(s.cache, rec.Job)
			for i, k := range s.cacheOrd {
				if k == rec.Job {
					s.cacheOrd = append(s.cacheOrd[:i], s.cacheOrd[i+1:]...)
					break
				}
			}
		}
	}
}

// append frames rec, writes it durably, folds it into the materialized
// state, and auto-compacts past the size threshold.
func (s *Store) append(rec *Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.broken != nil {
		return s.broken
	}
	// An evict frame for a job with no spec frame is a no-op under apply,
	// live and at replay alike, so it is not written. The check shares the
	// critical section that assigns seq: a spec frame appended before this
	// point is always followed by its evict frame.
	if rec.Kind == KindEvict && s.jobs[rec.Job] == nil {
		return nil
	}
	rec.Seq = s.seq + 1
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: marshal record: %w", err)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	if err := s.writeFrame(frame); err != nil {
		return err
	}
	s.seq++
	s.walBytes += int64(len(frame))
	if s.frames != nil {
		s.frames.Inc()
		s.bytesWritten.Add(int64(len(frame)))
	}
	s.apply(rec)
	if s.opt.CompactBytes > 0 && s.walBytes >= s.opt.CompactBytes {
		return s.compactLocked()
	}
	return nil
}

// writeFrame writes one frame at the log's end and fsyncs it. A failed
// write or fsync is rolled back: the log is truncated to its last good
// frame so the next frame does not land behind stray bytes (replay stops
// at the first bad frame and would drop it). If the rollback fails too,
// the store refuses further appends.
func (s *Store) writeFrame(frame []byte) error {
	_, err := s.f.Write(frame)
	if err != nil {
		err = fmt.Errorf("store: append: %w", err)
	} else if !s.opt.NoSync {
		if err = s.f.Sync(); err != nil {
			err = fmt.Errorf("store: fsync: %w", err)
		} else if s.fsyncs != nil {
			s.fsyncs.Inc()
		}
	}
	if err == nil {
		return nil
	}
	if terr := s.f.Truncate(s.walBytes); terr != nil {
		s.broken = fmt.Errorf("store: wal tail unknown after failed append: %w", terr)
	} else if _, serr := s.f.Seek(s.walBytes, io.SeekStart); serr != nil {
		s.broken = fmt.Errorf("store: wal tail unknown after failed append: %w", serr)
	}
	return err
}

// AppendSpec persists a job submission. spec is marshaled as the opaque
// wire shape recovery hands back.
func (s *Store) AppendSpec(job string, spec any, submitted time.Time) error {
	return s.appendData(&Record{Kind: KindSpec, Job: job, Time: submitted.UnixNano()}, spec)
}

// AppendState persists a job's terminal frame: its state and error, the
// final series (nil unless done) and its span summary (nil without
// tracing), so a restarted server restores the job whole from one frame.
func (s *Store) AppendState(job, state, errMsg string, result, trace any) error {
	rec := &Record{Kind: KindState, Job: job, Time: time.Now().UnixNano(), State: state, Error: errMsg}
	if trace != nil {
		var err error
		if rec.Trace, err = json.Marshal(trace); err != nil {
			return fmt.Errorf("store: marshal trace: %w", err)
		}
	}
	if result == nil {
		return s.append(rec)
	}
	return s.appendData(rec, result)
}

// AppendInterval persists one per-interval estimate — the checkpoint
// granularity: everything up to the last interval frame survives a
// crash exactly.
func (s *Store) AppendInterval(job string, point any) error {
	return s.appendData(&Record{Kind: KindInterval, Job: job}, point)
}

// Evict removes a job from the store (retention). The history frames
// disappear from disk at the next compaction. Evicting a job the store
// never recorded (a cache hit, a single-flight follower) appends nothing.
func (s *Store) Evict(job string) error {
	return s.append(&Record{Kind: KindEvict, Job: job})
}

// AppendCacheResult persists one result-cache entry under its content
// address. Re-appending a key overwrites (the value is deterministic,
// so any overwrite is a no-op in content).
func (s *Store) AppendCacheResult(key string, value any) error {
	return s.appendData(&Record{Kind: KindCache, Job: key}, value)
}

// EvictCacheEntry removes a result-cache entry (capacity eviction).
func (s *Store) EvictCacheEntry(key string) error {
	return s.append(&Record{Kind: KindCacheEvict, Job: key})
}

// appendData appends rec with v marshaled as its Data.
func (s *Store) appendData(rec *Record, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: marshal %s: %w", rec.Kind, err)
	}
	rec.Data = data
	return s.append(rec)
}

// CacheEntries returns the materialized result-cache entries in
// first-stored order. Values are shared and must be treated as
// immutable.
func (s *Store) CacheEntries() []CacheEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CacheEntry, 0, len(s.cacheOrd))
	for _, k := range s.cacheOrd {
		if v, ok := s.cache[k]; ok {
			out = append(out, CacheEntry{Key: k, Value: v})
		}
	}
	return out
}

// Jobs returns the materialized job records in first-submitted order.
// The returned slice and records are copies; the raw JSON payloads are
// shared and must be treated as immutable.
func (s *Store) Jobs() []JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobRecord, 0, len(s.order))
	for _, id := range s.order {
		if jr := s.jobs[id]; jr != nil {
			cp := *jr
			cp.Intervals = append([]json.RawMessage(nil), jr.Intervals...)
			out = append(out, cp)
		}
	}
	return out
}

// Seq returns the last assigned record sequence number.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// WALBytes returns the current WAL size (0 right after a compaction).
func (s *Store) WALBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walBytes
}

// Compact forces a snapshot compaction: materialized state to
// snapshot.json (atomic), then truncate the WAL.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	snap := snapshot{Seq: s.seq, Jobs: make([]*JobRecord, 0, len(s.order))}
	for _, id := range s.order {
		if jr := s.jobs[id]; jr != nil {
			snap.Jobs = append(snap.Jobs, jr)
		}
	}
	for _, k := range s.cacheOrd {
		if v, ok := s.cache[k]; ok {
			snap.Cache = append(snap.Cache, CacheEntry{Key: k, Value: v})
		}
	}
	b, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("store: marshal snapshot: %w", err)
	}
	path := filepath.Join(s.dir, snapName)
	tmp := path + ".tmp"
	tf, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: snapshot tmp: %w", err)
	}
	if _, err := tf.Write(b); err == nil && !s.opt.NoSync {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	// The rename is not durable until the directory entry is: fsync the
	// dir and *fail* the compaction if that fails — truncating the WAL
	// with the rename still volatile would let a power cut resurrect the
	// pre-compaction snapshot with the frames that superseded it gone.
	if !s.opt.NoSync {
		if err := syncDir(s.dir); err != nil {
			return fmt.Errorf("store: sync dir after snapshot publish: %w", err)
		}
	}
	// The snapshot is durable; every WAL frame is now redundant (replay
	// skips seq ≤ snapshot seq even if this truncate never happens).
	if err := s.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncate wal: %w", err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: rewind wal: %w", err)
	}
	// Make the truncate itself durable before new frames land: otherwise
	// a crash can replay the resurrected old tail past the snapshot.
	if !s.opt.NoSync {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: sync truncated wal: %w", err)
		}
	}
	s.walBytes = 0
	if s.compactions != nil {
		s.compactions.Inc()
	}
	return nil
}

// syncDir fsyncs a directory, making renames within it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close syncs and closes the WAL. Further appends return ErrClosed —
// which is exactly what a crash looks like to in-flight jobs, a property
// the crash-recovery tests lean on.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }
