package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"avfsim/internal/sched"
	"avfsim/internal/span"
	"avfsim/internal/store"
)

// TestLifecycleModel is a model-based test of the job lifecycle. Seeded
// random operation sequences run against an in-process server with a
// store, the result cache and spans:
//
//   - submit a unique spec, a duplicate, or a concurrent burst of
//     duplicates (and, now and then, a job that runs until canceled);
//   - cancel a queued, running, leader or follower job;
//   - crash: copy the data directory with wal.log cut at a random byte
//     offset among the frames this boot wrote (earlier ones are
//     durable), then boot a new store and server on the copy and
//     Recover; or restart after a drain that cancels every job;
//   - run a retention sweep, or compact the store.
//
// The reference is one experiment.RunCtx run per spec. Invariants: each
// job reaches one terminal state and never leaves it; a done job's
// stream bytes, status series and the reference agree; across crashes
// no estimate is lost, duplicated or invented; cache hits + misses +
// followers equal the cache-eligible submits; every span is closed
// exactly once. Longer runs: go test -run TestLifecycleModel -count=N.
func TestLifecycleModel(t *testing.T) {
	specs := make([]string, 6)
	refs := make([][]IntervalPoint, len(specs)+1)
	for i := range specs {
		specs[i] = quickSpec(100 + i)
		refs[i], _ = referenceRun(t, specs[i])
	}
	// The last spec never finishes on its own: it holds a worker so jobs
	// queue, and it is only ever canceled.
	specs = append(specs, `{"benchmark":"mesa","scale":0.01,"seed":9,"m":100,"n":10,"intervals":100000}`)
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			m := &model{t: t, rng: rand.New(rand.NewPCG(seed, 0)), specs: specs, refs: refs,
				specOf: map[string]int{}, used: map[int]bool{}, canceled: map[string]bool{}}
			m.b = m.boot(t.TempDir())
			defer func() { m.b.shutdown() }()
			for op := 0; op < 40; op++ {
				m.step()
			}
			m.quiesce()
		})
	}
}

type model struct {
	t        *testing.T
	rng      *rand.Rand
	specs    []string
	refs     [][]IntervalPoint // nil for the never-ending spec
	specOf   map[string]int    // job id → spec index
	used     map[int]bool      // specs submitted at least once
	canceled map[string]bool   // jobs a cancel op targeted
	b        *boot
}

// boot is one server lifetime over one data directory.
type boot struct {
	dir string
	// base is the WAL size this boot started from (0 after a
	// compaction): earlier frames are durable, so a crash cuts after it.
	base     int
	st       *store.Store
	pool     *sched.Pool
	srv      *Server
	h        http.Handler
	eligible int64             // cache-eligible submits: HTTP plus Recover
	served   map[string]bool   // jobs submitted over HTTP in this boot
	restored map[string]bool   // jobs Recover restored from a terminal frame
	seen     map[string]string // first terminal state observed per job
}

func (m *model) boot(dir string) *boot {
	st, err := store.Open(dir, store.Options{NoSync: true, CompactBytes: -1})
	if err != nil {
		m.t.Fatal(err)
	}
	pool := sched.New(sched.Options{Workers: 2, QueueCap: 256})
	srv := New(pool, WithStore(st), WithResultCache(0), WithRetention(0, 8),
		WithSpans(span.NewRecorder(1<<16)), WithSLO(span.NewEngine(span.DefaultObjectives())),
		WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	return &boot{dir: dir, base: int(st.WALBytes()), st: st, pool: pool, srv: srv, h: srv.Handler(),
		served: map[string]bool{}, restored: map[string]bool{}, seen: map[string]string{}}
}

func (b *boot) shutdown() {
	b.srv.CancelAll()
	b.pool.Shutdown(context.Background())
	b.srv.Close()
	b.st.Close()
}

func (m *model) do(method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	m.b.h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

func (m *model) step() {
	switch r := m.rng.IntN(20); {
	case r < 4: // a unique spec while any is left, else a duplicate
		for i := range m.refs[:len(m.specs)-1] {
			if !m.used[i] {
				m.submit(i, 1)
				return
			}
		}
		m.submit(m.rng.IntN(len(m.specs)-1), 1)
	case r < 8:
		m.submit(m.rng.IntN(len(m.specs)-1), 1)
	case r < 10:
		m.submit(m.rng.IntN(len(m.specs)-1), 2+m.rng.IntN(4))
	case r < 11:
		if len(m.live(len(m.specs)-1)) == 0 {
			m.submit(len(m.specs)-1, 1)
		}
	case r < 14:
		if live := m.live(-1); len(live) > 0 {
			id := live[m.rng.IntN(len(live))]
			m.cancel(id)
		}
	case r < 15:
		m.reboot(m.rng.IntN(3) == 0)
	case r < 16:
		m.b.srv.sweepRetention(time.Now())
	case r < 17:
		if err := m.b.st.Compact(); err != nil {
			m.t.Fatal(err)
		}
		m.b.base = 0
	default:
		time.Sleep(time.Duration(m.rng.IntN(3)) * time.Millisecond)
	}
	m.observe()
}

// submit posts n concurrent copies of spec i.
func (m *model) submit(i, n int) {
	ids := make(chan string, n)
	for k := 0; k < n; k++ {
		go func() {
			rec := m.do(http.MethodPost, "/v1/jobs", m.specs[i])
			var out struct{ ID string }
			if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &out) != nil {
				ids <- ""
				return
			}
			ids <- out.ID
		}()
	}
	for k := 0; k < n; k++ {
		id := <-ids
		if id == "" {
			m.t.Fatalf("submit of spec %d rejected", i)
		}
		m.specOf[id], m.used[i], m.b.served[id] = i, true, true
		delete(m.canceled, id) // a crash may hand out a lost job's id again
		m.b.eligible++
	}
}

// cancel deletes job id; retention may have evicted it since it was
// seen unfinished, and then there is nothing to cancel.
func (m *model) cancel(id string) {
	switch rec := m.do(http.MethodDelete, "/v1/jobs/"+id, ""); {
	case rec.Code == http.StatusAccepted:
		m.canceled[id] = true
	case rec.Code != http.StatusNotFound || m.registered(id):
		m.t.Fatalf("DELETE %s = %d", id, rec.Code)
	}
}

func (m *model) registered(id string) bool {
	m.b.srv.mu.Lock()
	defer m.b.srv.mu.Unlock()
	return m.b.srv.jobs[id] != nil
}

// jobs snapshots the registered jobs in id order.
func (m *model) jobs() []*job {
	s := m.b.srv
	s.mu.Lock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.mu.Unlock()
	sort.Slice(js, func(a, b int) bool { return js[a].id < js[b].id })
	return js
}

// live lists the unfinished jobs of spec i (-1: any spec).
func (m *model) live(i int) []string {
	var ids []string
	for _, j := range m.jobs() {
		if !terminal(j.currentState()) && (i < 0 || m.specOf[j.id] == i) {
			ids = append(ids, j.id)
		}
	}
	return ids
}

// observe checks that no job leaves its terminal state, and that the
// WAL holds, and the cache has settled, every terminal state a client
// can see.
func (m *model) observe() {
	states := map[string]string{}
	for _, j := range m.jobs() {
		states[j.id] = j.currentState()
		if prev, ok := m.b.seen[j.id]; ok && prev != states[j.id] {
			m.t.Fatalf("%s left terminal state %s for %s", j.id, prev, states[j.id])
		}
		if terminal(states[j.id]) {
			m.b.seen[j.id] = states[j.id]
		}
		if _, ok := m.b.srv.cache.Lookup(j.cacheKey); j.cacheLead && states[j.id] == "done" && !ok {
			m.t.Fatalf("%s visible as done before its cache entry", j.id)
		}
	}
	stored := map[string]string{}
	for _, jr := range m.b.st.Jobs() {
		stored[jr.ID] = jr.State
	}
	for _, j := range m.jobs() { // still registered, so not evicted from the store
		if st := states[j.id]; j.recorded && terminal(st) && stored[j.id] != st {
			m.t.Fatalf("%s visible as %s while the WAL holds %q", j.id, st, stored[j.id])
		}
	}
}

// reboot boots a new store and server on a copy of the data directory
// and recovers it. A crash cuts wal.log at a random offset among the
// frames this boot wrote (earlier ones are durable); a drain stops the
// old server first, canceling its jobs, and keeps every frame.
func (m *model) reboot(drain bool) {
	old, dir := m.b, m.t.TempDir()
	leaderOf := map[string]string{}
	if drain {
		for _, j := range m.jobs() {
			leaderOf[j.id] = j.status().CacheLeader
		}
		old.srv.BeginDrain()
		old.shutdown()
	}
	if snap, err := os.ReadFile(filepath.Join(old.dir, "snapshot.json")); err == nil {
		if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), snap, 0o644); err != nil {
			m.t.Fatal(err)
		}
	}
	wal, err := os.ReadFile(filepath.Join(old.dir, "wal.log"))
	if err != nil {
		m.t.Fatal(err)
	}
	if !drain {
		wal = wal[:old.base+m.rng.IntN(len(wal)-old.base+1)]
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), wal, 0o644); err != nil {
		m.t.Fatal(err)
	}
	if !drain {
		old.shutdown()
	}

	want := m.replay(dir)
	unfinished := 0
	for id, w := range want {
		ref := m.refs[m.specOf[id]]
		if ref != nil && (len(w.points) > len(ref) || !samePoints(w.points, ref[:len(w.points)])) {
			m.t.Fatalf("%s: WAL holds points that are not a prefix of the reference", id)
		}
		if w.state == "" {
			unfinished++
		}
		if drain && w.state == "canceled" && !m.canceled[id] && !m.canceled[leaderOf[id]] {
			m.t.Fatalf("%s: the drain's cancel is in the WAL", id)
		}
	}
	m.b = m.boot(dir)
	m.b.eligible = int64(unfinished) // Recover routes each through the cache
	resumed, err := m.b.srv.Recover()
	if err != nil || resumed != unfinished {
		m.t.Fatalf("Recover = %d, %v; want %d unfinished jobs resumed", resumed, err, unfinished)
	}
	stored := map[string]bool{}
	for _, jr := range m.b.st.Jobs() {
		stored[jr.ID] = true
	}
	registered := map[string]bool{}
	for _, j := range m.jobs() {
		registered[j.id] = true
		w, ok := want[j.id]
		if !ok {
			m.t.Fatalf("%s exists after the crash without a spec frame before the cut", j.id)
		}
		if w.state != "" {
			m.b.restored[j.id] = true
			s := j.status()
			if s.State != w.state {
				m.t.Fatalf("%s came back %s, its terminal frame says %s", j.id, s.State, w.state)
			}
			if s.State == "done" && (!samePoints(s.Intervals, m.refs[m.specOf[j.id]]) || s.Result == nil) {
				m.t.Fatalf("%s came back done without its reference series", j.id)
			}
		}
	}
	for id := range want {
		if !registered[id] && stored[id] {
			m.t.Fatalf("%s lost at recovery: in the store, not served", id)
		}
	}
}

type walJob struct {
	state  string // "" until the terminal frame
	points []IntervalPoint
}

// replay decodes the data directory as the reference model of the WAL:
// the snapshot's jobs, then every whole frame after the snapshot's seq.
func (m *model) replay(dir string) map[string]*walJob {
	var snap struct {
		Seq  uint64
		Jobs []struct {
			ID        string
			State     string
			Intervals []json.RawMessage
		}
	}
	if b, err := os.ReadFile(filepath.Join(dir, "snapshot.json")); err == nil {
		if err := json.Unmarshal(b, &snap); err != nil {
			m.t.Fatal(err)
		}
	}
	jobs := map[string]*walJob{}
	addPoint := func(w *walJob, raw json.RawMessage) {
		var pt IntervalPoint
		if err := json.Unmarshal(raw, &pt); err != nil {
			m.t.Fatal(err)
		}
		w.points = append(w.points, pt)
	}
	for _, sj := range snap.Jobs {
		w := &walJob{state: sj.State}
		for _, raw := range sj.Intervals {
			addPoint(w, raw)
		}
		jobs[sj.ID] = w
	}
	b, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		m.t.Fatal(err)
	}
	for len(b) >= 8 {
		n := int(binary.LittleEndian.Uint32(b))
		if n == 0 || 8+n > len(b) || crc32.ChecksumIEEE(b[8:8+n]) != binary.LittleEndian.Uint32(b[4:]) {
			break
		}
		var rec store.Record
		if err := json.Unmarshal(b[8:8+n], &rec); err != nil {
			m.t.Fatal(err)
		}
		b = b[8+n:]
		w := jobs[rec.Job]
		switch {
		case rec.Seq <= snap.Seq:
		case rec.Kind == store.KindSpec && w == nil:
			jobs[rec.Job] = &walJob{}
		case rec.Kind == store.KindInterval && w != nil:
			addPoint(w, rec.Data)
		case rec.Kind == store.KindState && w != nil:
			w.state = rec.State
		case rec.Kind == store.KindEvict:
			delete(jobs, rec.Job)
		}
	}
	return jobs
}

func samePoints(a, b []IntervalPoint) bool {
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	return len(a) == len(b) && (len(a) == 0 || string(ab) == string(bb))
}

// quiesce cancels the never-ending jobs, waits for every job to end,
// and checks the boot's end state.
func (m *model) quiesce() {
	for _, id := range m.live(len(m.specs) - 1) {
		m.cancel(id)
	}
	for deadline := time.Now().Add(30 * time.Second); len(m.live(-1)) > 0; {
		if time.Now().After(deadline) {
			m.t.Fatalf("jobs never finished: %v", m.live(-1))
		}
		time.Sleep(time.Millisecond)
	}
	m.observe()

	spans := map[string]map[string][]span.Span{} // job → name → spans
	ids := map[string]bool{}
	for _, sp := range m.b.srv.spans.Snapshot() {
		if ids[sp.SpanID] {
			m.t.Fatalf("span %s (%s of %s) recorded twice", sp.SpanID, sp.Name, sp.Job)
		}
		ids[sp.SpanID] = true
		if spans[sp.Job] == nil {
			spans[sp.Job] = map[string][]span.Span{}
		}
		spans[sp.Job][sp.Name] = append(spans[sp.Job][sp.Name], sp)
	}
	for _, j := range m.jobs() {
		s := j.status()
		switch ref := m.refs[m.specOf[j.id]]; {
		case s.State == "done":
			if !samePoints(s.Intervals, ref) || s.Result == nil {
				m.t.Fatalf("%s done with a series that differs from the reference", j.id)
			}
			rec := m.do(http.MethodGet, "/v1/jobs/"+j.id+"/stream", "")
			if got := rec.Body.String(); got != streamOf(m.t, ref, "done") {
				m.t.Fatalf("%s stream differs from the reference:\n%s", j.id, got)
			}
		case s.State != "canceled":
			m.t.Fatalf("%s ended %s", j.id, s.State)
		case ref != nil && !m.canceled[j.id] && !m.canceled[s.CacheLeader] && !m.b.restored[j.id]:
			m.t.Fatalf("%s canceled, but no one canceled it or its leader %q", j.id, s.CacheLeader)
		}
		// Every span closed exactly once: one root for every job traced in
		// this boot, one queue span per own run, a dispatch span exactly
		// when a run span, and none twice.
		ns := spans[j.id]
		roots := ns["job"]
		if len(roots) > 1 || (m.b.served[j.id] || j.task != nil) && len(roots) != 1 {
			m.t.Fatalf("%s has %d root spans", j.id, len(roots))
		}
		if len(roots) == 1 && roots[0].Status != s.State {
			m.t.Fatalf("%s root span ended %s, job %s", j.id, roots[0].Status, s.State)
		}
		if len(ns["queue"]) > 1 || len(ns["dispatch"]) != len(ns["run"]) || len(ns["run"]) > 1 ||
			j.task != nil && len(ns["queue"]) != 1 {
			m.t.Fatalf("%s spans: %d queue, %d dispatch, %d run",
				j.id, len(ns["queue"]), len(ns["dispatch"]), len(ns["run"]))
		}
	}
	cs := m.b.srv.cache.Stats()
	if got := cs.Hits + cs.Misses + cs.Followers; got != m.b.eligible {
		m.t.Fatalf("cache ledger: %d hits + %d misses + %d followers = %d, want %d eligible submits",
			cs.Hits, cs.Misses, cs.Followers, got, m.b.eligible)
	}
}
