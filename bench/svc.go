package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"avfsim/internal/core"
	"avfsim/internal/experiment"
	"avfsim/internal/span"
)

// clients is the closed-loop client count: one per core of the 2-core
// host the baseline was taken on, each on its own keep-alive connection.
const clients = 2

// avfdFlags are the daemon flags of every run. One worker leaves a core
// for the clients, HTTP, fsync and GC. Retention is capped so memory
// stays flat over a window instead of growing with the jobs completed.
// A traced run widens the span ring so no span of the window is dropped.
func avfdFlags(dataDir string, traced bool) []string {
	f := []string{"-workers", "1", "-data-dir", dataDir, "-retention-max", "8"}
	if traced {
		f = append(f, "-span-cap", "262144")
	}
	return f
}

// buildAvfd builds cmd/avfd the way `make build` does, with the
// committed PGO profile.
func buildAvfd(ctx context.Context, root, bin string) error {
	pgo, err := pgoFlag(root)
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-pgo="+pgo, "-o", bin, "./cmd/avfd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build avfd: %w", err)
	}
	return nil
}

// daemon is one running avfd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	log     *os.File
	done    chan struct{} // closed once the process has exited
	waitErr error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs avfd and returns once /v1/healthz answers 200.
func startDaemon(ctx context.Context, bin, logPath string, flags []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start avfd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		close(d.done)
	}()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := hc.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return d, nil
			}
		}
		select {
		case <-d.done:
			d.stop()
			return nil, fmt.Errorf("avfd exited during start-up: %v (see %s)", d.waitErr, logPath)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("avfd not healthy after 20s")
		}
	}
}

// stop sends SIGTERM, waits for a clean exit (SIGKILL after 15 s), and
// closes the log.
func (d *daemon) stop() {
	select {
	case <-d.done:
	default:
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(15 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
	}
	d.log.Close()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// client is one closed-loop client on its own keep-alive connection.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr, base: base}
}

// jobRun is one submitted job as the client saw it.
type jobRun struct {
	spec                      jobSpec
	id                        string
	cached                    bool
	start, submitted, opened  time.Time // POST sent, 202 read, stream GET sent
	end                       time.Time // last stream byte read
	stream                    []byte
	series                    []experiment.StructSeries // set-up jobs only
	trace                     span.TraceID
	rootSpan, submit, streamS span.SpanID
}

func (j *jobRun) e2e() time.Duration { return j.end.Sub(j.start) }

// run submits spec and reads its stream to the end. A non-zero trace
// sends a traceparent naming the client's submit span.
func (c *client) run(ctx context.Context, j *jobRun) error {
	body, err := json.Marshal(j.spec)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if !j.trace.IsZero() {
		req.Header.Set("traceparent", span.FormatTraceparent(j.trace, j.submit, 0x01))
	}
	j.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	rb, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.submitted = time.Now()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(rb))
	}
	var ack struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	if err := json.Unmarshal(rb, &ack); err != nil || ack.ID == "" {
		return fmt.Errorf("submit: bad response %q", rb)
	}
	j.id, j.cached = ack.ID, ack.Cached

	j.opened = time.Now()
	j.stream, err = c.get(ctx, "/v1/jobs/"+j.id+"/stream")
	j.end = time.Now()
	return err
}

func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, nil
}

// series fetches a finished job's online and reference series.
func (c *client) series(ctx context.Context, id string) ([]experiment.StructSeries, error) {
	b, err := c.get(ctx, "/v1/jobs/"+id)
	if err != nil {
		return nil, err
	}
	var st struct {
		Result *struct {
			Series []struct {
				Online    []float64 `json:"online"`
				Reference []float64 `json:"reference"`
			} `json:"series"`
		} `json:"result"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("job status: %w", err)
	}
	if st.Result == nil || len(st.Result.Series) != structures {
		return nil, fmt.Errorf("job status of %s: no %d-structure result", id, structures)
	}
	out := make([]experiment.StructSeries, len(st.Result.Series))
	for i, s := range st.Result.Series {
		if len(s.Online) != len(s.Reference) {
			return nil, fmt.Errorf("job status of %s: series lengths differ", id)
		}
		out[i] = experiment.StructSeries{Online: s.Online, Reference: s.Reference}
	}
	return out, nil
}

// spanNames every traced job's daemon spans must include; executed jobs
// also have queue, dispatch and run.
var (
	hitSpans = []string{"job", "admission", "stream"}
	runSpans = []string{"job", "admission", "queue", "dispatch", "run", "stream"}
)

// spans fetches a job's daemon spans. The root span closes just after
// the stream's end event, so an incomplete set is fetched again briefly.
func (c *client) spans(ctx context.Context, id string, want []string) ([]span.Span, error) {
	var missing string
	for try := 0; try < 200; try++ {
		b, err := c.get(ctx, "/v1/jobs/"+id+"/spans")
		if err != nil {
			return nil, err
		}
		var out []span.Span
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var sp span.Span
			if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
				return nil, fmt.Errorf("spans of %s: %w", id, err)
			}
			out = append(out, sp)
		}
		have := map[string]bool{}
		for _, sp := range out {
			have[sp.Name] = true
		}
		missing = ""
		for _, n := range want {
			if !have[n] {
				missing = n
				break
			}
		}
		if missing == "" {
			return out, nil
		}
		time.Sleep(time.Millisecond)
	}
	return nil, fmt.Errorf("spans of %s: no %q span", id, missing)
}

// counters scrapes the unlabelled series of GET /metrics.
func (c *client) counters(ctx context.Context) (map[string]float64, error) {
	b, err := c.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, ln := range strings.Split(string(b), "\n") {
		f := strings.Fields(ln)
		if len(f) != 2 || strings.HasPrefix(ln, "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			m[f[0]] = v
		}
	}
	return m, nil
}

// mintTrace derives a job's trace and span IDs from the seed.
func mintTrace(seed uint64, k int) (span.TraceID, [3]span.SpanID) {
	var t span.TraceID
	binary.BigEndian.PutUint64(t[:8], mix(seed, uint64(k)<<2)|1)
	binary.BigEndian.PutUint64(t[8:], mix(seed, uint64(k)<<2|1))
	var ids [3]span.SpanID
	for i := range ids {
		binary.BigEndian.PutUint64(ids[i][:], mix(seed^0x5bd1e995, uint64(k)*3+uint64(i))|1)
	}
	return t, ids
}

// svcRun gathers a service window's operations.
type svcRun struct {
	mu          sync.Mutex
	completions []time.Time
	lat         []float64 // untraced jobs' e2e, ms
	traced      []*jobRun
	tracedSpans [][]span.Span
	recompute   []*jobRun
	accuracy    [][]experiment.StructSeries
}

// runService runs a service workload against a real avfd over loopback
// HTTP. Set-up (exec, health, warm-up jobs) runs setupReps times on fresh
// daemons; the last one serves the timed window.
func runService(ctx context.Context, c settings, w *benchWorkload, chk *checks, t *tally, prov map[string]any) (*outcome, error) {
	bin, err := filepath.Abs(filepath.Join(c.root, ".bench_build", "bin", "avfd"))
	if err != nil {
		return nil, err
	}
	if err := buildAvfd(ctx, c.root, bin); err != nil {
		return nil, err
	}
	prov["avfd_flags"] = strings.Join(avfdFlags("<out>/avfd-data-<rep>", c.trace), " ")
	prov["clients"] = clients

	var (
		setups  []time.Duration
		d       *daemon
		cls     []*client
		leaders []*jobRun
	)
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for rep := 0; rep < c.setupReps; rep++ {
		if d != nil {
			d.stop()
			d = nil
		}
		dataDir := filepath.Join(c.out, fmt.Sprintf("avfd-data-%d", rep))
		t0 := time.Now()
		d, err = startDaemon(ctx, bin, filepath.Join(c.out, fmt.Sprintf("avfd-%d.log", rep)), avfdFlags(dataDir, c.trace))
		if err != nil {
			return nil, err
		}
		cls = make([]*client, clients)
		for i := range cls {
			cls[i] = newClient(d.base)
		}
		leaders, err = warmUp(ctx, c, w, cls)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	var leaderSeries [][]experiment.StructSeries
	for _, l := range leaders {
		leaderSeries = append(leaderSeries, l.series)
	}

	before, err := cls[0].counters(ctx)
	if err != nil {
		return nil, err
	}
	selfCPU0, err := cpuTime(0)
	if err != nil {
		return nil, err
	}
	avfdCPU0, err := cpuTime(d.pid())
	if err != nil {
		return nil, err
	}
	run := &svcRun{}
	start := time.Now()
	disp := newDispenser(w, start.Add(time.Duration(c.seconds*float64(time.Second))))
	var wg sync.WaitGroup
	for i := range cls {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for ctx.Err() == nil {
				k, ok := disp.take()
				if !ok {
					return
				}
				t.add(serveOne(ctx, c, w, cl, k, leaders, run, chk))
			}
		}(cls[i])
	}
	wg.Wait()
	window := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	avfdCPU1, err := cpuTime(d.pid())
	if err != nil {
		return nil, err
	}
	selfCPU1, err := cpuTime(0)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}
	after, err := cls[0].counters(ctx)
	if err != nil {
		return nil, err
	}
	for _, cl := range cls {
		cl.tr.CloseIdleConnections()
	}
	d.stop()
	d = nil

	// The sampled svc-miss jobs are recomputed in-process after the
	// window, so the recomputation takes no CPU from the daemon.
	for _, j := range run.recompute {
		var ests []core.Estimate
		rc := j.spec.runConfig()
		rc.OnInterval = func(e core.Estimate) { ests = append(ests, e) }
		_, err := experiment.RunCtx(ctx, rc)
		if err == nil {
			pts, _ := checkStream(j.stream, j.spec.Intervals)
			err = checkRecompute(pts, ests)
		}
		t.add(chk.record("svc.recompute", err))
	}
	for rep := 0; rep < c.setupReps; rep++ {
		os.RemoveAll(filepath.Join(c.out, fmt.Sprintf("avfd-data-%d", rep)))
	}

	ops := float64(len(run.completions))
	rates := roundRates(start, run.completions, w.roundLen)
	q1, med, q3 := quartiles(rates)
	out := &outcome{
		values: map[string]float64{},
		info: map[string]any{
			"ops": len(run.completions), "rounds": len(rates), "window_s": window.Seconds(),
			"round_ops_per_s_q1_med_q3": []float64{q1, med, q3},
			"setup_reps_s":              durationsSeconds(setups),
			"latency_samples":           len(run.lat),
			"avfd_cpu_s":                (avfdCPU1 - avfdCPU0).Seconds(),
		},
		expect: []string{"svc.job"},
	}
	if w.name == "svc-dup" {
		out.expect = append(out.expect, "svc.cache_replay")
	} else {
		out.expect = append(out.expect, "svc.stream_shape", "svc.status", "svc.recompute")
	}
	if !c.trace {
		mae := absErr(run.accuracy)
		if w.name == "svc-dup" {
			mae = absErr(leaderSeries)
		}
		out.values["setup_s"] = percentile(durationsSeconds(setups), 50)
		out.values["ops_per_s"] = med
		out.values["op_p50_ms"] = percentile(run.lat, 50)
		out.values["op_p90_ms"] = percentile(run.lat, 90)
		out.values["cpu_ms_per_op"] = ms(avfdCPU1-avfdCPU0) / ops
		out.values["peak_rss_mb"] = rss
		out.values["avf_mae"] = mae
		return out, nil
	}

	out.expect = append(out.expect, "svc.spans", "svc.spans_dropped")
	chk.record("svc.spans_dropped", checkDropped(before["avfd_spans_dropped_total"], after["avfd_spans_dropped_total"]))
	delta := func(name string) float64 { return after[name] - before[name] }
	v := out.values
	layerSpans(v, run)
	v["store.fsyncs_per_job"] = delta("avfd_store_fsyncs_total") / ops
	v["store.bytes_per_job"] = delta("avfd_store_bytes_written_total") / ops
	v["http.streamed_points_per_job"] = delta("avfd_http_streamed_points_total") / ops
	hits, misses := delta("avfd_cache_hits_total"), delta("avfd_cache_misses_total")
	v["cache.hits"], v["cache.misses"] = hits, misses
	v["cache.hit_ratio"] = 0
	if hits+misses > 0 {
		v["cache.hit_ratio"] = hits / (hits + misses)
	}
	v["client.cpu_ms_per_job"] = ms(selfCPU1-selfCPU0) / ops
	v["span.dropped"] = delta("avfd_spans_dropped_total")
	tracedP50 := percentile(e2eMs(run.traced), 50)
	untracedP50 := percentile(run.lat, 50)
	v["trace.overhead_pct"] = 100 * (tracedP50 - untracedP50) / untracedP50
	out.info["traced_jobs"] = len(run.traced)
	zeroAbsentLayers(v)
	return out, writeSpans(filepath.Join(c.out, "spans.ndjson"), serviceSpans(run))
}

// warmUp runs the workload's set-up jobs across the clients and returns
// them in order once each has streamed to its end. Each job's series is
// fetched at once, before retention can evict the job.
func warmUp(ctx context.Context, c settings, w *benchWorkload, cls []*client) ([]*jobRun, error) {
	specs := w.warm(c.seed)
	jobs := make([]*jobRun, len(specs))
	errs := make([]error, len(cls))
	var wg sync.WaitGroup
	for i := range cls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := i; k < len(specs); k += len(cls) {
				j := &jobRun{spec: c.spec(specs[k])}
				err := cls[i].run(ctx, j)
				if err == nil {
					_, err = checkStream(j.stream, j.spec.Intervals)
				}
				if err == nil {
					j.series, err = cls[i].series(ctx, j.id)
				}
				if err != nil {
					errs[i] = err
					return
				}
				jobs[k] = j
			}
		}(i)
	}
	wg.Wait()
	return jobs, errors.Join(errs...)
}

// serveOne runs the window's k-th job and its checks; it reports whether
// the job succeeded.
func serveOne(ctx context.Context, c settings, w *benchWorkload, cl *client, k int, leaders []*jobRun, run *svcRun, chk *checks) bool {
	j := &jobRun{spec: c.spec(w.job(c.seed, k))}
	traced := c.trace && k%2 == 0
	if traced {
		var ids [3]span.SpanID
		j.trace, ids = mintTrace(c.seed, k)
		j.rootSpan, j.submit, j.streamS = ids[0], ids[1], ids[2]
	}
	if !chk.record("svc.job", cl.run(ctx, j)) {
		return false
	}
	ok := true
	if w.name == "svc-dup" {
		var err error
		if !j.cached {
			err = fmt.Errorf("cache replay: job %s was not served from the cache", j.id)
		} else {
			err = checkSameBytes(j.stream, leaders[dupIndex(c.seed, k)].stream)
		}
		ok = chk.record("svc.cache_replay", err)
	} else {
		_, err := checkStream(j.stream, j.spec.Intervals)
		ok = chk.record("svc.stream_shape", err)
	}

	// Everything below runs after the job's timed interval.
	var ss []experiment.StructSeries
	if w.name == "svc-miss" && k < w.accuracyRounds*w.roundLen {
		var err error
		ss, err = cl.series(ctx, j.id)
		ok = chk.record("svc.status", err) && ok
	}
	var spans []span.Span
	if traced {
		want := runSpans
		if w.name == "svc-dup" {
			want = hitSpans
		}
		var err error
		spans, err = cl.spans(ctx, j.id, want)
		ok = chk.record("svc.spans", err) && ok
	}

	run.mu.Lock()
	defer run.mu.Unlock()
	run.completions = append(run.completions, j.end)
	if !traced {
		run.lat = append(run.lat, ms(j.e2e()))
	} else if spans != nil {
		run.traced = append(run.traced, j)
		run.tracedSpans = append(run.tracedSpans, spans)
	}
	if ss != nil {
		run.accuracy = append(run.accuracy, ss)
	}
	if w.name == "svc-miss" && k%16 == int(c.seed%16) {
		run.recompute = append(run.recompute, j)
	}
	return ok
}

func e2eMs(jobs []*jobRun) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = ms(j.e2e())
	}
	return out
}

func spanInterval(sp span.Span) interval { return interval{sp.Start, sp.End} }

// layerSpans fills the span-derived service metrics from the traced
// jobs: each layer's self time, and the end-to-end time the daemon's
// spans do not cover.
func layerSpans(v map[string]float64, run *svcRun) {
	var submit, admission, queue, dispatch, runSelf, stream, tail, residual []float64
	var walTotal float64
	for i, j := range run.traced {
		var walIvs, all []interval
		for _, sp := range run.tracedSpans[i] {
			all = append(all, spanInterval(sp))
			if sp.Name == "wal" {
				walIvs = append(walIvs, spanInterval(sp))
				walTotal += sp.DurationSeconds * 1e3
			}
		}
		for _, sp := range run.tracedSpans[i] {
			d := sp.DurationSeconds * 1e3
			switch sp.Name {
			case "admission":
				admission = append(admission, d)
			case "queue":
				queue = append(queue, d)
			case "dispatch":
				dispatch = append(dispatch, d)
			case "run":
				runSelf = append(runSelf, ms(selfTime(spanInterval(sp), walIvs)))
			case "stream":
				stream = append(stream, d)
				tail = append(tail, ms(j.end.Sub(j.opened))-d)
			}
		}
		submit = append(submit, ms(j.submitted.Sub(j.start)))
		e2e := interval{j.start, j.end}
		residual = append(residual, ms(e2e.end.Sub(e2e.start)-covered(e2e, all)))
	}
	v["client.submit_ms_p50"] = percentile(submit, 50)
	v["server.admission_ms_p50"] = percentile(admission, 50)
	v["sched.queue_ms_p50"] = percentile(queue, 50)
	v["sched.queue_ms_p90"] = percentile(queue, 90)
	v["sched.dispatch_ms_p50"] = percentile(dispatch, 50)
	v["experiment.run_ms_p50"] = percentile(runSelf, 50)
	v["store.wal_ms_per_job"] = 0
	if len(run.traced) > 0 {
		v["store.wal_ms_per_job"] = walTotal / float64(len(run.traced))
	}
	v["server.stream_ms_p50"] = percentile(stream, 50)
	v["client.tail_ms_p50"] = percentile(tail, 50)
	v["avfd.residual_ms_p50"] = percentile(residual, 50)
}

// serviceSpans returns the traced jobs' client spans and daemon spans:
// the daemon's root span of each job names the client's submit span as
// its parent, so one file holds the whole trace.
func serviceSpans(run *svcRun) []span.Span {
	var all []span.Span
	for i, j := range run.traced {
		tid := j.trace.String()
		root := j.rootSpan.String()
		mk := func(name string, id span.SpanID, parent string, a, b time.Time) span.Span {
			return span.Span{TraceID: tid, SpanID: id.String(), Parent: parent, Name: name, Job: j.id,
				Status: "ok", Start: a, End: b, DurationSeconds: b.Sub(a).Seconds()}
		}
		all = append(all,
			mk("client.job", j.rootSpan, "", j.start, j.end),
			mk("client.submit", j.submit, root, j.start, j.submitted),
			mk("client.stream", j.streamS, root, j.opened, j.end))
		all = append(all, run.tracedSpans[i]...)
	}
	return all
}
