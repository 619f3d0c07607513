// Command bench is the repository benchmark: it runs one workload for a
// fixed window, checks every output, and prints one JSON result line.
//
//	bash bench/run.sh --workload sim-classic --seed 1 --seconds 12 --trace 0
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1
// it holds the per-layer metrics of a separately traced run. The full
// report (provenance, check counts, sample sizes) and, for traced runs,
// the merged span NDJSON go to -out. -compare summarises paired runs of
// two commits. See bench/README.md.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"avfsim/internal/span"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run; every workload reports
// each of them. BENCHMARK.json declares the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"avf_mae", "avf"},
}

// perLayer are the metrics of a traced run. Simulator layers read 0 on
// the service workloads and service layers read 0 on the simulator
// workloads: the layer does not run there.
var perLayer = []metricDef{
	{"pipeline.self_ns_per_cycle", "ns"},
	{"softarch.hooks_ns_per_cycle", "ns"},
	{"core.tick_ns_per_cycle", "ns"},
	{"core.failure_hook_ns_per_cycle", "ns"},
	{"experiment.construct_ms_per_run", "ms"},
	{"experiment.residual_ns_per_cycle", "ns"},
	{"sim.untraced_ns_per_cycle", "ns"},
	{"sim.allocs_per_cycle", "count"},
	{"sim.bytes_per_cycle", "B"},
	{"pipeline.cycles", "count"},
	{"pipeline.retired", "count"},
	{"core.injections", "count"},
	{"core.failures", "count"},
	{"core.estimates", "count"},
	{"softarch.hook_calls", "count"},
	{"core.failure_hook_calls", "count"},
	{"client.submit_ms_p50", "ms"},
	{"server.admission_ms_p50", "ms"},
	{"sched.queue_ms_p50", "ms"},
	{"sched.queue_ms_p90", "ms"},
	{"sched.dispatch_ms_p50", "ms"},
	{"experiment.run_ms_p50", "ms"},
	{"store.wal_ms_per_job", "ms"},
	{"store.fsyncs_per_job", "count"},
	{"store.bytes_per_job", "B"},
	{"server.stream_ms_p50", "ms"},
	{"client.tail_ms_p50", "ms"},
	{"http.streamed_points_per_job", "count"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"client.cpu_ms_per_job", "ms"},
	{"avfd.residual_ms_p50", "ms"},
	{"span.dropped", "count"},
	{"trace.overhead_pct", "%"},
}

// settings is one run's settings.
type settings struct {
	root    string // repository root (holds go.mod and cmd/avfd)
	out     string
	seed    uint64
	seconds float64
	trace   bool
	quick   bool
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
}

func (c *settings) spec(s jobSpec) jobSpec {
	if c.quick {
		return quickSpec(s)
	}
	return s
}

// checks counts each named output check: how often it ran, how often it
// failed, and the first few failures.
type checks struct {
	mu     sync.Mutex
	runs   map[string]int
	fails  map[string]int
	errors []string
}

func newChecks() *checks { return &checks{runs: map[string]int{}, fails: map[string]int{}} }

// record notes one execution of check name; it reports whether it passed.
func (c *checks) record(name string, err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs[name]++
	if err == nil {
		return true
	}
	c.fails[name]++
	if len(c.errors) < 20 {
		c.errors = append(c.errors, name+": "+err.Error())
	}
	return false
}

// tally counts attempted and failed operations.
type tally struct {
	mu                sync.Mutex
	attempted, failed int64
}

func (t *tally) add(ok bool) {
	t.mu.Lock()
	t.attempted++
	if !ok {
		t.failed++
	}
	t.mu.Unlock()
}

// outcome is what a workload run returns.
type outcome struct {
	values map[string]float64
	// info holds report-only figures (sample counts, rates, flags).
	info map[string]any
	// expect names the checks this run must have executed.
	expect []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var c settings
	var workloadName string
	var traceFlag int
	flag.StringVar(&workloadName, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Uint64Var(&c.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&c.seconds, "seconds", 12, "length of the timed window")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&c.out, "out", "", "report directory (default .bench_build/out/<workload>-seed<n>-trace<t>)")
	flag.StringVar(&c.root, "root", ".", "repository root")
	flag.BoolVar(&c.quick, "quick", false, "run every workload, both modes, at about 1/50 size")
	cmp := flag.Bool("compare", false, "compare two files of result lines: -compare PARENT CHANGE")
	flag.Parse()
	if *cmp {
		if flag.NArg() != 2 {
			fatalf("-compare takes two files of result lines")
		}
		if err := compare(os.Stdout, c.root, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	c.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("-trace must be 0 or 1")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if c.quick {
		err := runQuick(ctx, c, func(w string, traced bool, res *result) {
			line, _ := json.Marshal(res)
			fmt.Printf("%s trace=%v %s\n", w, traced, line)
		})
		if err != nil {
			fatalf("%v", err)
		}
		return
	}
	w, err := workloadByName(workloadName)
	if err != nil {
		fatalf("%v", err)
	}
	if c.out == "" {
		c.out = filepath.Join(c.root, ".bench_build", "out", fmt.Sprintf("%s-seed%d-trace%d", w.name, c.seed, traceFlag))
	}
	c.setupReps = 3
	res, err := runWorkload(ctx, c, w)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// runQuick runs every workload in both modes with a short window and
// small jobs, calling report with each result.
func runQuick(ctx context.Context, c settings, report func(w string, traced bool, res *result)) error {
	c.seconds, c.setupReps = 0.2, 1
	base := c.out
	if base == "" {
		base = filepath.Join(c.root, ".bench_build", "out", "quick")
	}
	for i := range workloads {
		for _, tr := range []bool{false, true} {
			c.trace = tr
			c.out = filepath.Join(base, fmt.Sprintf("%s-trace%v", workloads[i].name, tr))
			res, err := runWorkload(ctx, c, &workloads[i])
			if err != nil {
				return fmt.Errorf("%s: %w", workloads[i].name, err)
			}
			report(workloads[i].name, tr, res)
		}
	}
	return nil
}

// runWorkload runs one workload in c's mode and writes the report.
func runWorkload(ctx context.Context, c settings, w *benchWorkload) (*result, error) {
	if err := os.RemoveAll(c.out); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return nil, err
	}
	prov := provenance(c, w)
	chk := newChecks()
	var t tally
	var out *outcome
	var err error
	if w.svc {
		out, err = runService(ctx, c, w, chk, &t, prov)
	} else {
		out, err = runSim(ctx, c, w, chk, &t)
	}
	if err != nil {
		return nil, err
	}

	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	res := &result{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(out.values) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, declared %d", len(out.values), len(defs))
	}
	var missing []string
	for _, name := range out.expect {
		if chk.runs[name] == 0 {
			missing = append(missing, name)
		}
	}
	res.Correct = t.failed == 0 && len(missing) == 0 && t.attempted > 0

	report := map[string]any{
		"provenance":     prov,
		"result":         res,
		"checks_run":     chk.runs,
		"checks_failed":  chk.fails,
		"checks_missing": missing,
		"errors":         chk.errors,
		"info":           out.info,
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(c.out, "result.json"), append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// provenance is the header of every report.
func provenance(c settings, w *benchWorkload) map[string]any {
	rev, dirty := gitState(c.root)
	p := map[string]any{
		"workload":     w.name,
		"seed":         c.seed,
		"seconds":      c.seconds,
		"trace":        c.trace,
		"quick":        c.quick,
		"setup_reps":   c.setupReps,
		"git_revision": rev,
		"git_dirty":    dirty,
		"go_version":   runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"pgo_sha256":   "none",
		"started":      time.Now().UTC().Format(time.RFC3339Nano),
	}
	if b, err := os.ReadFile(filepath.Join(c.root, "default.pgo")); err == nil {
		sum := sha256.Sum256(b)
		p["pgo_sha256"] = hex.EncodeToString(sum[:])
	}
	return p
}

// gitState returns the checkout's revision and whether it has local
// changes, or "unknown" where the checkout is not a git repository. Git
// may not look above the checkout for a repository.
func gitState(root string) (rev, dirty string) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown", "unknown"
	}
	git := func(args ...string) ([]byte, error) {
		cmd := exec.Command("git", append([]string{"-C", abs}, args...)...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(abs))
		return cmd.Output()
	}
	out, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown", "unknown"
	}
	rev = strings.TrimSpace(string(out))
	st, err := git("status", "--porcelain")
	if err != nil {
		return rev, "unknown"
	}
	return rev, fmt.Sprint(len(strings.TrimSpace(string(st))) > 0)
}

// pgoFlag is the -pgo value `make build` uses: the committed profile
// when present.
func pgoFlag(root string) (string, error) {
	p, err := filepath.Abs(filepath.Join(root, "default.pgo"))
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(p); errors.Is(err, os.ErrNotExist) {
		return "off", nil
	}
	return p, nil
}

// procDir is /proc/<pid>, or /proc/self for pid 0.
func procDir(pid int) string {
	if pid == 0 {
		return "/proc/self"
	}
	return fmt.Sprintf("/proc/%d", pid)
}

// peakRSSMB is the VmHWM of pid (0 = this process) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(procDir(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, ln := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s/status: no VmHWM", procDir(pid))
}

// cpuTime returns the user+system CPU time of pid (0 = this process),
// read from /proc/<pid>/stat in clock ticks (USER_HZ, 100 on Linux).
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(procDir(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	var ut, st int64
	if _, err := fmt.Sscan(f[11], &ut); err != nil {
		return 0, err
	}
	if _, err := fmt.Sscan(f[12], &st); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// writeSpans writes spans as NDJSON in the shape of span.Span.
func writeSpans(path string, spans []span.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := span.WriteNDJSON(bw, spans); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
