// Command avfd is the online-AVF estimation daemon: an HTTP service
// that runs benchmark × estimator simulations on a bounded worker pool
// and streams per-interval AVF estimates to clients while each workload
// executes — the paper's continuous-monitoring use case as a service.
//
// Usage:
//
//	avfd [-addr :8080] [-workers N] [-queue N] [-drain 30s]
//	     [-data-dir DIR] [-compact-bytes 0] [-cache-max 4096]
//	     [-retention 0] [-retention-max 0] [-deadline 0]
//	     [-max-body 1048576] [-read-header-timeout 5s] [-read-timeout 30s]
//	     [-write-timeout 30s] [-idle-timeout 2m] [-stream-write-timeout 30s]
//	     [-spans] [-span-cap 16384] [-slo-config FILE]
//	     [-log-format text|json] [-log-level info] [-pprof]
//
// Quickstart (see README.md for more):
//
//	avfd -data-dir /var/lib/avfd &
//	curl -s localhost:8080/v1/jobs -d '{"benchmark":"mesa","scale":0.05,"n":500,"intervals":20}'
//	curl -N localhost:8080/v1/jobs/job-1/stream       # live NDJSON estimates
//	curl -N localhost:8080/v1/jobs/job-1/trace        # per-injection lifecycle trace
//	curl -s localhost:8080/v1/jobs/job-1              # status + final series
//	curl -s -X DELETE localhost:8080/v1/jobs/job-1    # cancel
//	curl -s localhost:8080/v1/stats                   # scheduler counters + queue saturation
//	curl -N localhost:8080/v1/jobs/job-1/spans        # request spans of the job's trace
//	curl -s localhost:8080/v1/traces                  # trace summaries (min_dur/class/state filters)
//	curl -s localhost:8080/v1/slo                     # per-class error budgets + burn rates
//	curl -s localhost:8080/metrics                    # Prometheus text exposition
//	curl -s localhost:8080/v1/metrics                 # the same registry as JSON
//
// Every job carries a W3C trace context: submit with a traceparent
// header (or "traceparent" spec field) to stitch the job into your
// distributed trace, or let the daemon mint one. -spans=false turns
// recording off; -slo-config FILE replaces the built-in per-class
// objectives with a JSON object of the form
// {"critical":{"latency_seconds":60,"target":0.999}, ...}.
//
// With -data-dir, jobs are durable: specs, every per-interval estimate,
// and one terminal frame per finished job (state, final series, span
// summary) are appended to a CRC-framed fsync'd WAL (compacted into a
// snapshot as it grows). After a crash or
// restart the daemon replays the log, restores terminal jobs read-only,
// and re-enqueues interrupted ones — the simulator is deterministic in
// (spec, seed), so a resumed job emits the remaining intervals exactly
// as the uninterrupted run would have.
//
// Completed runs land in a content-addressed result cache (-cache-max):
// resubmitting an identical spec — up to default materialization, the
// simulator is a pure function of (spec, seed) — replays the original
// NDJSON stream byte-identically in microseconds without executing, and
// concurrent identical submissions collapse onto a single simulation
// (single-flight). Cache entries persist through the WAL when the
// daemon is durable, so the cache survives restarts.
//
// With -pprof, the standard profiling endpoints are served under
// /debug/pprof/ (CPU profile, heap, goroutines, execution trace).
//
// On SIGTERM/SIGINT the daemon stops accepting work and drains running
// jobs for up to -drain, then cancels whatever is left (left unfinished
// in the WAL — resumed at next boot when durable) and exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"avfsim/internal/obs"
	"avfsim/internal/sched"
	"avfsim/internal/server"
	"avfsim/internal/span"
	"avfsim/internal/store"
)

// loadObjectives reads the per-class SLO objectives: the built-in
// defaults, or the JSON object in path when given.
func loadObjectives(path string) (map[string]span.Objective, error) {
	objs := span.DefaultObjectives()
	if path != "" {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		objs = map[string]span.Objective{}
		if err := json.Unmarshal(b, &objs); err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
	}
	if err := span.ValidateObjectives(objs); err != nil {
		return nil, err
	}
	return objs, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulations")
	queue := flag.Int("queue", 64, "job queue capacity (submissions beyond it get 429)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
	dataDir := flag.String("data-dir", "", "durable job store directory (empty = in-memory only)")
	compactBytes := flag.Int64("compact-bytes", 0, "compact the WAL into a snapshot past this size (0 = 4 MiB default, negative disables)")
	cacheMax := flag.Int("cache-max", 4096, "result-cache capacity in completed runs (0 = unbounded, negative disables the cache)")
	retention := flag.Duration("retention", 0, "evict terminal jobs older than this (0 = keep)")
	retentionMax := flag.Int("retention-max", 0, "keep at most this many terminal jobs (0 = unlimited)")
	deadline := flag.Duration("deadline", 0, "cap on each job's run time (0 = unlimited)")
	maxBody := flag.Int64("max-body", 1<<20, "max POST /v1/jobs body bytes (larger gets 413)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "http.Server WriteTimeout (streaming routes are exempt; see -stream-write-timeout)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
	streamWriteTimeout := flag.Duration("stream-write-timeout", 30*time.Second, "rolling per-write deadline on NDJSON/SSE streams (0 = none)")
	spansOn := flag.Bool("spans", true, "record per-job request spans (traceparent adoption, /v1/traces, /v1/jobs/{id}/spans)")
	spanCap := flag.Int("span-cap", span.DefaultCapacity, "span ring capacity (rounded up to a power of two)")
	sloConfig := flag.String("slo-config", "", "JSON file of per-class SLO objectives (empty = built-in defaults)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "avfd: %v\n", err)
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	pool := sched.New(sched.Options{Workers: *workers, QueueCap: *queue, Metrics: reg})
	opts := []server.Option{
		server.WithMetrics(reg),
		server.WithLogger(logger),
		server.WithRetention(*retention, *retentionMax),
		server.WithJobDeadline(*deadline),
		server.WithMaxBodyBytes(*maxBody),
		server.WithStreamWriteTimeout(*streamWriteTimeout),
	}
	if *cacheMax >= 0 {
		// The content-addressed result cache: duplicate submissions replay
		// the original run's stream byte-identically in microseconds, and
		// concurrent identical submissions collapse onto one simulation.
		opts = append(opts, server.WithResultCache(*cacheMax))
	}
	objs, err := loadObjectives(*sloConfig)
	if err != nil {
		logger.Error("load SLO objectives", "file", *sloConfig, "error", err)
		os.Exit(1)
	}
	opts = append(opts, server.WithSLO(span.NewEngine(objs)))
	if *spansOn {
		opts = append(opts, server.WithSpans(span.NewRecorder(*spanCap)))
	}
	var st *store.Store
	if *dataDir != "" {
		st, err = store.Open(*dataDir, store.Options{Metrics: reg, CompactBytes: *compactBytes})
		if err != nil {
			logger.Error("open job store", "dir", *dataDir, "error", err)
			os.Exit(1)
		}
		opts = append(opts, server.WithStore(st))
	}
	srv := server.New(pool, opts...)
	if st != nil {
		resumed, err := srv.Recover()
		if err != nil {
			logger.Error("recover jobs", "error", err)
			os.Exit(1)
		}
		logger.Info("job store open", "dir", *dataDir, "wal_bytes", st.WALBytes(), "resumed", resumed)
	}

	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// The absolute WriteTimeout would kill long-lived NDJSON/SSE streams
	// mid-job; those handlers exempt themselves per response via
	// http.ResponseController and roll their own per-write deadline
	// (-stream-write-timeout), so a dead client is still shed.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "workers", *workers, "queue", *queue,
		"durable", st != nil, "pprof", *pprofOn)

	select {
	case err := <-errc:
		logger.Error("serve failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("shutting down", "drain", *drain)

	// From here on a canceled job is a checkpoint, not a client verdict:
	// it persists no terminal frame and the next boot resumes it.
	srv.BeginDrain()

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections first; in-flight streams follow the
	// jobs they watch.
	go httpSrv.Shutdown(drainCtx)
	// If the deadline passes, cancel every remaining job so the pool's
	// workers can come home.
	go func() {
		<-drainCtx.Done()
		srv.CancelAll()
	}()
	if err := pool.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("pool shutdown failed", "error", err)
	} else if errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("drain deadline hit; canceled remaining jobs")
	}
	httpSrv.Close()
	// Close returns once every ended job's terminal frame is written, so
	// the WAL can be sealed right after it.
	srv.Close()
	if st != nil {
		if err := st.Close(); err != nil {
			logger.Error("close job store", "error", err)
		}
	}
	logger.Info("bye")
}
