// Command revive-serve is the persistent experiment daemon: an HTTP/JSON
// service that accepts sim/sweep/chaos/experiment jobs, runs them on the
// deterministic sweep pool, and survives being killed at any instant.
//
// Jobs are journaled (write-ahead log + snapshot bundles under -state-dir)
// and results live in a content-addressed cache: restarting after a kill
// re-queues interrupted jobs and completes them exactly once, and an
// identical request is served the byte-identical cached response without
// re-simulation.
//
//	revive-serve -addr :8329 -state-dir /var/lib/revive
//
//	curl -X POST localhost:8329/run -d '{"kind":"sim","apps":["fft"],"quick":true}'
//	curl -X POST localhost:8329/run -d '{"kind":"sim","apps":["fft"],"strategy":"conelog"}'
//	curl -X POST localhost:8329/jobs -d '{"kind":"sweep","quick":true}'
//	curl localhost:8329/jobs/<id>/result
//	curl -N localhost:8329/jobs/<id>/events    # live progress (SSE)
//	curl localhost:8329/metrics                # Prometheus text exposition
//	curl localhost:8329/statusz
//
// -log-json switches the daemon to structured JSON logs (one slog record
// per line, correlated by job ID); -pprof mounts net/http/pprof under
// /debug/pprof/ for live profiling (off by default).
//
// SIGTERM or SIGINT drains gracefully: admission stops (/readyz turns 503),
// the in-flight job is cut at its next cell boundary and parked as
// accepted, a final snapshot is written, and the next start resumes it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"revive/internal/obs"
	"revive/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8329", "listen address")
		stateDir = flag.String("state-dir", "", "persistence root: journal, snapshots, result cache (required)")
		maxQueue = flag.Int("max-queue", 64, "admission queue bound; excess submissions get 429 + Retry-After")
		timeout  = flag.Duration("job-timeout", 10*time.Minute, "per-job deadline")
		maxEv    = flag.Uint64("max-events", 4e9, "per-simulation event budget (watchdog; 0 = stall guard only)")
		par      = flag.Int("j", 0, "intra-job parallelism (0 = one worker per CPU); responses are byte-identical at every setting")
		snapN    = flag.Int("snap-every", 32, "journal records between snapshot compactions")
		drainT   = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
		logJSON  = flag.Bool("log-json", false, "structured JSON logs (one slog record per line, job-ID correlated) instead of plain text")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (live CPU/heap/goroutine profiling; see internal/perf)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "revive-serve: ", log.LstdFlags)
	opts := serve.Options{
		StateDir:      *stateDir,
		MaxQueue:      *maxQueue,
		JobTimeout:    *timeout,
		MaxEvents:     *maxEv,
		Parallelism:   *par,
		SnapshotEvery: *snapN,
		Log:           logger.Printf,
	}
	logf := logger.Printf
	if *logJSON {
		sl := obs.NewLogger(os.Stderr)
		opts.Logger = sl
		logf = obs.Printf(sl)
		opts.Log = logf // legacy printf lines become JSON records too
	}
	fatalf := func(format string, args ...any) {
		logf(format, args...)
		os.Exit(1)
	}
	if *stateDir == "" {
		fatalf("-state-dir is required")
	}

	srv, err := serve.New(opts)
	if err != nil {
		fatalf("open state dir: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	handler := srv.Handler()
	if *pprofOn {
		// The profiling surface stays off the default mux and off the
		// daemon's API mux unless explicitly requested.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	httpSrv := &http.Server{Handler: handler}
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	logf("serving on %s (state: %s)", ln.Addr(), *stateDir)
	fmt.Printf("READY %s\n", ln.Addr()) // machine-readable startup line for scripts/CI

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		logf("%v: draining", s)
	case err := <-done:
		fatalf("http server: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainT)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logf("drain: %v", err)
	}
	httpSrv.Shutdown(ctx)
	logf("drained; interrupted jobs resume on the next start")
}
