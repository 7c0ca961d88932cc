// Command pipethermd serves the pipeline-thermal simulator as an HTTP
// service: submit cells or whole experiment matrices as jobs, poll
// their status, and fetch results or paper-style reports. Identical
// requests are answered from a content-addressed result cache, which
// the -cache-dir flag persists across restarts.
//
// Usage:
//
//	pipethermd [-addr :8080] [-workers N] [-queue N]
//	           [-cache-entries N] [-cache-dir DIR] [-journal-dir DIR]
//	           [-job-timeout D] [-retries N] [-retry-base D]
//	           [-quarantine-after N] [-drain-timeout D]
//	           [-default-deadline D] [-watchdog D]
//	           [-breaker-errors N] [-breaker-latency D] [-breaker-cooldown D]
//
// With -journal-dir, job submissions and completions are written to a
// crash-safe journal: after a crash or SIGKILL the next start replays
// it, resubmits every job that had not settled, and restores quarantine
// markers, so queued and interrupted work is never lost (/readyz stays
// 503 until the replay has been resubmitted). On SIGTERM or SIGINT the
// daemon flips /readyz to 503, stops accepting work, lets running jobs
// finish, and exits once drained or once -drain-timeout elapses.
//
// Overload protection: -default-deadline applies a deadline to jobs
// whose submission carried none, -watchdog force-fails attempts that
// stop making progress, and the -breaker-* flags tune the circuit
// breakers guarding the disk cache and the journal (when a breaker is
// open the daemon degrades — memory-only cache, durability "none" —
// instead of failing; see /statusz). -chaos-disk-fault is a test seam:
// while the named file exists, every disk touch by the cache and the
// journal fails with ENOSPC, which is how the overload e2e yanks the
// disk out from under a live daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, signalContext()))
}

// signalContext cancels on SIGTERM/SIGINT.
func signalContext() context.Context {
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return ctx
}

// run is the testable body of main: parses args, serves until ctx is
// cancelled, drains, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer, ctx context.Context) int {
	fs := flag.NewFlagSet("pipethermd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers      = fs.Int("workers", runtime.NumCPU(), "simulation worker goroutines")
		queue        = fs.Int("queue", 64, "job queue depth before submissions are rejected with 429")
		cacheEntries = fs.Int("cache-entries", 256, "in-memory result cache capacity")
		cacheDir     = fs.String("cache-dir", "", "directory for the persistent result cache (empty: memory only)")
		journalDir   = fs.String("journal-dir", "", "directory for the durable job journal (empty: jobs do not survive a crash)")
		jobTimeout   = fs.Duration("job-timeout", 0, "per-job wall-clock limit (0: none); timed-out attempts are retried")
		retries      = fs.Int("retries", 2, "retries per job for transient failures (-1: none)")
		retryBase    = fs.Duration("retry-base", 50*time.Millisecond, "first retry backoff delay (doubled per retry, jittered)")
		quarAfter    = fs.Int("quarantine-after", 3, "panics before a job key is quarantined")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "shutdown grace period for running jobs")
		defDeadline  = fs.Duration("default-deadline", 0, "deadline applied to submissions that carry none (0: none)")
		watchdog     = fs.Duration("watchdog", 0, "force-fail attempts making no progress for this long (0: 10x -job-timeout)")
		brkErrors    = fs.Int("breaker-errors", 3, "consecutive disk errors that open a cache/journal circuit breaker")
		brkLatency   = fs.Duration("breaker-latency", 2*time.Second, "disk operations slower than this count as breaker failures")
		brkCooldown  = fs.Duration("breaker-cooldown", 2*time.Second, "open breaker cooldown before a half-open probe")
		chaosFault   = fs.String("chaos-disk-fault", "", "test seam: fail all cache/journal disk I/O with ENOSPC while FILE exists")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pipethermd: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	cache, err := service.NewCache(*cacheEntries, *cacheDir)
	if err != nil {
		fmt.Fprintf(stderr, "pipethermd: %v\n", err)
		return 1
	}
	cfg := service.EngineConfig{
		Workers:         *workers,
		QueueDepth:      *queue,
		JobTimeout:      *jobTimeout,
		Cache:           cache,
		MaxRetries:      *retries,
		RetryBase:       *retryBase,
		QuarantineAfter: *quarAfter,
		DefaultDeadline: *defDeadline,
		Watchdog:        *watchdog,
		BreakerFailures: *brkErrors,
		BreakerLatency:  *brkLatency,
		BreakerCooldown: *brkCooldown,
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = -1 // flag 0 means "no retries", not "engine default"
	}
	if *chaosFault != "" {
		// While the sentinel file exists every disk touch by the cache
		// and the journal fails with ENOSPC — the e2e's removable disk.
		inj := faultinject.New()
		for _, site := range []string{
			faultinject.SiteCacheRead, faultinject.SiteCacheWrite,
			faultinject.SiteJournalAppend, faultinject.SiteJournalRewrite,
		} {
			inj.ArmWhileFile(site, *chaosFault, faultinject.Outcome{Err: faultinject.ErrNoSpace})
		}
		cfg.Inject = inj
		cache.SetInjector(inj)
		fmt.Fprintf(stdout, "pipethermd: chaos: disk I/O fails with ENOSPC while %s exists\n", *chaosFault)
	}
	if *journalDir != "" {
		jnl, recs, err := journal.Open(*journalDir)
		if err != nil {
			fmt.Fprintf(stderr, "pipethermd: %v\n", err)
			return 1
		}
		jnl.Inject = cfg.Inject
		pending, quarantined := journal.Pending(recs)
		fmt.Fprintf(stdout, "pipethermd: journal: replayed %d records, %d pending jobs resubmitted, %d quarantined\n",
			len(recs), len(pending), len(quarantined))
		cfg.Journal, cfg.Replay = jnl, recs
	}
	engine := service.NewEngine(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "pipethermd: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: service.NewServer(engine)}
	fmt.Fprintf(stdout, "pipethermd listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// Listener died without a signal: report and bail.
		fmt.Fprintf(stderr, "pipethermd: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "pipethermd: draining (deadline %s)\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()

	// Fail readiness first so /readyz-polling load balancers stop
	// routing, then stop accepting connections, then let the engine
	// finish the jobs already running; all share the drain deadline.
	engine.BeginDrain()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "pipethermd: http shutdown: %v\n", err)
	}
	if err := engine.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(stderr, "pipethermd: engine shutdown: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "pipethermd: drained, bye")
	return 0
}
