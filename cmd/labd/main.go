// Command labd runs the persistent lab daemon: one long-lived Lab engine
// whose artifact store is backed by an on-disk content-addressed spill
// tier, behind an HTTP+JSON API.
//
// Usage:
//
//	labd -dir /var/lib/labd                     # serve on :8080
//	labd -dir ./store -addr 127.0.0.1:9000      # explicit listen address
//	labd -dir ./store -max-store-bytes 1e9 -j 4 # byte-budgeted store, bounded pool
//
// Submit sweeps with cmd/sweep's -addr flag (the daemon-side twin of a
// local sweep), or directly:
//
//	curl -s localhost:8080/v1/sweep -d '{"axes":["idle"],"benchmarks":["gap"]}'
//	curl -sN localhost:8080/v1/jobs/j1/events | report -render -
//	curl -s localhost:8080/v1/stats
//
// Because every job runs through one engine, concurrent clients share
// in-flight builds, and the disk store makes every heavy preparation stage
// survive daemon restarts: re-submitting a sweep after a restart rebuilds
// nothing. See EXPERIMENTS.md for the API and disk-layout details.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/labd"
)

// Connection timeouts: a client gets readHeaderTimeout to send its request
// headers, and an idle keep-alive connection is closed after idleTimeout.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "artifact store directory (required)")
	maxBytes := flag.Int64("max-store-bytes", 0, "disk store byte budget (0 = unlimited)")
	parallelism := flag.Int("j", 0, "worker-pool bound (0 = GOMAXPROCS)")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "labd: -dir is required")
		os.Exit(2)
	}
	srv, err := labd.New(labd.Config{Dir: *dir, MaxStoreBytes: *maxBytes, Parallelism: *parallelism})
	if err != nil {
		fmt.Fprintln(os.Stderr, "labd:", err)
		os.Exit(1)
	}

	// No WriteTimeout: job event streams are long-lived responses that a
	// write deadline would cut off.
	httpSrv := &http.Server{Addr: *addr, Handler: srv,
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "labd: serving on %s, store in %s\n", *addr, *dir)

	// kill sends SIGTERM; Ctrl-C sends SIGINT. Both stop gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "labd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful stop: cancel running jobs and wait for them, unmapping the
	// engine's traces, then drain connections (their event streams
	// terminate with the cancelled jobs).
	fmt.Fprintln(os.Stderr, "labd: shutting down")
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "labd:", err)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "labd:", err)
		os.Exit(1)
	}
}
