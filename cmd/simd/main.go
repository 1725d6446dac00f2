// Command simd is the campaign service daemon: an HTTP/JSON API over the
// Push Multicast simulation harness.
//
// Usage:
//
//	simd -addr :8080 -workers 4 -drain 30s
//
// Endpoints:
//
//	POST /campaigns   run a campaign spec, streaming NDJSON results
//	GET  /runs/{id}   fetch a completed run record by identity
//	POST /shards      execute one shard of a distributed campaign (worker side)
//	POST /snapshots   upload a warm-start donor snapshot
//	GET  /healthz     liveness
//	GET  /metrics     queue depth, memo hit rate, per-tenant wait quantiles,
//	                  journal and shard-coordinator counters
//
// A minimal campaign:
//
//	curl -sS localhost:8080/campaigns -d \
//	  '{"scale":"tiny","schemes":["Baseline","OrdPush"],"workloads":[{"name":"cachebw"}]}'
//
// Every campaign takes one path: its runs are resolved, queued under the
// tenant (-maxqueue bounds queued runs, HTTP 503 past it; -quota bounds one
// tenant's in-flight runs, HTTP 429 over it), executed by at most -workers
// tasks at once, and streamed back. With -peers the daemon is a shard
// coordinator and a task is a shard of -shardsize runs: it is sent to one of
// the listed simd replicas with retry and reassignment on worker death, and
// simulated here, in the task's own slot, when no replica is healthy. With
// -journal completed runs persist to an append-only NDJSON journal, and a
// killed daemon restarted on the same journal answers the runs it held at
// startup without recomputing or dispatching them.
//
// SIGINT/SIGTERM shut the daemon down gracefully: new campaigns are refused,
// in-flight runs get the -drain window to finish, and stragglers are
// canceled at their next cancellation barrier. A clean (or cleanly
// hard-canceled) shutdown exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pushmulticast/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "tasks in flight: simulations here, or on a coordinator shards out at replicas (0 = GOMAXPROCS, or with -peers at least two per peer)")
		maxQueue = flag.Int("maxqueue", 0, "queued-run bound across all tenants (0 = 1024)")
		memoCap  = flag.Int("memocap", 0, "completed-run memo capacity, LRU-evicted (0 = library default)")
		drain    = flag.Duration("drain", 30*time.Second, "shutdown drain window for in-flight runs before they are canceled")

		quota       = flag.Int("quota", 0, "max in-flight (queued+running) runs per tenant; over-quota campaigns are refused with 429 (0 = unlimited)")
		peers       = flag.String("peers", "", "comma-separated simd replica base URLs; non-empty makes this daemon a shard coordinator")
		shardSize   = flag.Int("shardsize", 0, "runs per dispatched shard (0 = 1)")
		shardRetry  = flag.Int("shardretries", 0, "remote re-dispatches per shard before degrading to local execution (0 = 4)")
		shardTO     = flag.Duration("shardtimeout", 0, "one shard dispatch attempt bound (0 = 2m)")
		healthEvery = flag.Duration("healthevery", 0, "replica /healthz probe period (0 = 2s)")
		journal     = flag.String("journal", "", "crash-resume journal path (append-only NDJSON); empty keeps completed records in memory only")
	)
	flag.Parse()
	opts := serve.Options{
		Workers:        *workers,
		MaxQueue:       *maxQueue,
		MemoCapacity:   *memoCap,
		TenantQuota:    *quota,
		ShardSize:      *shardSize,
		ShardRetries:   *shardRetry,
		ShardTimeout:   *shardTO,
		HealthInterval: *healthEvery,
		JournalPath:    *journal,
	}
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			opts.Peers = append(opts.Peers, strings.TrimSuffix(p, "/"))
		}
	}
	if err := run(*addr, opts, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}
}

func run(addr string, opts serve.Options, drain time.Duration) error {
	app, err := serve.New(opts)
	if err != nil {
		return err
	}
	if len(opts.Peers) > 0 {
		fmt.Fprintf(os.Stderr, "simd: coordinating shards across %d replicas: %s\n", len(opts.Peers), strings.Join(opts.Peers, ", "))
	}
	srv := &http.Server{Addr: addr, Handler: app.Handler()}

	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	fmt.Fprintf(os.Stderr, "simd: listening on %s (drain %s)\n", addr, drain)

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "simd: %s; draining in-flight runs (up to %s)\n", sig, drain)
	}
	// Stop accepting connections while the scheduler drains; campaign
	// streams still in progress finish writing within the same window.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain+10*time.Second)
	defer cancel()
	httpDone := make(chan error, 1)
	go func() { httpDone <- srv.Shutdown(shutdownCtx) }()
	if err := app.Close(drain); err != nil {
		// Drain expired and stragglers were canceled: still a clean exit —
		// the point of graceful shutdown is bounded, not unbounded, waiting.
		fmt.Fprintln(os.Stderr, "simd:", err)
	}
	if err := <-httpDone; err != nil {
		fmt.Fprintln(os.Stderr, "simd: http shutdown:", err)
	}
	fmt.Fprintln(os.Stderr, "simd: shutdown complete")
	return nil
}
