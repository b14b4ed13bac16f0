package main

// The coordinator subcommand: the fleet-facing daemon. It exposes the
// same /v1 job surface as serve, but executes each job by handing
// contiguous chunks of the grid's cell order to worker daemons
// (-workers) as their slots free up, streaming back the records in
// cell order — byte-identical to a single-node run. Every job is durable:
// its spec and its records, kept in one file in cell order, live under
// -store, so a SIGKILLed coordinator restarts with nothing lost and
// every unfinished job resuming from its exact output prefix.

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"faultexp/internal/fabric"
	"faultexp/internal/sweep"
)

func cmdCoordinator(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("coordinator", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "listen address (host:port)")
	workers := fs.String("workers", "", "comma-separated worker addresses (host:port or URLs); health-checked, kernel-version-matched, and sent chunks of each job's cell order as their slots free up")
	storeDir := fs.String("store", "", "durable job store directory (required): per-job spec + append-only record file in cell order, rebuilt on startup so a crash loses nothing")
	maxActive := fs.Int("max-active", 2, "jobs dispatching concurrently; submissions beyond it queue as pending")
	maxInflight := fs.Int("max-inflight", 1, "chunks running on one worker at a time (fleet backpressure); with the worker count it also sets the chunk size")
	maxResultBytes := fs.Int64("max-result-bytes", 64<<20, "per-job cap on result bytes; a job whose next record would exceed it fails with a clear error, its record file ending at the last record under the cap (0 = unlimited)")
	healthInterval := fs.Duration("health-interval", 2*time.Second, "worker health-check period; a worker failing its check has its running chunks aborted and their unreceived cells dispatched again")
	retryDelay := fs.Duration("retry-delay", 500*time.Millisecond, "pause before a failed attempt's unreceived cells are dispatched again")
	quiet := fs.Bool("quiet", false, "suppress the startup line on stderr")
	fs.Parse(args)
	if *storeDir == "" {
		return fmt.Errorf("coordinator: -store DIR is required (the durable job store)")
	}
	if *maxActive < 1 || *maxInflight < 1 {
		return fmt.Errorf("coordinator: -max-active and -max-inflight must be ≥ 1")
	}
	if *maxResultBytes < 0 {
		return fmt.Errorf("coordinator: -max-result-bytes must be ≥ 0 (0 = unlimited)")
	}
	var fleet []string
	for _, tok := range strings.Split(*workers, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			fleet = append(fleet, tok)
		}
	}

	ctx, stop := signalContext(ctx)
	defer stop()

	store, err := fabric.OpenStore(*storeDir)
	if err != nil {
		return err
	}
	co, err := fabric.NewCoordinator(ctx, fabric.CoordinatorConfig{
		Workers:        fleet,
		Store:          store,
		MaxActive:      *maxActive,
		MaxInflight:    *maxInflight,
		MaxResultBytes: *maxResultBytes,
		HealthInterval: *healthInterval,
		RetryDelay:     *retryDelay,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: co.Handler()}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "coordinator: listening on http://%s (%d workers, store %s, kernels %s)\n",
			ln.Addr(), len(fleet), *storeDir, sweep.KernelVersion)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Graceful shutdown stops dispatching but does NOT cancel jobs:
		// they are durable, and the next start resumes each one from its
		// exact output prefix. Only DELETE cancels durably.
		shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		return srv.Shutdown(shCtx)
	}
}
