package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// cmdServe runs the prediction service as an HTTP/JSON daemon: the same
// versioned requests the CLI builds from flags, accepted over POST /v1/*.
// The listener address is printed once serving starts ("listening on ..."),
// so scripts can bind port 0 and parse the chosen port. SIGINT/SIGTERM
// drain in-flight requests before exiting.
//
// Three roles share the flag set and the client-visible surface:
//
//	estima serve                                  single process (default)
//	estima serve -worker                          shard worker behind a coordinator
//	estima serve -coordinator -peers host1,host2  coordinator routing over workers
//
// A worker is an ordinary server that labels itself "worker" on /readyz; a
// coordinator routes each request to the worker owning its scenario's shard
// (consistent hash of the canonical spec key), falls over along the ring
// when workers die, and answers byte-identically to a single process.
func cmdServe(ctx context.Context, args []string) error {
	fs := newFlagSet("serve")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	cacheDir := fs.String("cache", "", "measurement store directory shared by every request")
	workers := fs.Int("workers", 0, "simulation worker bound (default: NumCPU)")
	maxInFlight := fs.Int("max-inflight", 0, "concurrent /v1/* requests before queueing (default: 2x NumCPU)")
	maxQueue := fs.Int("max-queue", 0, "queued requests beyond the in-flight bound before 429 (default: 4x max-inflight; negative: no queue)")
	worker := fs.Bool("worker", false, "run as a shard worker behind a coordinator")
	coordinator := fs.Bool("coordinator", false, "run as the fleet coordinator (requires -peers)")
	peers := fs.String("peers", "", "comma-separated worker addresses the coordinator routes over (host:port or URL)")
	probe := fs.Duration("probe", 2*time.Second, "coordinator worker health-probe interval (0 disables probing)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *worker && *coordinator {
		return usageError{fmt.Errorf("-worker and -coordinator are mutually exclusive")}
	}
	if *coordinator && *peers == "" {
		return usageError{fmt.Errorf("-coordinator requires -peers with at least one worker address")}
	}
	if !*coordinator && *peers != "" {
		return usageError{fmt.Errorf("-peers only applies to -coordinator")}
	}
	svc, err := newService(*cacheDir, *workers)
	if err != nil {
		return err
	}
	scfg := service.ServerConfig{MaxInFlight: *maxInFlight, MaxQueue: *maxQueue}
	var handler http.Handler
	var closeCluster func()
	switch {
	case *coordinator:
		coord, err := cluster.New(cluster.Config{
			Workers:       strings.Split(*peers, ","),
			Local:         svc,
			Retries:       2,
			ProbeInterval: *probe,
		})
		if err != nil {
			return err
		}
		closeCluster = coord.Close
		scfg.Mode = "coordinator"
		handler = cluster.NewHandler(coord, scfg)
	case *worker:
		scfg.Mode = "worker"
		handler = service.NewHandler(svc, scfg)
	default:
		handler = service.NewHandler(svc, scfg)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		// Bounds reading the (size-capped) request; handlers consume the
		// body up front, so slow predictions are unaffected while a
		// trickled body cannot pin a limiter slot indefinitely. No
		// WriteTimeout: a full-scale prediction legitimately takes minutes
		// before its one response write.
		ReadTimeout: time.Minute,
	}
	fmt.Printf("estima serve listening on http://%s\n", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Printf("estima serve draining in-flight requests (up to %s)...\n", *drain)
	//estima:allow ctxflow the drain deadline must outlive the already-cancelled serve ctx
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		srv.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	if closeCluster != nil {
		closeCluster()
	}
	return nil
}
