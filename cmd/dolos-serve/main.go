// Command dolos-serve runs the Dolos simulator as a long-lived service:
// a bounded job queue and worker pool over the experiment executor, an
// LRU result cache with single-flight deduplication, and a small HTTP
// API (see internal/service and DESIGN.md §10).
//
// Usage:
//
//	dolos-serve                          # :8080, GOMAXPROCS workers
//	dolos-serve -addr :9090 -workers 8 -queue 128 -cache 512
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v2/jobs -d '{"workloads":["Hashmap"],"schemes":["dolos-partial"]}'
//	curl -s localhost:8080/v2/jobs/j00000001/result
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM shut the server down gracefully: intake stops (503),
// queued and in-flight jobs drain, and the final Prometheus metrics
// snapshot is written to stderr before exit.
//
// Chaos mode arms the deterministic fault injector (internal/fault) at
// the server's named fault points:
//
//	dolos-serve -faults 'job-panic:0.2,queue-full:0.1,cell-latency:0.5:2ms' -faults-seed 42
//	DOLOS_FAULTS='cache-corrupt:1' DOLOS_FAULTS_SEED=7 dolos-serve
//
// The flag wins over the environment; with neither set, nothing is
// injected and the fault paths cost one nil check each.
//
// Durable and distributed mode (see README "Running a cluster" and
// DESIGN.md §16):
//
//	dolos-serve -store-dir /var/lib/dolos        # WAL-backed job store, crash recovery
//	dolos-serve -node-id n1 -peers 'n2=http://h2:8080,n3=http://h3:8080'
//	dolos-serve -tenant-quotas 'acme:5,*:100'    # per-tenant token buckets
//
// With -peers, grid cells are routed across the ring by their request
// hashes (consistent hashing), deduplicated cluster-wide, and streamed
// back per-cell over GET /v2/jobs/{id}/stream.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dolos/internal/cluster"
	"dolos/internal/fault"
	"dolos/internal/service"
	"dolos/internal/store"
	"dolos/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "max queued jobs before submissions get 429")
	cacheEntries := flag.Int("cache", 256, "LRU result cache capacity (entries)")
	maxBody := flag.Int64("max-body", 1<<20, "max request body bytes")
	timeout := flag.Duration("timeout", 2*time.Minute, "default per-job deadline (queue wait + execution)")
	txnsCap := flag.Int("txns-cap", 20000, "max transactions one request may ask for")
	cellsCap := flag.Int("cells-cap", 64, "max workloads×schemes cells per request")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Minute, "how long shutdown waits for in-flight jobs")
	faultSpec := flag.String("faults", os.Getenv("DOLOS_FAULTS"),
		"arm deterministic fault injection: point:rate[:delay],... (env DOLOS_FAULTS)")
	faultSeed := flag.Int64("faults-seed", envInt64("DOLOS_FAULTS_SEED", 1),
		"seed for the fault injector's PRNG (env DOLOS_FAULTS_SEED)")
	storeDir := flag.String("store-dir", "",
		"directory for the durable job store WAL (empty = in-memory only)")
	compactAt := flag.Int64("store-compact", 16<<20,
		"auto-compact the WAL into a snapshot past this many bytes (0 = never)")
	nodeID := flag.String("node-id", "", "this node's cluster identity (required with -peers)")
	peersSpec := flag.String("peers", "",
		"cluster peers as id=url,... (e.g. 'n2=http://h2:8080,n3=http://h3:8080')")
	quotaSpec := flag.String("tenant-quotas", "",
		"per-tenant token buckets as tenant:rate[:burst],... ('*' = catch-all)")
	flag.Parse()

	var injector *fault.Injector
	if *faultSpec != "" {
		var err error
		if injector, err = fault.FromSpec(*faultSeed, *faultSpec); err != nil {
			fmt.Fprintf(os.Stderr, "dolos-serve: -faults: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "dolos-serve: fault injection armed (seed %d): %s\n",
			*faultSeed, injector)
	}

	quotas, err := service.ParseQuotas(*quotaSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dolos-serve: -tenant-quotas: %v\n", err)
		os.Exit(2)
	}

	var st *store.Store
	if *storeDir != "" {
		st, err = store.Open(*storeDir, store.WithAutoCompact(*compactAt))
		if err != nil {
			fmt.Fprintf(os.Stderr, "dolos-serve: -store-dir: %v\n", err)
			os.Exit(1)
		}
		defer st.Close()
		fmt.Fprintf(os.Stderr, "dolos-serve: durable store at %s\n", *storeDir)
	}

	// Cluster and service share one registry so /metrics exposes both.
	reg := telemetry.NewRegistry()
	var ring *cluster.Cluster
	if *peersSpec != "" || *nodeID != "" {
		peers, err := parsePeers(*peersSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dolos-serve: -peers: %v\n", err)
			os.Exit(2)
		}
		ring, err = cluster.New(cluster.Config{SelfID: *nodeID, Peers: peers, Registry: reg})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dolos-serve: %v\n", err)
			os.Exit(2)
		}
		ring.Start()
		defer ring.Close()
		fmt.Fprintf(os.Stderr, "dolos-serve: cluster node %s with %d peer(s)\n", *nodeID, len(peers))
	}

	svc := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheEntries,
		MaxBodyBytes:   *maxBody,
		DefaultTimeout: *timeout,
		Limits: service.Limits{
			MaxTransactions: *txnsCap,
			MaxCells:        *cellsCap,
		},
		Faults:   injector,
		Store:    st,
		Cluster:  ring,
		Quotas:   quotas,
		Registry: reg,
	})

	httpServer := &http.Server{Addr: *addr, Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "dolos-serve: listening on %s\n", *addr)

	select {
	case <-ctx.Done():
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "dolos-serve: %v\n", err)
		os.Exit(1)
	}

	// Drain order: first stop job intake and wait for in-flight work
	// (the HTTP listener stays up so clients can poll their jobs to
	// completion), then close the listener.
	fmt.Fprintln(os.Stderr, "dolos-serve: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "dolos-serve: drain: %v\n", err)
	}
	if err := httpServer.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "dolos-serve: http shutdown: %v\n", err)
	}
	if final := svc.FinalMetrics(); final != nil {
		fmt.Fprintln(os.Stderr, "dolos-serve: final metrics snapshot:")
		os.Stderr.Write(final)
	}
}

// parsePeers decodes the -peers flag: comma-separated id=url pairs.
func parsePeers(spec string) (map[string]string, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, entry := range strings.Split(spec, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("peer entry %q: want id=url", entry)
		}
		out[id] = url
	}
	return out, nil
}

// envInt64 reads an int64 environment variable, falling back on
// absence or a parse failure.
func envInt64(key string, fallback int64) int64 {
	if v := os.Getenv(key); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return fallback
}
