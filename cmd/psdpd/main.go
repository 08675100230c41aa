// Command psdpd is the solve daemon: it serves the packing-SDP solver
// over HTTP/JSON (see internal/serve for the API) with a sharded worker
// pool of pinned workspaces, a bounded admission queue with 429
// backpressure, and a content-addressed result cache.
//
// Usage:
//
//	psdpd [-addr :8723] [-workers N] [-shards S] [-queue 64]
//	      [-cache 1024] [-revisions 128] [-timeout 30s] [-max-timeout 5m]
//	      [-log json|text|off] [-slow 1s] [-no-metrics] [-ops-addr host:port]
//	      [-cluster url1,url2,...] [-self url] [-probe-interval 500ms]
//	      [-drain-grace 10s]
//
// Cluster mode: -cluster takes the full static member list (base URLs)
// and -self names this replica's own entry. Placement is consistent
// hashing over the health-gated member list — each content digest has
// one owning replica, requests landing off-owner ask the owner for
// cached results/revisions before solving locally, and SIGTERM drains
// gracefully (admission 307-redirects to peers, in-flight work
// finishes, /readyz goes 503 so the fleet drops this member).
//
// Endpoints: POST /v1/decision, /v1/maximize, /v1/solve, /v1/batch,
// /v1/delta (incremental solving over the revision store); GET
// /healthz (liveness), /readyz (readiness), /statsz, /metrics
// (Prometheus text), /debugz/slow (recent slow/failed solves).
// SIGINT/SIGTERM drain in-flight solves before exit.
//
// -ops-addr starts a second listener for the operations surface only:
// net/http/pprof under /debug/pprof/, plus the same /metrics, /statsz,
// and /debugz/slow. Keeping pprof off the serving address means the
// profiling endpoints can stay firewalled without a proxy in front of
// the solve API.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8723", "listen address (host:port; port 0 picks a free port)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "solver workers, each with a pinned workspace")
	shards := flag.Int("shards", 0, "worker-pool shards (0 = min(workers, 8))")
	queue := flag.Int("queue", 64, "admission queue depth per shard")
	cacheEntries := flag.Int("cache", 1024, "result cache entries (negative disables)")
	revisions := flag.Int("revisions", 128, "warm-start revision store entries (negative disables /v1/delta)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request solve deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on request-supplied deadlines")
	maxBody := flag.Int64("max-body", 32<<20, "request body size limit in bytes")
	engine := flag.String("engine", "mmw", "default decision engine for requests with no engine field: mmw, alo, or auto")
	logMode := flag.String("log", "off", "structured request logging to stderr: json, text, or off")
	slow := flag.Duration("slow", time.Second, "record successful solves at/over this duration in /debugz/slow")
	noMetrics := flag.Bool("no-metrics", false, "disable the /metrics registry (the endpoint answers 404)")
	opsAddr := flag.String("ops-addr", "", "optional second listener for pprof + /metrics + /statsz + /debugz/slow")
	clusterList := flag.String("cluster", "", "comma-separated base URLs of every replica (enables cluster mode)")
	self := flag.String("self", "", "this replica's own base URL as it appears in -cluster")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "cluster health-probe period")
	drainGrace := flag.Duration("drain-grace", 10*time.Second, "max wait for in-flight solves on SIGTERM")
	flag.Parse()

	defEngine, err := core.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psdpd: %v\n", err)
		os.Exit(1)
	}

	var logger *slog.Logger
	switch *logMode {
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "off", "":
	default:
		fmt.Fprintf(os.Stderr, "psdpd: unknown -log mode %q (want json, text, or off)\n", *logMode)
		os.Exit(1)
	}

	cfg := serve.Config{
		Workers:         *workers,
		Shards:          *shards,
		QueueDepth:      *queue,
		CacheEntries:    *cacheEntries,
		RevisionEntries: *revisions,
		MaxBodyBytes:    *maxBody,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTimeout,
		DefaultEngine:   defEngine,
		DisableMetrics:  *noMetrics,
		Logger:          logger,
		SlowSolve:       *slow,
	}

	ctx, stopCluster := context.WithCancel(context.Background())
	defer stopCluster()
	var rep *cluster.Replica
	if *clusterList != "" {
		members := splitMembers(*clusterList)
		if *self == "" {
			fmt.Fprintln(os.Stderr, "psdpd: -cluster requires -self (this replica's URL in the member list)")
			os.Exit(1)
		}
		found := false
		for _, m := range members {
			found = found || m == *self
		}
		if !found {
			fmt.Fprintf(os.Stderr, "psdpd: -self %q is not in -cluster %q\n", *self, *clusterList)
			os.Exit(1)
		}
		rep = cluster.NewReplica(cluster.ReplicaConfig{
			Self:           *self,
			Members:        members,
			ProbeInterval:  *probeInterval,
			LocalResults:   store.NewResultLRU(*cacheEntries),
			LocalRevisions: store.NewRevisionLRU(*revisions),
		})
		cfg.Results = rep.Results
		cfg.Revisions = rep.Revisions
		cfg.Placement = rep.Ring
		cfg.SelfURL = *self
		cfg.ClusterInfo = rep.Info
		cfg.RegisterMetrics = rep.RegisterMetrics
		log.Printf("psdpd: cluster mode, self=%s members=%d", *self, len(members))
	}

	srv := serve.New(cfg)
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psdpd: %v\n", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: srv}
	log.Printf("psdpd: listening on http://%s (workers=%d queue=%d cache=%d timeout=%s)",
		ln.Addr(), *workers, *queue, *cacheEntries, *timeout)
	if rep != nil {
		// Probe only once the listener is up: the first round includes
		// this replica's own /readyz, which must not be refused.
		rep.Start(ctx)
	}

	var opsSrv *http.Server
	if *opsAddr != "" {
		opsLn, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psdpd: ops listener: %v\n", err)
			os.Exit(1)
		}
		opsSrv = &http.Server{Handler: opsMux(srv)}
		go func() {
			if err := opsSrv.Serve(opsLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("psdpd: ops listener: %v", err)
			}
		}()
		log.Printf("psdpd: ops surface on http://%s (pprof, metrics, statsz, debugz)", opsLn.Addr())
	}

	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "psdpd: %v\n", err)
			os.Exit(1)
		}
	case s := <-sig:
		log.Printf("psdpd: %v, draining", s)
		dctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
		defer cancel()
		// Graceful drain first: admission stops (new solves 307-redirect
		// to peers in cluster mode), in-flight work finishes, /readyz
		// goes 503 so the fleet drops this member — all while the
		// listener stays up for redirects and peer fetches. Only then
		// does the listener close.
		if err := srv.Drain(dctx); err != nil {
			log.Printf("psdpd: drain: %v", err)
		}
		stopCluster()
		if opsSrv != nil {
			opsSrv.Shutdown(dctx)
		}
		if err := httpSrv.Shutdown(dctx); err != nil {
			log.Printf("psdpd: shutdown: %v", err)
		}
	}
}

// splitMembers parses the -cluster list (comma-separated base URLs,
// trailing slashes trimmed so member names compare equal everywhere).
func splitMembers(s string) []string {
	var out []string
	for _, m := range strings.Split(s, ",") {
		m = strings.TrimSuffix(strings.TrimSpace(m), "/")
		if m != "" {
			out = append(out, m)
		}
	}
	return out
}

// opsMux builds the operations-surface handler: pprof (registered
// explicitly — the daemon never touches http.DefaultServeMux) plus the
// observability endpoints that make sense next to a profile.
func opsMux(srv *serve.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if h := srv.Metrics(); h != nil {
		mux.Handle("GET /metrics", h)
	}
	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, srv.Stats())
	})
	mux.HandleFunc("GET /debugz/slow", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{"entries": srv.SlowSnapshot()})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
