package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/store"
	"repro/internal/work"
)

// Config sizes the server. The zero value is usable: every field has a
// production-lean default filled in by New.
type Config struct {
	// Workers is the total number of solver workers (default GOMAXPROCS).
	Workers int
	// Shards is the number of independent queue+worker groups requests
	// are routed over by content digest (default min(Workers, 8)).
	Shards int
	// QueueDepth bounds each shard's admission queue; a full queue
	// answers 429 + Retry-After (default 64).
	QueueDepth int
	// CacheEntries caps the content-addressed result cache; 0 means the
	// default (1024), negative disables caching.
	CacheEntries int
	// MaxBodyBytes bounds request bodies (default 32 MiB).
	MaxBodyBytes int64
	// DefaultTimeout is the per-request solve deadline when the request
	// carries none (default 30s); MaxTimeout caps request-supplied
	// deadlines (default 5m).
	DefaultTimeout, MaxTimeout time.Duration
	// MaxBatch caps /v1/batch items (default 256).
	MaxBatch int
	// RevisionEntries caps the warm-start revision store (final solver
	// states + materialized instances, keyed by response digest); 0
	// means the default (128), negative disables incremental solving
	// (/v1/delta answers 404 for every base).
	RevisionEntries int
	// DefaultEngine is what a request with no engine field gets: the
	// zero value is core.EngineMMW (the reference engine), matching the
	// library default. Requests naming an engine are unaffected.
	DefaultEngine core.EngineKind
	// DisableMetrics turns off the /metrics registry (the endpoint then
	// answers 404). The default — metrics on — is designed to be safe:
	// every hot-path series is preallocated atomics, so leaving it
	// enabled costs no allocations and no locks on the request path.
	DisableMetrics bool
	// Logger, when non-nil, receives one structured record per HTTP
	// request (request ID, method, path, status, duration, cache
	// disposition). Nil disables request logging.
	Logger *slog.Logger
	// SlowSolve is the duration at or above which a successful solve is
	// recorded in the /debugz/slow ring (default 1s). Failed solves
	// (5xx) are always recorded.
	SlowSolve time.Duration

	// Results, when non-nil, replaces the default in-process result LRU
	// (store.NewResultLRU(CacheEntries)). The cluster tier injects a
	// peer-backed store here so a miss asks the digest's owner before
	// solving locally.
	Results store.ResultStore
	// Revisions, when non-nil, replaces the default in-process revision
	// LRU (store.NewRevisionLRU(RevisionEntries)).
	Revisions store.RevisionStore
	// Placement maps content digests to owning replicas; nil means
	// placement.Local{} (single-node: every digest is owned here). The
	// server itself never proxies solves — routing is the front tier's
	// job — but drain redirects and /statsz membership read it.
	Placement placement.Placement
	// SelfURL is this replica's base URL as it appears in the member
	// list ("" for single-node). Drain redirects exclude it.
	SelfURL string
	// SolveFloor, when positive, holds the worker for at least this long
	// per EXECUTED solve (cache hits and singleflight shares are
	// unaffected). It exists for capacity modeling: on a machine with
	// fewer cores than replicas under test, per-replica throughput is
	// pinned to Workers/SolveFloor so cluster scaling measurements are
	// honest about what they measure. Production deployments leave it 0.
	SolveFloor time.Duration
	// ClusterInfo, when non-nil, is sampled by /statsz into the
	// "cluster" section (membership view, per-peer counters). The
	// cluster wiring in cmd/psdpd installs it; single-node leaves it nil.
	ClusterInfo func() any
	// RegisterMetrics, when non-nil, runs against the /metrics registry
	// at construction so outer layers (the cluster stores' per-peer
	// fetch counters) can export series without a second registry.
	RegisterMetrics func(*obs.Registry)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Shards <= 0 {
		c.Shards = min(c.Workers, 8)
	}
	if c.Shards > c.Workers {
		c.Shards = c.Workers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.RevisionEntries == 0 {
		c.RevisionEntries = 128
	}
	if c.SlowSolve <= 0 {
		c.SlowSolve = time.Second
	}
	return c
}

// flight is one in-progress solve shared by every concurrent request
// with the same digest (singleflight): the first arrival leads and
// solves; followers wait on done and reuse the leader's bytes (and the
// leader's iteration count — deterministic, so shared answers carry the
// same X-Psdpd-Iterations a lone solve would).
type flight struct {
	done   chan struct{}
	status int
	cache  string
	body   []byte
	iters  int
}

type counters struct {
	requests    atomic.Int64
	admitted    atomic.Int64
	solves      atomic.Int64
	dedupShared atomic.Int64
	rejected    atomic.Int64
	cancelled   atomic.Int64
	errors      atomic.Int64
	inFlight    atomic.Int64
	// Incremental-solving counters: delta requests that materialized
	// and entered the pipeline, 404s for unknown/evicted bases, and the
	// warm-vs-cold split of how delta solves actually started.
	deltaRequests     atomic.Int64
	deltaBaseMisses   atomic.Int64
	warmStarts        atomic.Int64
	warmColdFallbacks atomic.Int64
	// bodyMemoHits counts solve requests answered through the body memo
	// (no decode, no build, no digest).
	bodyMemoHits atomic.Int64
	// admits counts ADMITTED requests per (kind, representation, engine)
	// label combination, preallocated from the kind table. It moves at
	// the single point where a request has passed every validation gate
	// and enters the solve pipeline, so operators can see which
	// constraint encodings and engines a deployment actually serves.
	// Malformed or rejected payloads never inflate it: a 400 is not
	// workload. The engine label is the EFFECTIVE engine — the server
	// default substituted for "", and "auto" resolved where the kind's
	// digest resolves it — and mixed requests count under their own
	// "mixed-" representation family (a mixed-sparse solve exercises
	// different code than a plain sparse decision).
	admits map[admitKey]*atomic.Int64
}

// Server is the psdpd HTTP solve service: wire handlers in front of a
// sharded worker pool with pinned workspaces, a bounded admission queue
// with backpressure, and a content-addressed result cache with
// singleflight deduplication.
//
// Endpoints:
//
//	POST /v1/decision  — one ε-decision call (Algorithm 3.1)
//	POST /v1/maximize  — the full packing optimizer (Lemma 2.2)
//	POST /v1/solve     — a general positive SDP (Appendix A pipeline)
//	POST /v1/mixed     — a mixed packing/covering system (§5 extension)
//	POST /v1/batch     — many of the above in one request
//	GET  /healthz      — liveness (process up)
//	GET  /readyz       — readiness (503 while all admission queues are full)
//	GET  /statsz       — counters (requests, cache, queue, pool)
//	GET  /metrics      — Prometheus text exposition (unless disabled)
//	GET  /debugz/slow  — ring of the most recent slow/failed solves
type Server struct {
	cfg     Config
	pool    *Pool
	results store.ResultStore
	revs    store.RevisionStore
	// revsEnabled gates warm-start recording: true when a revision store
	// was injected or RevisionEntries is positive.
	revsEnabled bool
	place       placement.Placement
	lineage     *lineageLog
	mux         *http.ServeMux
	stats       counters
	start       time.Time

	// draining flips once on SIGTERM: admission stops (new solves are
	// 307-redirected to a healthy peer, or 503 with no peers), in-flight
	// work finishes, /readyz goes 503 so the front drops this member.
	draining       atomic.Bool
	drainRedirects atomic.Int64
	drainNext      atomic.Uint64

	// metrics is the /metrics registry wiring (nil when disabled); slow
	// is the /debugz/slow ring; phases aggregates SolveStats across
	// every solve; logger receives per-request records (nil = off).
	metrics *serveMetrics
	slow    *slowLog
	phases  phaseTotals
	logger  *slog.Logger

	fmu     sync.Mutex
	flights map[digest]*flight

	// bodies memoizes, per raw solve body this replica accepted, what
	// prepare derived from it (see memo.go).
	bodies BodyMemo[memoEntry]

	// solveSeconds is an EWMA of observed successful solve wall times
	// (float64 bits in seconds), fed by solveClosure and read by
	// retryAfterSeconds to turn a 429 into an actionable hint. Zero
	// means "no solve observed yet".
	solveSeconds atomic.Uint64

	// testHookBeforeSolve, when non-nil, runs on the worker goroutine
	// immediately before each solve. Tests use it to hold solves open
	// deterministically (dedup, queue-overflow).
	testHookBeforeSolve func()
	// testHookSolveCtx, when non-nil, wraps the context each solve runs
	// under. Tests use it to stop a solve at an exact iteration.
	testHookSolveCtx func(context.Context) context.Context
}

// New starts a Server (its worker pool begins running immediately).
// Callers must Close it to stop the workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		pool:        NewPool(cfg.Shards, cfg.Workers, cfg.QueueDepth),
		results:     cfg.Results,
		revs:        cfg.Revisions,
		revsEnabled: cfg.Revisions != nil || cfg.RevisionEntries > 0,
		place:       cfg.Placement,
		lineage:     newLineageLog(32),
		mux:         http.NewServeMux(),
		start:       time.Now(),
		flights:     make(map[digest]*flight),
		slow:        &slowLog{},
		logger:      cfg.Logger,
	}
	if s.results == nil {
		s.results = store.NewResultLRU(cfg.CacheEntries)
	}
	if s.revs == nil {
		s.revs = store.NewRevisionLRU(cfg.RevisionEntries)
	}
	if s.place == nil {
		s.place = placement.Local{}
	}
	s.stats.admits = make(map[admitKey]*atomic.Int64)
	for _, k := range admitCombos() {
		s.stats.admits[k] = new(atomic.Int64)
	}
	if !cfg.DisableMetrics {
		s.metrics = newServeMetrics(s)
		if cfg.RegisterMetrics != nil {
			cfg.RegisterMetrics(s.metrics.reg)
		}
	}
	for _, k := range kinds {
		s.mux.HandleFunc("POST /v1/"+k.name, s.handleKind(k.name))
	}
	s.mux.HandleFunc("POST /v1/delta", s.handleDelta)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/peer/result/{digest}", s.handlePeerResult)
	s.mux.HandleFunc("GET /v1/peer/revision/{digest}", s.handlePeerRevision)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /debugz/slow", s.handleSlow)
	if s.metrics != nil {
		s.mux.Handle("GET /metrics", s.metrics.reg.Handler())
	}
	return s
}

// Metrics returns the Prometheus exposition handler backing GET
// /metrics (nil when metrics are disabled), so an ops listener can
// serve the same registry on a separate address.
func (s *Server) Metrics() http.Handler {
	if s.metrics == nil {
		return nil
	}
	return s.metrics.reg.Handler()
}

// SlowSnapshot returns the retained slow/failed-solve records, newest
// first — the same data GET /debugz/slow serves.
func (s *Server) SlowSnapshot() []SlowEntry { return s.slow.Snapshot() }

// Close stops the worker pool after draining queued jobs. The caller is
// responsible for stopping the HTTP listener first.
func (s *Server) Close() { s.pool.Close() }

// Stats snapshots the service counters.
func (s *Server) Stats() StatsResponse {
	hits, _ := s.results.Counters()
	byRep, byEngine := map[string]int64{}, map[string]int64{}
	for k, c := range s.stats.admits {
		byRep[k.rep] += c.Load()
		byEngine[k.engine] += c.Load()
	}
	var cluster any
	if s.cfg.ClusterInfo != nil {
		cluster = s.cfg.ClusterInfo()
	}
	return StatsResponse{
		Requests:              s.stats.requests.Load(),
		Admitted:              s.stats.admitted.Load(),
		Solves:                s.stats.solves.Load(),
		CacheHits:             hits,
		CacheEntries:          s.results.Len(),
		DedupShared:           s.stats.dedupShared.Load(),
		Rejected:              s.stats.rejected.Load(),
		Cancelled:             s.stats.cancelled.Load(),
		Errors:                s.stats.errors.Load(),
		InFlight:              s.stats.inFlight.Load(),
		QueueDepth:            s.pool.QueueDepth(),
		PoolExecuted:          s.pool.Executed(),
		PoolSkipped:           s.pool.Skipped(),
		PoolMisses:            s.pool.Misses(),
		ShardPoolMisses:       s.pool.ShardMisses(),
		RequestsDense:         byRep["dense"],
		RequestsFactored:      byRep["factored"],
		RequestsSparse:        byRep["sparse"],
		RequestsProgram:       byRep["program"],
		RequestsMixedDense:    byRep["mixed-dense"],
		RequestsMixedFactored: byRep["mixed-factored"],
		RequestsMixedSparse:   byRep["mixed-sparse"],
		RequestsMMW:           byEngine[core.EngineNameMMW],
		RequestsALO:           byEngine[core.EngineNameALO],
		RequestsAuto:          byEngine["auto"],
		DeltaRequests:         s.stats.deltaRequests.Load(),
		DeltaBaseMisses:       s.stats.deltaBaseMisses.Load(),
		WarmStarts:            s.stats.warmStarts.Load(),
		ColdFallbacks:         s.stats.warmColdFallbacks.Load(),
		BodyMemoHits:          s.stats.bodyMemoHits.Load(),
		Revisions:             s.revs.Len(),
		DeltaLineage:          s.lineage.Snapshot(),
		SolverIterations:      s.phases.iterations.Load(),
		SolverOracleNS:        s.phases.oracleNS.Load(),
		SolverExpmNS:          s.phases.expmNS.Load(),
		SolverUpdateNS:        s.phases.updateNS.Load(),
		SolverBookkeepNS:      s.phases.bookkeepNS.Load(),
		UptimeSeconds:         int64(time.Since(s.start).Seconds()),
		Draining:              s.draining.Load(),
		DrainRedirects:        s.drainRedirects.Load(),
		Cluster:               cluster,
	}
}

// handleHealthz is liveness only: the process is up and serving HTTP.
// Load-balancer health gates belong on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleReadyz is readiness: 503 while every shard's admission queue is
// at capacity, because a saturated pool answers 429 to any new solve —
// a front tier should route fresh traffic elsewhere until the queues
// drain. Liveness (/healthz) stays 200 throughout: the process is
// healthy, just full.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ready": false, "reason": "draining"})
		return
	}
	if s.pool.Saturated() {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ready": false, "reason": "all admission queues saturated"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// handleSlow serves the slow/failed-solve ring, newest first.
func (s *Server) handleSlow(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"entries": s.slow.Snapshot()})
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleKind serves one solve route. A body this replica has accepted
// before is answered from the memo when its answer is still stored;
// any other body is decoded and runs the full pipeline, which memoizes
// it once it passes validation.
func (s *Server) handleKind(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := s.readSolveBody(w, r)
		if !ok {
			return
		}
		key := HashBody(kind, body)
		s.writeSolve(w, s.solveOne(r.Context(), kind, func() solveResult {
			if res, ok := s.memoHit(key); ok {
				return res
			}
			var req Request
			if err := decodeBody(body, &req); err != nil {
				return solveResult{status: http.StatusBadRequest, body: marshalError(err)}
			}
			return s.solveRun(r.Context(), kind, &req, nil, &key)
		}))
	}
}

// memoEntry is what prepare derived from one memoized body: the
// content address, the admission labels, and whether a stored answer
// also needs its revision to count as a hit.
type memoEntry struct {
	d            digest
	admit        admitKey
	wantRevision bool
}

// memoHit answers a memoized body from the stores, exactly as
// solveRun's cache check would answer the decoded request: the same
// bytes, headers and admission counters. It reports false when the
// body is not memoized or its answer (or the revision it needs) is no
// longer stored; the caller then runs the full pipeline. The revision
// is checked first, so a base whose revision was evicted does not count
// a second result-cache hit on its way to the re-solve.
func (s *Server) memoHit(key BodyKey) (solveResult, bool) {
	e, ok := s.bodies.Get(key)
	if !ok || e.wantRevision && s.revs.Get(e.d) == nil {
		return solveResult{}, false
	}
	body, iters := s.results.Get(e.d)
	if body == nil {
		return solveResult{}, false
	}
	s.stats.bodyMemoHits.Add(1)
	s.stats.admitted.Add(1)
	s.stats.admits[e.admit].Add(1)
	return hitResult(e.d, body, iters), true
}

func hitResult(d digest, body []byte, iters int) solveResult {
	return solveResult{status: http.StatusOK, cache: "hit", body: body, iters: iters, digest: d, haveDigest: true}
}

// writeSolve answers one solve with its content address and, behind a
// 200, its iteration count.
func (s *Server) writeSolve(w http.ResponseWriter, res solveResult) {
	if res.haveDigest {
		w.Header().Set("X-Psdpd-Digest", res.digest.String())
	}
	if res.status == http.StatusOK {
		w.Header().Set("X-Psdpd-Iterations", strconv.Itoa(res.iters))
	}
	s.writeResult(w, res.status, res.cache, res.body)
}

// handleDelta is the incremental-solving endpoint: it resolves the
// delta's base digest in the revision store, materializes base+delta
// (canonicalized like a directly-posted sparse document), and runs it
// through the ordinary decision pipeline with the base's final solver
// state as the warm start. Identity deltas land on the base's plain
// content address and return the base's exact bytes from the cache;
// genuine revisions solve under a warm lineage address so warm bytes
// never pollute the cold content address space.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !s.readSolveRequest(w, r, &req) {
		return
	}
	if req.Instance == nil || req.Instance.Delta == nil {
		s.writeError(w, http.StatusBadRequest, errors.New("serve: delta request needs an instance carrying a delta document"))
		return
	}
	if req.Program != nil {
		s.writeError(w, http.StatusBadRequest, errors.New("serve: delta request cannot carry a program"))
		return
	}
	dd := req.Instance.Delta
	baseKey, err := parseDigest(dd.Base)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	rev := s.revs.Get(baseKey)
	if rev == nil {
		s.stats.deltaBaseMisses.Add(1)
		s.writeError(w, http.StatusNotFound,
			fmt.Errorf("serve: unknown base revision %s (solve the base via /v1/decision first; it may have been evicted)", dd.Base))
		return
	}
	mat, err := instio.ApplyDelta(rev.Inst, req.Instance)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	dreq := req
	dreq.Instance = mat
	// The base revision decides the solve kind: a delta against a mixed
	// base materializes a mixed document and re-solves the mixed system
	// (warm-started from the base's final iterate), everything else is a
	// decision solve.
	kind := "decision"
	if mat.Mixed != nil {
		kind = "mixed"
	}
	w.Header().Set("X-Psdpd-Base", dd.Base)
	warm := &warmLink{baseKey: baseKey, baseHex: dd.Base, rev: rev}
	s.writeSolve(w, s.solveOne(r.Context(), kind, func() solveResult {
		return s.solveRun(r.Context(), kind, &dreq, warm, nil)
	}))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var batch BatchRequest
	if !s.readSolveRequest(w, r, &batch) {
		return
	}
	if len(batch.Requests) == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("serve: batch has no requests"))
		return
	}
	if len(batch.Requests) > s.cfg.MaxBatch {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: batch has %d requests, max %d", len(batch.Requests), s.cfg.MaxBatch))
		return
	}
	out := BatchResponse{Responses: make([]BatchItemResult, len(batch.Requests))}
	var wg sync.WaitGroup
	for i := range batch.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := &batch.Requests[i]
			kind := req.Kind
			if kind == "" {
				kind = "decision"
			}
			res := s.solveOne(r.Context(), kind, func() solveResult {
				return s.solveRun(r.Context(), kind, req, nil, nil)
			})
			item := BatchItemResult{Status: res.status, Cache: res.cache}
			if res.status == http.StatusOK {
				item.Response = res.body
			} else {
				var er ErrorResponse
				if json.Unmarshal(res.body, &er) == nil {
					item.Error = er.Error
				}
			}
			out.Responses[i] = item
		}(i)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, &out)
}

// warmLink carries the incremental-solving context of a delta request
// into the solve pipeline: the revision key the client named, its hex
// form for lineage records, and the stored base revision, whose
// warm-start payload the kind's run reads (the final decision state for
// decision bases, the final iterate for mixed bases).
type warmLink struct {
	baseKey digest
	baseHex string
	rev     *store.Revision
}

// solveResult is solveOne's outcome: HTTP status, cache disposition
// ("hit", "miss", "shared", or "" for pre-digest failures), the
// marshaled body, the solver iteration count behind a 200 (served in
// X-Psdpd-Iterations; deterministic, so hits and shares repeat it
// exactly), and the content address the response lives under
// (haveDigest false for pre-digest failures).
type solveResult struct {
	status     int
	cache      string
	body       []byte
	iters      int
	digest     digest
	haveDigest bool
}

// solveOne runs one solve attempt (a memo hit or solveRun), counts it
// in flight, times it, and feeds the slow/failed ring: every 5xx, and
// every 200 whose wall time reached Config.SlowSolve, leaves a record
// behind (with the request ID, when the context carries one, as the
// join key back to the access log).
func (s *Server) solveOne(clientCtx context.Context, kind string, run func() solveResult) solveResult {
	s.stats.inFlight.Add(1)
	start := time.Now()
	res := run()
	elapsed := time.Since(start)
	s.stats.inFlight.Add(-1)
	slow := res.status == http.StatusOK && elapsed >= s.cfg.SlowSolve
	if slow || res.status >= http.StatusInternalServerError {
		e := SlowEntry{
			Time:       nowRFC3339(),
			RequestID:  requestIDFrom(clientCtx),
			Kind:       kind,
			Status:     res.status,
			Cache:      res.cache,
			DurationMS: float64(elapsed.Nanoseconds()) / 1e6,
			Iterations: res.iters,
		}
		if res.haveDigest {
			e.Digest = res.digest.String()
		}
		if res.status != http.StatusOK {
			e.Detail = slowDetail(res.body)
		}
		s.slow.add(e)
	}
	return res
}

// solveRun runs one request end to end: validate and build, digest,
// cache lookup, singleflight join-or-lead, pool admission, solve.
// warm is non-nil on the /v1/delta path only; memo, when non-nil, is
// the key the request's body is memoized under once it is admitted.
func (s *Server) solveRun(clientCtx context.Context, kind string, req *Request, warm *warmLink, memo *BodyKey) solveResult {
	p, err := s.prepare(kind, req, warm)
	if err != nil {
		return solveResult{status: http.StatusBadRequest, body: marshalError(err)}
	}
	// The request is now admitted: every validation gate has passed and
	// it enters the solve pipeline. This is the single point where the
	// admission, per-representation, and delta counters move —
	// rejections above never touch them.
	s.stats.admitted.Add(1)
	s.stats.admits[p.admit].Add(1)
	if p.isDelta {
		s.stats.deltaRequests.Add(1)
	}
	if memo != nil {
		s.bodies.Put(*memo, memoEntry{d: p.d, admit: p.admit, wantRevision: p.wantRevision})
	}

	// Followers share only success. A leader's failure can be specific
	// to that leader — its tighter timeoutMs fired, its admission lost a
	// queue race — so a follower whose flight fails retries the loop:
	// it finds the cache filled, leads its own solve (under its own
	// deadline), or at worst inherits a second failure and reports it.
	const maxAttempts = 3
	out := solveResult{digest: p.d, haveDigest: true}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if cached, iters := s.results.Get(p.d); cached != nil {
			// A decision hit whose revision was evicted falls through to
			// a fresh (deterministic, byte-identical) solve purely to
			// repopulate the revision store; everything else returns the
			// cached bytes outright.
			if !p.wantRevision || s.revs.Get(p.d) != nil {
				return hitResult(p.d, cached, iters)
			}
		}

		s.fmu.Lock()
		if f, ok := s.flights[p.d]; ok {
			s.fmu.Unlock()
			s.stats.dedupShared.Add(1)
			select {
			case <-f.done:
				out.status, out.cache, out.body, out.iters = f.status, "shared", f.body, f.iters
				if out.status == http.StatusOK {
					return out
				}
				continue // leader-specific failure: retry as our own leader
			case <-clientCtx.Done():
				s.stats.cancelled.Add(1)
				out.status, out.cache, out.body = http.StatusServiceUnavailable, "shared", marshalError(clientCtx.Err())
				return out
			}
		}
		f := &flight{done: make(chan struct{})}
		s.flights[p.d] = f
		s.fmu.Unlock()

		f.status, f.cache, f.body, f.iters = s.execute(req, p.d, p.fn)
		s.fmu.Lock()
		delete(s.flights, p.d)
		s.fmu.Unlock()
		close(f.done)
		out.status, out.cache, out.body, out.iters = f.status, f.cache, f.body, f.iters
		return out
	}
	return out
}

// execute is the singleflight leader's path: admission, solve, cache
// fill. The solve context is detached from any single client connection
// — followers and the cache outlive the leader's socket — and bounded
// by the per-request deadline, which is the cancellation mechanism:
// when it fires mid-solve, the decision stepper aborts at its next
// iteration checkpoint and the worker's workspace gets every buffer
// back before the next job.
func (s *Server) execute(req *Request, d digest, fn poolFn) (int, string, []byte, int) {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = min(time.Duration(req.TimeoutMs)*time.Millisecond, s.cfg.MaxTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	v, err := s.pool.Do(ctx, shardKey(d), fn)
	switch {
	case errors.Is(err, ErrQueueFull):
		s.stats.rejected.Add(1)
		return http.StatusTooManyRequests, "miss", marshalError(err), 0
	case errors.Is(err, ErrPoolClosed):
		return http.StatusServiceUnavailable, "miss", marshalError(err), 0
	case errors.Is(err, context.DeadlineExceeded):
		s.stats.cancelled.Add(1)
		return http.StatusGatewayTimeout, "miss", marshalError(err), 0
	case errors.Is(err, context.Canceled):
		s.stats.cancelled.Add(1)
		return http.StatusServiceUnavailable, "miss", marshalError(err), 0
	case err != nil:
		s.stats.errors.Add(1)
		return http.StatusInternalServerError, "miss", marshalError(err), 0
	}
	body, merr := json.Marshal(v)
	if merr != nil {
		s.stats.errors.Add(1)
		return http.StatusInternalServerError, "miss", marshalError(merr), 0
	}
	// The iteration count rides with the cached body: it is a property
	// of the deterministic solve, so hits and shares must serve the same
	// X-Psdpd-Iterations a fresh solve would.
	iters := v.(response).iterCount()
	s.results.Put(d, body, iters)
	return http.StatusOK, "miss", body, iters
}

// prepared is the outcome of request validation: the solve closure,
// the content address the result lives under (on the delta path this
// is the warm lineage address), and the admission counter's labels.
type prepared struct {
	fn    poolFn
	d     digest
	admit admitKey
	// wantRevision marks solves that should leave a warm-startable
	// revision behind (sparse-packed solves of a delta-base kind with the
	// store enabled — recording other solves would just pay snapshot
	// copies to evict usable bases): a cache hit whose revision was
	// evicted re-solves instead of short-circuiting, so the store is
	// repopulated and /v1/delta's "re-POST the base" instruction
	// actually works.
	wantRevision bool
	// isDelta marks requests that arrived through /v1/delta (for the
	// admission counter), independent of whether they still carry a
	// warm link after identity-delta demotion.
	isDelta bool
}

// prepare validates, builds, and digests the request (buildRequest),
// demotes identity deltas, and returns the solve closure.
func (s *Server) prepare(kind string, req *Request, warm *warmLink) (prepared, error) {
	b, err := buildRequest(kind, req, s.cfg.DefaultEngine)
	if err != nil {
		return prepared{}, err
	}
	if warm != nil && !b.k.deltaBase {
		return prepared{}, fmt.Errorf("serve: warm start does not apply to %s solves", kind)
	}
	_, sparse := b.set.(*core.SparseSet)
	p := prepared{
		d:            b.d,
		admit:        admitKey{kind: kind, rep: b.rep, engine: b.engine.String()},
		wantRevision: s.revsEnabled && b.k.deltaBase && sparse,
		isDelta:      warm != nil,
	}
	if warm != nil && b.d == warm.baseKey {
		// Identity delta: the materialized content IS the base content,
		// so the canonical answer is the base solve itself. Demote to a
		// plain re-solve of the base — normally a cache hit returning the
		// base bytes bitwise; a cold regeneration of those exact bytes
		// (refreshing the revision) when the cache evicted them. Either
		// way the response lands on the base's content address, never a
		// warm lineage address.
		warm = nil
	} else if warm != nil {
		// Warm-started bytes are certified but not bitwise what a cold
		// solve would produce, so they live under a lineage address,
		// never the plain content address.
		p.d = warmDigest(b.d, warm.baseKey)
	}
	p.fn = s.solveClosure(b, req.Instance, p.d, p.wantRevision, warm)
	return p, nil
}

// solveClosure is the one solve path every kind runs through: the test
// hook, the solve counter, the kind's run, phase and revision
// recording, the capacity floor, the latency EWMA, and the per-kind
// solve-latency histogram. record asks for a revision under key.
func (s *Server) solveClosure(b *built, inst *instio.Instance, key digest, record bool, warm *warmLink) poolFn {
	var base *store.Revision
	if warm != nil {
		base = warm.rev
	}
	return func(ctx context.Context, ws *work.Workspace) (any, error) {
		if s.testHookBeforeSolve != nil {
			s.testHookBeforeSolve()
		}
		if s.testHookSolveCtx != nil {
			ctx = s.testHookSolveCtx(ctx)
		}
		s.stats.solves.Add(1)
		start := time.Now()
		var st core.SolveStats
		o := b.opts
		// The state snapshot costs three O(n) copies at finish; take it
		// only when a revision will keep it.
		o.Ctx, o.Workspace, o.Phases, o.CaptureState = ctx, ws, &st, record
		out, err := b.k.run(b, o, base)
		if err == nil {
			s.recordPhases(&st)
			if record {
				s.recordRevision(key, inst, out, warm)
			}
		}
		if floor := s.cfg.SolveFloor; floor > 0 {
			// Capacity modeling: the worker stays held until the floor
			// elapses, so per-replica throughput is exactly
			// Workers/SolveFloor regardless of how fast the solve ran.
			if rem := floor - time.Since(start); rem > 0 {
				time.Sleep(rem)
			}
		}
		if err != nil {
			return nil, err
		}
		sec := time.Since(start).Seconds()
		s.observeSolveSeconds(sec)
		s.metrics.observeSolve(b.k.name, sec)
		return out.resp, nil
	}
}

// recordRevision stores a finished solve in the revision store (making
// it a warm-startable base for future deltas) and, on the delta path,
// records the lineage and the warm-vs-cold split.
func (s *Server) recordRevision(key digest, inst *instio.Instance, out solved, warm *warmLink) {
	rev := out.rev
	rev.Inst = inst
	if warm != nil {
		// The parent link is what the revision store's pinning policy
		// walks: while this derived revision lives, its base cannot be
		// evicted out from under the warm-start chain.
		rev.Parent = &warm.baseKey
	}
	s.revs.Put(key, &rev)
	if warm == nil {
		return
	}
	if out.warmStarted {
		s.stats.warmStarts.Add(1)
	} else {
		s.stats.warmColdFallbacks.Add(1)
	}
	s.lineage.Add(LineageEntry{
		Base:        warm.baseHex,
		Derived:     key.String(),
		WarmStarted: out.warmStarted,
		Iterations:  out.resp.iterCount(),
	})
}

// observeSolveSeconds folds one successful solve's wall time into the
// latency EWMA (weight 1/8; the first observation seeds it). Failed or
// cancelled solves are excluded: a deadline-truncated sample says
// nothing about how long a queued job will actually hold a worker.
func (s *Server) observeSolveSeconds(sec float64) {
	for {
		old := s.solveSeconds.Load()
		ewma := sec
		if old != 0 {
			ewma = math.Float64frombits(old)
			ewma += (sec - ewma) / 8
		}
		if s.solveSeconds.CompareAndSwap(old, math.Float64bits(ewma)) {
			return
		}
	}
}

// retryAfterSeconds derives the Retry-After hint on a 429 from live
// backpressure instead of a constant: the rejected client is behind
// every queued job plus the round already on the workers, the pool
// drains Workers jobs per round, and one round lasts about one EWMA
// solve. Clamped to [1, 30] so a cold server never advertises 0 and a
// pathological queue never parks clients for minutes against a
// transient spike.
func (s *Server) retryAfterSeconds() int {
	ewma := math.Float64frombits(s.solveSeconds.Load())
	w := s.cfg.Workers
	rounds := (s.pool.QueueDepth() + 2*w - 1) / w // ceil((queued+workers)/workers)
	secs := int(math.Ceil(float64(rounds) * ewma))
	return min(max(secs, 1), 30)
}

// readSolveBody is the front door of every solve route: it counts the
// request, redirects it while draining, and reads the body (at most
// MaxBodyBytes), answering 400 when that fails. It returns the body and
// whether the handler should go on.
func (s *Server) readSolveBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	s.stats.requests.Add(1)
	if s.redirectIfDraining(w, r) {
		return nil, false
	}
	body, err := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: parsing request: %w", err))
		return nil, false
	}
	return body, true
}

// readSolveRequest is readSolveBody followed by decodeBody into dst.
func (s *Server) readSolveRequest(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, ok := s.readSolveBody(w, r)
	if !ok {
		return false
	}
	if err := decodeBody(body, dst); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// decodeBody strictly parses body into dst: unknown fields are an
// error, and so is anything but whitespace after the JSON value — a
// body with trailing bytes is not the request its prefix spells.
func decodeBody(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("serve: parsing request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("serve: parsing request: unexpected data after the JSON value")
	}
	return nil
}

func (s *Server) writeResult(w http.ResponseWriter, status int, cacheState string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if cacheState != "" {
		h.Set("X-Psdpd-Cache", cacheState)
	}
	if status == http.StatusTooManyRequests {
		h.Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte("\n"))
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeResult(w, status, "", marshalError(err))
}

func marshalError(err error) []byte {
	body, merr := json.Marshal(&ErrorResponse{Error: err.Error()})
	if merr != nil {
		return []byte(`{"error":"internal error"}`)
	}
	return body
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
