package serve

import (
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// This file threads the obs registry through the serving layer. The
// design splits metrics into two classes:
//
//   - Func-backed series sample the counters the server already keeps
//     (s.stats atomics, cache, pool, revision store) at scrape time —
//     no double counting and zero hot-path cost. The admitted counters
//     are among them: s.stats.admits is preallocated per label
//     combination, so admission is a struct-keyed map read plus an
//     atomic add.
//   - Native series (the latency histograms) are preallocated here for
//     every valid label, so the request path touches only atomics: a
//     map lookup plus Histogram.Observe allocates nothing.
//
// Solver phase telemetry stays out of response bodies on purpose: the
// wall times are nondeterministic, and response bytes are content-
// addressed (a cached answer must be bitwise identical to the solve
// that produced it). Phases therefore surface only here and in
// /statsz; the deterministic iteration count is what travels with the
// response (X-Psdpd-Iterations).

// admitKey identifies one admitted-request series: the endpoint kind,
// the representation label, and the effective engine label.
type admitKey struct{ kind, rep, engine string }

// serveMetrics owns the registry and the preallocated native series.
type serveMetrics struct {
	reg       *obs.Registry
	e2e       map[string]*obs.Histogram // by request path; "" is "other"
	solve     map[string]*obs.Histogram // by solve kind
	queueWait *obs.Histogram
}

// phaseTotals aggregates core.SolveStats across every solve the daemon
// has run, split by phase — the service-lifetime view of the paper's
// per-iteration cost anatomy.
type phaseTotals struct {
	iterations, oracleNS, expmNS, updateNS, bookkeepNS atomic.Int64
}

func (s *Server) recordPhases(st *core.SolveStats) {
	s.phases.iterations.Add(int64(st.Iterations))
	s.phases.oracleNS.Add(st.OracleNS)
	s.phases.expmNS.Add(st.ExpmNS)
	s.phases.updateNS.Add(st.UpdateNS)
	s.phases.bookkeepNS.Add(st.BookkeepNS)
}

// admitCombos enumerates every (kind, rep, engine) label combination a
// request can be admitted under, from the kind table. Kinds whose
// digest resolves "auto" never carry the auto label.
func admitCombos() []admitKey {
	var out []admitKey
	for _, k := range kinds {
		engines := []string{core.EngineNameMMW, core.EngineNameALO, "auto"}
		if k.resolveAuto {
			engines = engines[:2]
		}
		for _, rep := range k.payload.reps {
			for _, e := range engines {
				out = append(out, admitKey{kind: k.name, rep: rep, engine: e})
			}
		}
	}
	return out
}

// otherRoutes labels the non-solve routes for the e2e histogram. Each
// solve route is labelled by its kind, and every unknown path by
// "other", which bounds the cardinality.
var otherRoutes = []struct{ path, label string }{
	{"/v1/delta", "delta"}, {"/v1/batch", "batch"}, {"/healthz", "healthz"}, {"/readyz", "readyz"},
	{"/statsz", "statsz"}, {"/metrics", "metrics"}, {"/debugz/slow", "debugz"},
}

func newServeMetrics(s *Server) *serveMetrics {
	r := obs.NewRegistry()
	m := &serveMetrics{
		reg:   r,
		e2e:   make(map[string]*obs.Histogram),
		solve: make(map[string]*obs.Histogram),
	}

	// Request/outcome counters: scrape-time samples of the live atomics.
	cf := func(name, help string, fn func() int64) {
		r.CounterFunc(name, help, func() float64 { return float64(fn()) })
	}
	cf("psdpd_requests_total", "HTTP requests received.", s.stats.requests.Load)
	cf("psdpd_solves_total", "Solver executions (cache misses that ran).", s.stats.solves.Load)
	cf("psdpd_dedup_shared_total", "Requests served by joining another request's in-flight solve.", s.stats.dedupShared.Load)
	cf("psdpd_rejected_total", "Requests answered 429 (admission queue full).", s.stats.rejected.Load)
	cf("psdpd_cancelled_total", "Requests cancelled or timed out.", s.stats.cancelled.Load)
	cf("psdpd_errors_total", "Requests failed with an internal error.", s.stats.errors.Load)
	cf("psdpd_pool_executed_total", "Pool jobs whose solve actually ran.", s.pool.Executed)
	cf("psdpd_pool_skipped_total", "Pool jobs drained with an already-dead context.", s.pool.Skipped)
	cf("psdpd_delta_requests_total", "Admitted /v1/delta requests.", s.stats.deltaRequests.Load)
	cf("psdpd_delta_base_misses_total", "Delta requests naming an unknown or evicted base.", s.stats.deltaBaseMisses.Load)
	r.CounterFunc("psdpd_delta_lineage_total", "Delta solves by how they actually started: warm from the base's final state, or cold fallback.",
		func() float64 { return float64(s.stats.warmStarts.Load()) }, obs.L("lineage", "warm"))
	r.CounterFunc("psdpd_delta_lineage_total", "Delta solves by how they actually started: warm from the base's final state, or cold fallback.",
		func() float64 { return float64(s.stats.warmColdFallbacks.Load()) }, obs.L("lineage", "cold-fallback"))

	// Cache.
	r.CounterFunc("psdpd_cache_hits_total", "Content-cache hits.", func() float64 {
		h, _ := s.results.Counters()
		return float64(h)
	})
	r.CounterFunc("psdpd_cache_misses_total", "Content-cache misses.", func() float64 {
		_, mi := s.results.Counters()
		return float64(mi)
	})
	cf("psdpd_body_memo_hits_total", "Solve requests answered through the body memo (no decode, build or digest).", s.stats.bodyMemoHits.Load)
	r.GaugeFunc("psdpd_cache_entries", "Content-cache population.", func() float64 { return float64(s.results.Len()) })
	r.GaugeFunc("psdpd_revisions", "Warm-start revision store population.", func() float64 { return float64(s.revs.Len()) })

	// Cluster/drain surface. The per-peer route and fetch counters ride
	// in through Config.RegisterMetrics (the cluster stores own them).
	r.GaugeFunc("psdpd_draining", "1 while the replica is draining (admission stopped).", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	cf("psdpd_drain_redirects_total", "Solve requests 307-redirected to a peer during drain.", s.drainRedirects.Load)

	// Live state gauges.
	r.GaugeFunc("psdpd_in_flight", "Requests currently inside the solve pipeline.",
		func() float64 { return float64(s.stats.inFlight.Load()) })
	r.GaugeFunc("psdpd_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("psdpd_solve_ewma_seconds", "EWMA of successful solve wall times (drives Retry-After).",
		func() float64 { return math.Float64frombits(s.solveSeconds.Load()) })
	r.GaugeFunc("psdpd_queue_capacity", "Per-shard admission queue capacity.",
		func() float64 { return float64(s.pool.QueueCap()) })
	for i := 0; i < s.pool.Shards(); i++ {
		i := i
		lbl := obs.L("shard", strconv.Itoa(i))
		r.GaugeFunc("psdpd_queue_depth", "Queued (not yet picked up) jobs per shard.",
			func() float64 { return float64(s.pool.ShardDepth(i)) }, lbl)
		r.GaugeFunc("psdpd_workspace_misses", "Workspace pool misses per shard (flat = warm buffers reused).",
			func() float64 { return float64(s.pool.ShardMissCount(i)) }, lbl)
	}

	// Solver phase totals: service-lifetime SolveStats aggregates.
	phase := func(label string, src *atomic.Int64) {
		r.CounterFunc("psdpd_solver_phase_seconds_total",
			"Solver wall time by phase (oracle apply, expm/Lanczos, updates, bookkeeping).",
			func() float64 { return float64(src.Load()) / 1e9 }, obs.L("phase", label))
	}
	phase("oracle", &s.phases.oracleNS)
	phase("expm", &s.phases.expmNS)
	phase("update", &s.phases.updateNS)
	phase("bookkeep", &s.phases.bookkeepNS)
	r.CounterFunc("psdpd_solver_iterations_total", "Solver iterations across all solves.",
		func() float64 { return float64(s.phases.iterations.Load()) })

	// Admitted requests, one series per valid combination.
	for _, k := range admitCombos() {
		r.CounterFunc("psdpd_admitted_total",
			"Admitted solve requests by endpoint kind, representation, and effective engine.",
			func() float64 { return float64(s.stats.admits[k].Load()) },
			obs.L("kind", k.kind), obs.L("rep", k.rep), obs.L("engine", k.engine))
	}

	// Latency histograms: end-to-end per endpoint, solve wall time per
	// kind, queue wait pool-wide.
	latency := obs.ExpBuckets(0.0005, 2, 18) // 0.5ms … ~65s
	e2e := func(path, label string) {
		m.e2e[path] = r.Histogram("psdpd_request_seconds",
			"End-to-end request latency by endpoint.", latency, obs.L("endpoint", label))
	}
	for _, k := range kinds {
		e2e("/v1/"+k.name, k.name)
	}
	for _, rt := range otherRoutes {
		e2e(rt.path, rt.label)
	}
	e2e("", "other")
	for _, k := range kinds {
		m.solve[k.name] = r.Histogram("psdpd_solve_seconds",
			"Solve wall time by kind (executed solves only — hits and shares excluded).",
			latency, obs.L("kind", k.name))
	}
	m.queueWait = r.Histogram("psdpd_queue_wait_seconds",
		"Admission-to-pickup queue wait.", obs.ExpBuckets(0.0001, 2, 18)) // 0.1ms … ~13s
	s.pool.SetQueueWaitObserver(func(d time.Duration) { m.queueWait.Observe(d.Seconds()) })
	return m
}

// observeRequest records one end-to-end request latency under the
// request path's endpoint label.
func (m *serveMetrics) observeRequest(path string, sec float64) {
	if m == nil {
		return
	}
	h := m.e2e[path]
	if h == nil {
		h = m.e2e[""]
	}
	h.Observe(sec)
}

// observeSolve records one executed solve's wall time.
func (m *serveMetrics) observeSolve(kind string, sec float64) {
	if m == nil {
		return
	}
	if h := m.solve[kind]; h != nil {
		h.Observe(sec)
	}
}
