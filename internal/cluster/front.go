package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/store"
)

// FrontConfig sizes the front router.
type FrontConfig struct {
	// Members is the replica list the front routes over.
	Members []string
	// ProbeInterval is the /readyz polling period (default 500ms).
	ProbeInterval time.Duration
	// ProxyClient performs the routed requests. Nil means a client with
	// no total timeout: the inbound request's context already bounds the
	// proxied call, and solves legitimately run for minutes.
	ProxyClient *http.Client
	// ProbeClient overrides the health-probe client (default 2s timeout).
	ProbeClient *http.Client
	// DefaultEngine must match the replicas' default engine so the
	// front computes the same content digests they do.
	DefaultEngine core.EngineKind
	// MaxBodyBytes bounds inbound request bodies (default 32 MiB).
	MaxBodyBytes int64
	// MaxInFlight caps concurrently proxied solve requests; beyond it
	// the front answers 429 itself, with Retry-After derived from the
	// slowest healthy replica's observed latency (default 1024).
	MaxInFlight int
}

func (c FrontConfig) withDefaults() FrontConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProxyClient == nil {
		c.ProxyClient = &http.Client{
			// Redirects from a draining replica must reach the client,
			// not be chased by the front: the client re-POSTs itself.
			CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
		}
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 1024
	}
	return c
}

// peerState is the front's per-replica telemetry: routed/error counts
// and an EWMA of proxied request latency (float64 bits; weight 1/8).
type peerState struct {
	routed    atomic.Int64
	errors    atomic.Int64
	ewmaBits  atomic.Uint64
	redirects atomic.Int64
}

func (p *peerState) observe(sec float64) {
	for {
		old := p.ewmaBits.Load()
		ewma := sec
		if old != 0 {
			ewma = math.Float64frombits(old)
			ewma += (sec - ewma) / 8
		}
		if p.ewmaBits.CompareAndSwap(old, math.Float64bits(ewma)) {
			return
		}
	}
}

func (p *peerState) ewma() float64 { return math.Float64frombits(p.ewmaBits.Load()) }

// Front is the psdpd cluster router: each solve request is sent to the
// replica owning its content digest, so cache entries, warm-start
// lineages, and warm worker workspaces stay shard-local across the
// fleet. Responses are relayed verbatim — status, X-Psdpd-* headers,
// Retry-After, body bytes — so a client cannot tell the front from a
// single replica.
type Front struct {
	cfg    FrontConfig
	ring   *placement.Ring
	prober *Prober
	mux    *http.ServeMux
	reg    *obs.Registry
	peers  map[string]*peerState
	start  time.Time

	requests    atomic.Int64
	inFlight    atomic.Int64
	rejected    atomic.Int64
	noMembers   atomic.Int64
	digestFails atomic.Int64
	memoHits    atomic.Int64
	rr          atomic.Uint64

	// bodies memoizes the routing key of every solve body whose digest
	// the front has computed, so a byte-identical repeat is routed
	// without a decode, build or digest.
	bodies serve.BodyMemo[store.Key]
}

// NewFront builds the router. Start must be called to begin health
// probing.
func NewFront(cfg FrontConfig) *Front {
	cfg = cfg.withDefaults()
	f := &Front{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		reg:   obs.NewRegistry(),
		peers: make(map[string]*peerState, len(cfg.Members)),
		start: time.Now(),
	}
	f.ring = placement.NewRing("", cfg.Members)
	f.prober = NewProber(cfg.Members, cfg.ProbeInterval, cfg.ProbeClient, f.ring.Update)
	for _, m := range cfg.Members {
		f.peers[m] = &peerState{}
	}

	for _, kind := range serve.Kinds() {
		f.mux.HandleFunc("POST /v1/"+kind, func(w http.ResponseWriter, r *http.Request) {
			f.handleSolve(w, r, kind)
		})
	}
	f.mux.HandleFunc("POST /v1/delta", f.handleDelta)
	f.mux.HandleFunc("POST /v1/batch", f.handleRoundRobin)
	f.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	f.mux.HandleFunc("GET /readyz", f.handleReadyz)
	f.mux.HandleFunc("GET /statsz", f.handleStatsz)
	f.mux.Handle("GET /metrics", f.reg.Handler())
	f.registerMetrics()
	return f
}

// Start begins health probing until ctx is cancelled.
func (f *Front) Start(ctx context.Context) { f.prober.Start(ctx) }

// ServeHTTP implements http.Handler.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

func (f *Front) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if len(f.prober.Healthy()) == 0 {
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ready": false, "reason": "no healthy members"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// FrontStats is the front's /statsz document. Converged reports
// Prober.Converged: the front's last probe round found every member
// healthy.
type FrontStats struct {
	Requests      int64          `json:"requests"`
	InFlight      int64          `json:"inFlight"`
	Rejected      int64          `json:"rejected"`
	NoMembers     int64          `json:"noMembers"`
	DigestFails   int64          `json:"digestFallbacks"`
	BodyMemoHits  int64          `json:"bodyMemoHits"`
	Members       []MemberStatus `json:"members"`
	Converged     bool           `json:"converged"`
	PerPeer       map[string]any `json:"perPeer"`
	UptimeSeconds int64          `json:"uptimeSeconds"`
}

func (f *Front) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	per := make(map[string]any, len(f.peers))
	for m, p := range f.peers {
		per[m] = map[string]any{
			"routed":      p.routed.Load(),
			"errors":      p.errors.Load(),
			"redirects":   p.redirects.Load(),
			"ewmaSeconds": p.ewma(),
		}
	}
	writeJSON(w, http.StatusOK, FrontStats{
		Requests:      f.requests.Load(),
		InFlight:      f.inFlight.Load(),
		Rejected:      f.rejected.Load(),
		NoMembers:     f.noMembers.Load(),
		DigestFails:   f.digestFails.Load(),
		BodyMemoHits:  f.memoHits.Load(),
		Members:       f.prober.Snapshot(),
		Converged:     f.prober.Converged(),
		PerPeer:       per,
		UptimeSeconds: int64(time.Since(f.start).Seconds()),
	})
}

// handleSolve routes one solve request by its content digest.
func (f *Front) handleSolve(w http.ResponseWriter, r *http.Request, kind string) {
	body, ok := f.admit(w, r)
	if !ok {
		return
	}
	defer f.inFlight.Add(-1)
	target := f.ownerFor(kind, body)
	f.proxy(w, r, body, target)
}

// handleDelta routes by the delta's BASE digest: the revision lineage
// lives on the base's owner, so that is where the warm start is.
func (f *Front) handleDelta(w http.ResponseWriter, r *http.Request) {
	body, ok := f.admit(w, r)
	if !ok {
		return
	}
	defer f.inFlight.Add(-1)
	var probe struct {
		Instance *struct {
			Delta *struct {
				Base string `json:"base"`
			} `json:"delta"`
		} `json:"instance"`
	}
	target := ""
	if json.Unmarshal(body, &probe) == nil && probe.Instance != nil && probe.Instance.Delta != nil {
		if key, err := store.ParseKey(probe.Instance.Delta.Base); err == nil {
			if owner, ok := f.ring.OwnerName(key); ok {
				target = owner
			}
		}
	}
	if target == "" {
		// Malformed delta: any replica produces the canonical 4xx.
		f.digestFails.Add(1)
		target = f.nextRR()
	}
	f.proxy(w, r, body, target)
}

// handleRoundRobin routes requests with no single digest (/v1/batch).
func (f *Front) handleRoundRobin(w http.ResponseWriter, r *http.Request) {
	body, ok := f.admit(w, r)
	if !ok {
		return
	}
	defer f.inFlight.Add(-1)
	f.proxy(w, r, body, f.nextRR())
}

// admit reads the body and applies the front's own admission gate.
// On acceptance inFlight has been incremented; the caller must
// decrement it.
func (f *Front) admit(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	f.requests.Add(1)
	if f.inFlight.Add(1) > int64(f.cfg.MaxInFlight) {
		f.inFlight.Add(-1)
		f.rejected.Add(1)
		w.Header().Set("Content-Type", "application/json")
		// The hint is live capacity, not a constant: one round on the
		// slowest healthy replica is the pessimistic wait for a slot.
		w.Header().Set("Retry-After", strconv.Itoa(f.retryAfterSeconds()))
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintln(w, `{"error":"front: too many requests in flight"}`)
		return nil, false
	}
	body, err := serve.ReadBody(w, r, f.cfg.MaxBodyBytes)
	if err != nil {
		f.inFlight.Add(-1)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "front: reading request: " + err.Error()})
		return nil, false
	}
	return body, true
}

// retryAfterSeconds derives the front's own 429 hint from the slowest
// healthy replica's latency EWMA, clamped to [1, 30] like the
// replicas' own Retry-After.
func (f *Front) retryAfterSeconds() int {
	slowest := 0.0
	for _, m := range f.prober.Healthy() {
		if p := f.peers[m]; p != nil {
			if e := p.ewma(); e > slowest {
				slowest = e
			}
		}
	}
	secs := int(math.Ceil(slowest))
	return min(max(secs, 1), 30)
}

// ownerFor returns the owner of the request's content digest, taken
// from the body memo or else computed and memoized; digest failures
// (malformed requests) fall back to round-robin so the owning replica
// produces the canonical error response.
func (f *Front) ownerFor(kind string, body []byte) string {
	if key, ok := f.digestOf(kind, body); ok {
		if owner, ok := f.ring.OwnerName(key); ok {
			return owner
		}
	}
	f.digestFails.Add(1)
	return f.nextRR()
}

// digestOf returns the body's content digest, from the memo or else
// computed and memoized; false when the body has none.
func (f *Front) digestOf(kind string, body []byte) (store.Key, bool) {
	bk := serve.HashBody(kind, body)
	if key, ok := f.bodies.Get(bk); ok {
		f.memoHits.Add(1)
		return key, true
	}
	var req serve.Request
	if json.Unmarshal(body, &req) != nil {
		return store.Key{}, false
	}
	key, err := serve.ContentDigest(kind, &req, f.cfg.DefaultEngine)
	if err != nil {
		return store.Key{}, false
	}
	f.bodies.Put(bk, key)
	return key, true
}

// nextRR returns the next healthy member round-robin ("" when none).
func (f *Front) nextRR() string {
	healthy := f.prober.Healthy()
	if len(healthy) == 0 {
		return ""
	}
	return healthy[int(f.rr.Add(1)-1)%len(healthy)]
}

// proxy sends body to target and relays the response verbatim. A
// transport error demotes the target and retries on the next choice,
// up to the member count, so one dead replica costs a re-route rather
// than an error.
func (f *Front) proxy(w http.ResponseWriter, r *http.Request, body []byte, target string) {
	attempts := len(f.cfg.Members)
	if attempts < 1 {
		attempts = 1
	}
	for i := 0; i < attempts; i++ {
		if target == "" {
			f.noMembers.Add(1)
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "front: no healthy members"})
			return
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, target+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "front: " + err.Error()})
			return
		}
		req.Header.Set("Content-Type", "application/json")
		start := time.Now()
		resp, err := f.cfg.ProxyClient.Do(req)
		ps := f.peers[target]
		if err != nil {
			if r.Context().Err() != nil {
				// The client went away; nothing to relay and no verdict
				// on the replica's health.
				return
			}
			if ps != nil {
				ps.errors.Add(1)
			}
			f.prober.MarkUnhealthy(target)
			// Re-resolve: the ring no longer contains the dead member,
			// so the digest's new owner (or the next RR choice) differs.
			target = f.nextRR()
			continue
		}
		if ps != nil {
			ps.routed.Add(1)
			ps.observe(time.Since(start).Seconds())
			if resp.StatusCode == http.StatusTemporaryRedirect {
				ps.redirects.Add(1)
			}
		}
		f.relay(w, resp)
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "front: all members unreachable"})
}

// relay copies the replica's response to the client verbatim: status,
// body bytes, Content-Type, Location (drain redirects), Retry-After,
// and every X-Psdpd-* header — a 429's backpressure hints and a 200's
// digest/iteration headers survive the hop unchanged.
func (f *Front) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	h := w.Header()
	for name, vals := range resp.Header {
		if name == "Content-Type" || name == "Retry-After" || name == "Location" ||
			strings.HasPrefix(name, "X-Psdpd-") {
			h[name] = vals
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func (f *Front) registerMetrics() {
	fc := func(name, help string, fn func() int64, labels ...obs.Label) {
		f.reg.CounterFunc(name, help, func() float64 { return float64(fn()) }, labels...)
	}
	fc("psdpfront_requests_total", "Requests received by the front.", f.requests.Load)
	fc("psdpfront_rejected_total", "Requests 429d by the front's own admission gate.", f.rejected.Load)
	fc("psdpfront_no_members_total", "Requests failed for lack of a healthy member.", f.noMembers.Load)
	fc("psdpfront_digest_fallbacks_total", "Requests routed round-robin because no digest could be computed.", f.digestFails.Load)
	fc("psdpfront_body_memo_hits_total", "Solve requests routed by a memoized digest (no decode, build or digest).", f.memoHits.Load)
	f.reg.GaugeFunc("psdpfront_in_flight", "Requests currently proxied.",
		func() float64 { return float64(f.inFlight.Load()) })
	f.reg.GaugeFunc("psdpfront_members_healthy", "Members currently healthy.",
		func() float64 { return float64(len(f.prober.Healthy())) })
	f.reg.GaugeFunc("psdpfront_cluster_converged", "1 while the last probe round found every member healthy, else 0.",
		func() float64 { return boolGauge(f.prober.Converged()) })
	for _, m := range f.cfg.Members {
		p := f.peers[m]
		lbl := obs.L("peer", m)
		fc("psdpfront_routed_total", "Requests routed to each replica.", p.routed.Load, lbl)
		fc("psdpfront_route_errors_total", "Transport errors per replica.", p.errors.Load, lbl)
		fc("psdpfront_peer_redirects_total", "Drain redirects (307) observed per replica.", p.redirects.Load, lbl)
		f.reg.GaugeFunc("psdpfront_peer_ewma_seconds", "EWMA of proxied request latency per replica.",
			p.ewma, lbl)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
