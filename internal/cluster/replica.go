package cluster

import (
	"context"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/store"
)

// Replica bundles the cluster wiring one psdpd replica needs: the ring
// (self-aware), the health prober feeding it, and the peer-backed
// stores to hand serve.Config. cmd/psdpd builds one in -cluster mode.
type Replica struct {
	Self      string
	Ring      *placement.Ring
	Prober    *Prober
	Results   *PeerResultStore
	Revisions *PeerRevisionStore
}

// ReplicaConfig configures NewReplica. Zero values get defaults.
type ReplicaConfig struct {
	// Self is this replica's base URL as it appears in Members.
	Self string
	// Members is the full static member list (including Self).
	Members []string
	// ProbeInterval is the /readyz polling period (default 500ms).
	ProbeInterval time.Duration
	// ProbeClient / FetchClient override the HTTP clients (defaults:
	// 2s- and 5s-timeout clients).
	ProbeClient, FetchClient *http.Client
	// LocalResults / LocalRevisions are the in-process layers the peer
	// stores wrap (required).
	LocalResults   store.ResultStore
	LocalRevisions store.RevisionStore
}

// NewReplica wires a replica's cluster tier. Start must be called to
// begin health probing; until then the full member list is assumed
// healthy.
func NewReplica(cfg ReplicaConfig) *Replica {
	ring := placement.NewRing(cfg.Self, cfg.Members)
	prober := NewProber(cfg.Members, cfg.ProbeInterval, cfg.ProbeClient, ring.Update)
	r := &Replica{Self: cfg.Self, Ring: ring, Prober: prober}
	r.Results = NewPeerResultStore(cfg.LocalResults, ring, cfg.FetchClient, prober.MarkUnhealthy)
	r.Revisions = NewPeerRevisionStore(cfg.LocalRevisions, ring, cfg.FetchClient, prober.MarkUnhealthy)
	return r
}

// Start begins health probing until ctx is cancelled.
func (r *Replica) Start(ctx context.Context) { r.Prober.Start(ctx) }

// ReplicaStats is the /statsz "cluster" section for a replica.
type ReplicaStats struct {
	Self    string         `json:"self"`
	Members []MemberStatus `json:"members"`
	// Converged reports Prober.Converged: the last probe round found
	// every member healthy, so this replica's ring holds all of them.
	Converged bool `json:"converged"`
	// Result/revision peer-fetch telemetry: how often a local miss
	// asked the digest's owner, and how that went, per peer.
	ResultFetches       int64                `json:"resultFetches"`
	ResultFetchHits     int64                `json:"resultFetchHits"`
	ResultFetchMisses   int64                `json:"resultFetchMisses"`
	ResultFetchErrors   int64                `json:"resultFetchErrors"`
	RevisionFetches     int64                `json:"revisionFetches"`
	RevisionFetchHits   int64                `json:"revisionFetchHits"`
	RevisionFetchErrors int64                `json:"revisionFetchErrors"`
	PerPeer             map[string]peerCount `json:"perPeer,omitempty"`
}

// Info snapshots the replica's cluster view (serve.Config.ClusterInfo).
func (r *Replica) Info() any {
	ra, rh, rm, re := r.Results.FetchCounters()
	va, vh, _, ve := r.Revisions.FetchCounters()
	return ReplicaStats{
		Self:                r.Self,
		Members:             r.Prober.Snapshot(),
		Converged:           r.Prober.Converged(),
		ResultFetches:       ra,
		ResultFetchHits:     rh,
		ResultFetchMisses:   rm,
		ResultFetchErrors:   re,
		RevisionFetches:     va,
		RevisionFetchHits:   vh,
		RevisionFetchErrors: ve,
		PerPeer:             r.Results.PerPeer(),
	}
}

// RegisterMetrics exports the replica's cluster series into the serve
// /metrics registry (serve.Config.RegisterMetrics).
func (r *Replica) RegisterMetrics(reg *obs.Registry) {
	fc := func(name, help string, fn func() int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(fn()) })
	}
	fc("psdpd_peer_result_fetches_total", "Local result misses that asked the digest's owner.",
		func() int64 { a, _, _, _ := r.Results.FetchCounters(); return a })
	fc("psdpd_peer_result_fetch_hits_total", "Peer result fetches answered with cached bytes.",
		func() int64 { _, h, _, _ := r.Results.FetchCounters(); return h })
	fc("psdpd_peer_result_fetch_errors_total", "Peer result fetches that failed transport.",
		func() int64 { _, _, _, e := r.Results.FetchCounters(); return e })
	fc("psdpd_peer_revision_fetches_total", "Local revision misses that asked the digest's owner.",
		func() int64 { a, _, _, _ := r.Revisions.FetchCounters(); return a })
	fc("psdpd_peer_revision_fetch_hits_total", "Peer revision fetches answered with a revision.",
		func() int64 { _, h, _, _ := r.Revisions.FetchCounters(); return h })
	reg.GaugeFunc("psdpd_cluster_members_healthy", "Members the prober currently considers healthy.",
		func() float64 { return float64(len(r.Prober.Healthy())) })
	reg.GaugeFunc("psdpd_cluster_members", "Configured cluster members.",
		func() float64 { return float64(len(r.Prober.Snapshot())) })
	reg.GaugeFunc("psdpd_cluster_converged", "1 while the last probe round found every member healthy, else 0.",
		func() float64 { return boolGauge(r.Prober.Converged()) })
}
