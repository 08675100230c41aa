// Package cluster is the multi-node tier of psdpd: digest-sharded
// placement over a health-gated member list, peer-backed result and
// revision stores, and a front router.
//
// The design leans entirely on the serving tier's content-address
// discipline. Every solve request has one deterministic SHA-256 digest
// (serve.ContentDigest), solves are bitwise deterministic, and all
// server state — the result cache, the warm-start revision lineages,
// the warm worker workspaces — is keyed by that digest. So "cluster"
// reduces to one function: digest → owning replica (consistent hashing
// in internal/placement). The front routes each request to its
// digest's owner; a replica that receives a digest it does not own
// asks the owner for the cached bytes before solving locally; and
// because solves are deterministic, every fallback path (owner down,
// fetch raced, membership mid-change) still produces byte-identical
// responses — the cluster can only lose locality, never correctness.
package cluster

import (
	"net/http"
	"time"
)

// MemberStatus is one replica's health as the prober sees it.
type MemberStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// LastProbe is the RFC3339 time of the most recent probe ("" before
	// the first).
	LastProbe string `json:"lastProbe,omitempty"`
	// LastError is the most recent probe failure ("" when healthy).
	LastError string `json:"lastError,omitempty"`
}

// defaultClient builds an HTTP client with a total-request timeout —
// used for probes and peer fetches, which must fail fast rather than
// hang a solve path on a dead peer.
func defaultClient(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout}
}

func nowRFC3339() string { return time.Now().UTC().Format(time.RFC3339) }

// boolGauge renders a flag as a 0/1 gauge value.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
