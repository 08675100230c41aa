package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// The front's own admission 429 derives Retry-After from the slowest
// healthy peer's latency EWMA — live capacity, not a constant — with
// the same [1, 30] clamp the replicas use.
func TestFrontAdmissionRetryAfterFromEWMA(t *testing.T) {
	f := NewFront(FrontConfig{Members: []string{"http://peer-a", "http://peer-b"}, MaxInFlight: 1})

	// Cold front (no proxied request observed yet): floor of 1s, never
	// 0, which clients would read as "retry immediately".
	if got := f.retryAfterSeconds(); got != 1 {
		t.Fatalf("cold Retry-After = %d, want 1", got)
	}

	f.peers["http://peer-a"].observe(2.2)
	f.peers["http://peer-b"].observe(7.2)
	if got := f.retryAfterSeconds(); got != 8 {
		t.Fatalf("Retry-After = %d, want ceil(7.2) = 8 (slowest healthy peer)", got)
	}

	// An unhealthy peer's latency no longer counts: the hint tracks the
	// peers a retry could actually land on.
	f.prober.MarkUnhealthy("http://peer-b")
	if got := f.retryAfterSeconds(); got != 3 {
		t.Fatalf("Retry-After = %d, want ceil(2.2) = 3 after the slow peer left", got)
	}

	// Pathological latency clamps at 30s.
	f.peers["http://peer-a"].ewmaBits.Store(math.Float64bits(99.0))
	if got := f.retryAfterSeconds(); got != 30 {
		t.Fatalf("Retry-After = %d, want clamp 30", got)
	}

	// End to end through the handler: with the single slot taken, the
	// next request is the front's own 429 carrying that live hint.
	f.inFlight.Add(1)
	defer f.inFlight.Add(-1)
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/decision", strings.NewReader("{}"))
	f.ServeHTTP(rr, req)
	if rr.Code != 429 {
		t.Fatalf("status %d, want 429 from the admission gate", rr.Code)
	}
	if got := rr.Header().Get("Retry-After"); got != "30" {
		t.Fatalf("Retry-After %q, want \"30\"", got)
	}
	if !bytes.Contains(rr.Body.Bytes(), []byte("front:")) {
		t.Fatalf("admission 429 body %q should identify the front", rr.Body.String())
	}
}

// The EWMA warms on the first observation and then moves with weight
// 1/8 — slow enough to ride out one outlier, fast enough to track a
// real slowdown.
func TestPeerStateEWMA(t *testing.T) {
	var p peerState
	if got := p.ewma(); got != 0 {
		t.Fatalf("unobserved ewma = %v, want 0", got)
	}
	p.observe(4.0)
	if got := p.ewma(); got != 4.0 {
		t.Fatalf("first observation ewma = %v, want 4.0 (no zero bias)", got)
	}
	p.observe(8.0)
	if got := p.ewma(); got != 4.5 {
		t.Fatalf("ewma after (4, 8) = %v, want 4.5", got)
	}
}

// The owner the front takes from its body memo is the owner of the
// request's content digest: the memo only skips the decode, build and
// digest of a byte-identical repeat. A body the front cannot digest is
// never memoized.
func TestFrontMemoRoutesLikeContentDigest(t *testing.T) {
	f := NewFront(FrontConfig{Members: []string{"http://peer-a", "http://peer-b", "http://peer-c"}})
	var bodies [][]byte
	var owners []string
	for seed := uint64(1); seed <= 8; seed++ {
		req := serve.Request{Instance: denseInstance(t, 4, 6, 40+seed), Eps: 0.25, Seed: seed}
		body, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		key, err := serve.ContentDigest("decision", &req, core.EngineMMW)
		if err != nil {
			t.Fatal(err)
		}
		owner, ok := f.ring.OwnerName(key)
		if !ok {
			t.Fatal("ring has no owner")
		}
		bodies, owners = append(bodies, body), append(owners, owner)
	}
	if !slices.ContainsFunc(owners, func(o string) bool { return o != owners[0] }) {
		t.Fatal("every body has one owner; the test needs several")
	}
	for pass := 0; pass < 2; pass++ {
		for i, body := range bodies {
			if got := f.ownerFor("decision", body); got != owners[i] {
				t.Fatalf("pass %d body %d: routed to %s, digest owner %s", pass, i, got, owners[i])
			}
		}
	}
	if got := f.memoHits.Load(); got != int64(len(bodies)) {
		t.Fatalf("memo hits %d, want %d (every body of the second pass)", got, len(bodies))
	}
	bad := append(bytes.Clone(bodies[0]), " garbage"...)
	f.ownerFor("decision", bad)
	f.ownerFor("decision", bad)
	if f.memoHits.Load() != int64(len(bodies)) || f.digestFails.Load() != 2 {
		t.Fatalf("undigestable body: memo hits %d, digest fallbacks %d; want %d and 2",
			f.memoHits.Load(), f.digestFails.Load(), len(bodies))
	}
}
