package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/instio"
	"repro/internal/serve"
	"repro/internal/store"
)

// handlerSwap lets a listener exist before its handler does: replica
// URLs must be known (they are the member list) before the serve
// servers that depend on that list can be built.
type handlerSwap struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *handlerSwap) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *handlerSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "booting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

type testReplica struct {
	url string
	ts  *httptest.Server
	srv *serve.Server
	rep *Replica
}

type testFleet struct {
	urls     []string
	replicas []*testReplica
}

// bootFleet starts n psdpd replicas in cluster mode over real HTTP
// listeners, exactly as cmd/psdpd -cluster wires them, and returns once
// every replica's prober has converged (its last round found every
// member healthy), so every ring holds every member. mut, if non-nil,
// adjusts each replica's serve.Config before boot.
func bootFleet(t *testing.T, n int, mut func(i int, cfg *serve.Config)) *testFleet {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	fl := &testFleet{}
	swaps := make([]*handlerSwap, n)
	for i := 0; i < n; i++ {
		swaps[i] = &handlerSwap{}
		ts := httptest.NewServer(swaps[i])
		t.Cleanup(ts.Close)
		fl.replicas = append(fl.replicas, &testReplica{url: ts.URL, ts: ts})
		fl.urls = append(fl.urls, ts.URL)
	}
	for i, r := range fl.replicas {
		rep := NewReplica(ReplicaConfig{
			Self:           r.url,
			Members:        fl.urls,
			ProbeInterval:  100 * time.Millisecond,
			LocalResults:   store.NewResultLRU(256),
			LocalRevisions: store.NewRevisionLRU(64),
		})
		cfg := serve.Config{
			Workers:         2,
			Results:         rep.Results,
			Revisions:       rep.Revisions,
			Placement:       rep.Ring,
			SelfURL:         r.url,
			ClusterInfo:     rep.Info,
			RegisterMetrics: rep.RegisterMetrics,
		}
		if mut != nil {
			mut(i, &cfg)
		}
		srv := serve.New(cfg)
		t.Cleanup(srv.Close)
		swaps[i].set(srv)
		rep.Start(ctx)
		r.srv, r.rep = srv, rep
	}
	waitFor(t, func() bool {
		for _, r := range fl.replicas {
			if !r.rep.Prober.Converged() {
				return false
			}
		}
		return true
	})
	return fl
}

// bootFront starts a Front over the fleet on its own listener and
// returns once its prober has converged.
func bootFront(t *testing.T, fl *testFleet, cfg FrontConfig) (*Front, *httptest.Server) {
	t.Helper()
	if cfg.Members == nil {
		cfg.Members = fl.urls
	}
	f := NewFront(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	f.Start(ctx)
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	waitFor(t, f.prober.Converged)
	return f, ts
}

func postJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	resp, body, err := tryPostJSON(url, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func tryPostJSON(url string, req any) (*http.Response, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, nil, err
	}
	return resp, bytes.TrimRight(buf.Bytes(), "\n"), nil
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal(getBody(t, url), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitProbedDown waits until one of p's own probe rounds has found
// member down. Rounds run one at a time, so no round that began before
// the member died can re-promote it afterwards.
func waitProbedDown(t *testing.T, p *Prober, member string) {
	t.Helper()
	waitFor(t, func() bool {
		for _, m := range p.Snapshot() {
			if m.URL == member {
				return !m.Healthy && m.LastError != "" && m.LastError != markedUnhealthy
			}
		}
		return false
	})
}

func denseInstance(t *testing.T, n, m int, seed uint64) *instio.Instance {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+1))
	inst := gen.RandomDense(n, m, max(2, m/4), rng)
	set, err := core.NewDenseSet(inst.A)
	if err != nil {
		t.Fatal(err)
	}
	return instio.FromDenseSet(set)
}

func factoredInstance(t *testing.T, n, m int, seed uint64) *instio.Instance {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+1))
	inst, err := gen.RandomFactored(n, m, 2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	set, err := core.NewFactoredSet(inst.Q)
	if err != nil {
		t.Fatal(err)
	}
	return instio.FromFactoredSet(set)
}

func sparseInstance(t *testing.T, n, m int, seed uint64) *instio.Instance {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed+1))
	g := graph.ErdosRenyi(m, 6.0/float64(m), rng)
	if g.M() < n {
		t.Fatalf("graph too sparse: %d edges < %d groups", g.M(), n)
	}
	inst, err := gen.SparseGroupedLaplacians(g, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	set, err := core.NewSparseSet(inst.A)
	if err != nil {
		t.Fatal(err)
	}
	return instio.FromSparseSet(set)
}

// requestOwnedBy returns a decision request (varying the seed) whose
// content digest is owned by fl.replicas[idx].
func requestOwnedBy(t *testing.T, fl *testFleet, idx int, doc *instio.Instance, base serve.Request) serve.Request {
	t.Helper()
	for seed := uint64(1); seed < 10_000; seed++ {
		req := base
		req.Instance = doc
		req.Seed = seed
		key, err := serve.ContentDigest("decision", &req, core.EngineMMW)
		if err != nil {
			t.Fatal(err)
		}
		if owner, ok := fl.replicas[idx].rep.Ring.OwnerName(key); ok && owner == fl.urls[idx] {
			return req
		}
	}
	t.Fatal("no seed under 10000 lands on the wanted replica")
	return serve.Request{}
}

// The clustering contract: a response served through the front is
// byte-identical to the same request served by a lone single-node
// psdpd — across all three instance representations and both engines,
// with the digest headers agreeing too.
func TestFrontByteIdenticalToSingleNode(t *testing.T) {
	single := serve.New(serve.Config{Workers: 2})
	t.Cleanup(single.Close)
	ss := httptest.NewServer(single)
	t.Cleanup(ss.Close)

	fl := bootFleet(t, 3, nil)
	_, fts := bootFront(t, fl, FrontConfig{})

	dense := denseInstance(t, 8, 10, 11)
	fac := factoredInstance(t, 10, 16, 21)
	sp := sparseInstance(t, 6, 18, 41)
	cases := []struct {
		name, path string
		req        serve.Request
	}{
		{"dense-mmw", "/v1/decision", serve.Request{Instance: dense, Eps: 0.25, Seed: 5, Scale: 0.5, Engine: "mmw"}},
		{"dense-alo", "/v1/decision", serve.Request{Instance: dense, Eps: 0.25, Seed: 5, Scale: 0.5, Engine: "alo"}},
		{"dense-default-engine", "/v1/decision", serve.Request{Instance: dense, Eps: 0.25, Seed: 6, Scale: 0.5}},
		{"factored-mmw", "/v1/decision", serve.Request{Instance: fac, Eps: 0.3, Seed: 7, Scale: 0.1, SketchEps: 0.4, Engine: "mmw"}},
		{"factored-alo", "/v1/decision", serve.Request{Instance: fac, Eps: 0.3, Seed: 7, Scale: 0.1, SketchEps: 0.4, Engine: "alo"}},
		{"sparse-mmw", "/v1/decision", serve.Request{Instance: sp, Eps: 0.3, Seed: 13, Scale: 0.05, Oracle: "exact", MaxIter: 40, Engine: "mmw"}},
		{"sparse-alo", "/v1/decision", serve.Request{Instance: sp, Eps: 0.3, Seed: 13, Scale: 0.05, Oracle: "exact", MaxIter: 40, Engine: "alo"}},
		{"maximize", "/v1/maximize", serve.Request{Instance: dense, Eps: 0.25, Seed: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantResp, wantBody := postJSON(t, ss.URL+tc.path, &tc.req)
			if wantResp.StatusCode != http.StatusOK {
				t.Fatalf("single node: status %d: %s", wantResp.StatusCode, wantBody)
			}
			gotResp, gotBody := postJSON(t, fts.URL+tc.path, &tc.req)
			if gotResp.StatusCode != http.StatusOK {
				t.Fatalf("front: status %d: %s", gotResp.StatusCode, gotBody)
			}
			if !bytes.Equal(gotBody, wantBody) {
				t.Fatalf("front bytes differ from single node:\n%s\nvs\n%s", gotBody, wantBody)
			}
			wantDigest := wantResp.Header.Get("X-Psdpd-Digest")
			if wantDigest == "" {
				t.Fatal("single node returned no digest header")
			}
			if got := gotResp.Header.Get("X-Psdpd-Digest"); got != wantDigest {
				t.Fatalf("digest through front %q, want %q", got, wantDigest)
			}
			if got := gotResp.Header.Get("X-Psdpd-Cache"); got != "miss" {
				t.Fatalf("cache state through front %q, want miss", got)
			}
		})
	}
}

// Routing is digest-stable: each distinct request is solved exactly
// once fleet-wide, and a repeat lands on the same replica as a cache
// hit relayed through the front.
func TestFrontRoutesByDigestStably(t *testing.T) {
	fl := bootFleet(t, 3, nil)
	front, fts := bootFront(t, fl, FrontConfig{})
	doc := denseInstance(t, 6, 8, 41)

	const n = 12
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		req := serve.Request{Instance: doc, Eps: 0.25, Seed: uint64(100 + i)}
		resp, body := postJSON(t, fts.URL+"/v1/decision", &req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Psdpd-Cache"); got != "miss" {
			t.Fatalf("request %d cache state %q, want miss", i, got)
		}
		bodies[i] = body
	}
	var total int64
	solvers := 0
	for _, r := range fl.replicas {
		if s := r.srv.Stats().Solves; s > 0 {
			total += s
			solvers++
		}
	}
	if total != n {
		t.Fatalf("fleet solved %d times for %d distinct requests, want exactly %d", total, n, n)
	}
	if solvers < 2 {
		t.Fatalf("all %d digests landed on one replica; placement is not spreading", n)
	}

	for i := 0; i < n; i++ {
		req := serve.Request{Instance: doc, Eps: 0.25, Seed: uint64(100 + i)}
		resp, body := postJSON(t, fts.URL+"/v1/decision", &req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repeat %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Psdpd-Cache"); got != "hit" {
			t.Fatalf("repeat %d cache state %q, want hit (stable routing)", i, got)
		}
		if !bytes.Equal(body, bodies[i]) {
			t.Fatalf("repeat %d returned different bytes", i)
		}
	}
	total = 0
	for _, r := range fl.replicas {
		total += r.srv.Stats().Solves
	}
	if total != n {
		t.Fatalf("repeats re-solved: %d total solves, want %d", total, n)
	}
	if got := front.requests.Load(); got != 2*n {
		t.Fatalf("front counted %d requests, want %d", got, 2*n)
	}
}

// A request landing off-owner asks the digest's owner before solving:
// the off-owner replica returns the owner's exact bytes without running
// its own solver, then serves later repeats from its own cache.
func TestOffOwnerRequestFetchesFromOwner(t *testing.T) {
	fl := bootFleet(t, 2, nil)
	doc := denseInstance(t, 6, 8, 51)
	req := requestOwnedBy(t, fl, 0, doc, serve.Request{Eps: 0.25})

	resp0, body0 := postJSON(t, fl.urls[0]+"/v1/decision", &req)
	if resp0.StatusCode != http.StatusOK {
		t.Fatalf("owner solve: status %d: %s", resp0.StatusCode, body0)
	}

	resp1, body1 := postJSON(t, fl.urls[1]+"/v1/decision", &req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("off-owner request: status %d: %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Psdpd-Cache"); got != "hit" {
		t.Fatalf("off-owner cache state %q, want hit via peer fetch", got)
	}
	if !bytes.Equal(body1, body0) {
		t.Fatalf("peer-fetched bytes differ from the owner's:\n%s\nvs\n%s", body1, body0)
	}
	if got := fl.replicas[1].srv.Stats().Solves; got != 0 {
		t.Fatalf("off-owner replica solved %d times, want 0 (peer fetch must answer)", got)
	}
	attempts, hits, _, errs := fl.replicas[1].rep.Results.FetchCounters()
	if attempts != 1 || hits != 1 || errs != 0 {
		t.Fatalf("fetch counters (attempts=%d hits=%d errors=%d), want (1, 1, 0)", attempts, hits, errs)
	}

	// The fetched bytes were adopted locally: a repeat is a local hit,
	// no second peer round-trip.
	resp2, body2 := postJSON(t, fl.urls[1]+"/v1/decision", &req)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(body2, body0) {
		t.Fatalf("repeat after adoption: status %d, bytes match %v", resp2.StatusCode, bytes.Equal(body2, body0))
	}
	if a, _, _, _ := fl.replicas[1].rep.Results.FetchCounters(); a != 1 {
		t.Fatalf("repeat re-fetched from the peer (%d attempts), want local hit", a)
	}
}

// A delta landing off-owner fetches the base's revision from the
// owner and warm-starts from it, producing bytes identical to a
// single-node delta of the same lineage.
func TestDeltaOffOwnerFetchesRevisionFromOwner(t *testing.T) {
	single := serve.New(serve.Config{Workers: 2})
	t.Cleanup(single.Close)
	ss := httptest.NewServer(single)
	t.Cleanup(ss.Close)

	fl := bootFleet(t, 2, nil)
	doc := sparseInstance(t, 6, 14, 91)
	base := requestOwnedBy(t, fl, 0, doc, serve.Request{Eps: 0.25, Scale: 0.2})

	resp, baseBody := postJSON(t, fl.urls[0]+"/v1/decision", &base)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base solve: status %d: %s", resp.StatusCode, baseBody)
	}
	d0 := resp.Header.Get("X-Psdpd-Digest")
	if d0 == "" {
		t.Fatal("base solve returned no digest header")
	}

	delta := serve.Request{
		Instance: &instio.Instance{Delta: &instio.Delta{Base: d0, Scale: []instio.DeltaScale{{I: 1, By: 1.03}}}},
		Eps:      base.Eps, Seed: base.Seed, Scale: base.Scale,
	}
	dresp, dbody := postJSON(t, fl.urls[1]+"/v1/delta", &delta)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("off-owner delta: status %d: %s", dresp.StatusCode, dbody)
	}
	if _, hits, _, _ := fl.replicas[1].rep.Revisions.FetchCounters(); hits != 1 {
		t.Fatalf("revision fetch hits = %d, want 1 (warm state must come from the owner)", hits)
	}

	// Same lineage on a single node: base, then the identical delta.
	sresp, sbody := postJSON(t, ss.URL+"/v1/decision", &base)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("single-node base: status %d: %s", sresp.StatusCode, sbody)
	}
	sdresp, sdbody := postJSON(t, ss.URL+"/v1/delta", &delta)
	if sdresp.StatusCode != http.StatusOK {
		t.Fatalf("single-node delta: status %d: %s", sdresp.StatusCode, sdbody)
	}
	if !bytes.Equal(dbody, sdbody) {
		t.Fatalf("off-owner delta bytes differ from single node:\n%s\nvs\n%s", dbody, sdbody)
	}
}

// The front routes a delta to the BASE digest's owner: that is where
// the revision lineage lives.
func TestFrontRoutesDeltaToBaseOwner(t *testing.T) {
	fl := bootFleet(t, 3, nil)
	_, fts := bootFront(t, fl, FrontConfig{})
	doc := sparseInstance(t, 6, 14, 93)
	base := serve.Request{Instance: doc, Eps: 0.25, Seed: 5, Scale: 0.2}

	resp, body := postJSON(t, fts.URL+"/v1/decision", &base)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base: status %d: %s", resp.StatusCode, body)
	}
	d0 := resp.Header.Get("X-Psdpd-Digest")
	owner := -1
	for i, r := range fl.replicas {
		if r.srv.Stats().Solves == 1 {
			owner = i
		}
	}
	if owner < 0 {
		t.Fatal("no replica solved the base")
	}

	delta := serve.Request{
		Instance: &instio.Instance{Delta: &instio.Delta{Base: d0, Scale: []instio.DeltaScale{{I: 1, By: 1.03}}}},
		Eps:      0.25, Seed: 5, Scale: 0.2,
	}
	dresp, dbody := postJSON(t, fts.URL+"/v1/delta", &delta)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d: %s", dresp.StatusCode, dbody)
	}
	for i, r := range fl.replicas {
		want := int64(0)
		if i == owner {
			want = 1
		}
		if got := r.srv.Stats().DeltaRequests; got != want {
			t.Fatalf("replica %d saw %d delta requests, want %d (delta must follow its base)", i, got, want)
		}
	}
}

// Killing a replica costs a re-route, not an error: the same request
// answers 200 with byte-identical content from a survivor, both during
// the transport-error window and after the prober drops the member.
func TestFrontReroutesAfterReplicaDeath(t *testing.T) {
	fl := bootFleet(t, 3, nil)
	front, fts := bootFront(t, fl, FrontConfig{ProbeInterval: 50 * time.Millisecond})
	doc := denseInstance(t, 6, 8, 61)
	req := serve.Request{Instance: doc, Eps: 0.25, Seed: 9}

	resp, body := postJSON(t, fts.URL+"/v1/decision", &req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	victim := -1
	for i, r := range fl.replicas {
		if r.srv.Stats().Solves == 1 {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatal("no replica solved the request")
	}
	fl.replicas[victim].ts.Close()

	// Immediately after the kill the front still believes the victim is
	// healthy; the transport error must demote it and retry in-request.
	resp2, body2 := postJSON(t, fts.URL+"/v1/decision", &req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-kill request: status %d: %s (must re-route, not error)", resp2.StatusCode, body2)
	}
	if !bytes.Equal(body2, body) {
		t.Fatal("re-routed response differs from the original bytes")
	}
	if got := front.peers[fl.urls[victim]].errors.Load(); got < 1 {
		t.Fatalf("victim's route-error count = %d, want >= 1", got)
	}

	// The demotion woke the front's prober. Once one of its own rounds
	// confirms the death, the fleet is not converged (a member is down),
	// the ring re-owns the digest, and requests flow without the failed
	// first hop.
	dead := fl.urls[victim]
	waitProbedDown(t, front.prober, dead)
	if front.prober.Converged() {
		t.Fatal("front reports converged with a member down")
	}
	errsBefore := front.peers[dead].errors.Load()
	resp3, body3 := postJSON(t, fts.URL+"/v1/decision", &req)
	if resp3.StatusCode != http.StatusOK || !bytes.Equal(body3, body) {
		t.Fatalf("post-reconverge request: status %d, bytes match %v", resp3.StatusCode, bytes.Equal(body3, body))
	}
	if got := front.peers[dead].errors.Load(); got != errsBefore {
		t.Fatalf("post-reconverge request tried the dead replica first (route errors %d -> %d)", errsBefore, got)
	}
}

// The converged signal is visible where operators and scripts read it:
// the replica and front /statsz cluster views and the
// psdpd_cluster_converged / psdpfront_cluster_converged gauges. It is
// up once the fleet has booted and drops when a round finds a member
// dead.
func TestConvergedOnStatszAndMetrics(t *testing.T) {
	fl := bootFleet(t, 2, nil)
	front, fts := bootFront(t, fl, FrontConfig{ProbeInterval: 50 * time.Millisecond})
	rep := fl.replicas[0]

	check := func(want bool) {
		t.Helper()
		var rs struct {
			Cluster ReplicaStats `json:"cluster"`
		}
		var fs FrontStats
		getJSON(t, rep.url+"/statsz", &rs)
		getJSON(t, fts.URL+"/statsz", &fs)
		if rs.Cluster.Converged != want || fs.Converged != want {
			t.Fatalf("statsz converged: replica %v, front %v; want %v", rs.Cluster.Converged, fs.Converged, want)
		}
		gauge := "0"
		if want {
			gauge = "1"
		}
		for url, name := range map[string]string{
			rep.url + "/metrics": "psdpd_cluster_converged",
			fts.URL + "/metrics": "psdpfront_cluster_converged",
		} {
			if line := name + " " + gauge + "\n"; !bytes.Contains(getBody(t, url), []byte(line)) {
				t.Fatalf("%s: no %q line", url, line)
			}
		}
	}
	check(true)

	fl.replicas[1].ts.Close()
	waitProbedDown(t, rep.rep.Prober, fl.urls[1])
	waitProbedDown(t, front.prober, fl.urls[1])
	check(false)
}

// Drain loses nothing: requests admitted before SIGTERM finish 200,
// later arrivals are 307-redirected to a peer (which a standard client
// follows, re-POSTing the body), and /readyz flips to 503 so the fleet
// drops the member.
func TestDrainRedirectsAndLosesNothing(t *testing.T) {
	fl := bootFleet(t, 2, func(i int, cfg *serve.Config) {
		cfg.SolveFloor = 300 * time.Millisecond
	})
	a, b := fl.replicas[0], fl.replicas[1]
	doc := denseInstance(t, 6, 8, 71)

	type res struct {
		status int
		err    error
	}
	inflight := make(chan res, 3)
	for i := 0; i < 3; i++ {
		go func(seed uint64) {
			req := serve.Request{Instance: doc, Eps: 0.25, Seed: seed}
			resp, _, err := tryPostJSON(a.url+"/v1/decision", &req)
			if err != nil {
				inflight <- res{err: err}
				return
			}
			inflight <- res{status: resp.StatusCode}
		}(uint64(100 + i))
	}
	waitFor(t, func() bool { return a.srv.Stats().InFlight == 3 })

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- a.srv.Drain(ctx)
	}()
	waitFor(t, a.srv.Draining)

	// A late request sees the 307 pointing at the peer...
	late := serve.Request{Instance: doc, Eps: 0.25, Seed: 999}
	lateBody, _ := json.Marshal(&late)
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := noRedirect.Post(a.url+"/v1/decision", "application/json", bytes.NewReader(lateBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("late request: status %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != b.url+"/v1/decision" {
		t.Fatalf("redirect Location %q, want %q", loc, b.url+"/v1/decision")
	}

	// ...and a standard client follows it end to end: the peer solves.
	resp2, body2 := postJSON(t, a.url+"/v1/decision", &late)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("followed redirect: status %d: %s", resp2.StatusCode, body2)
	}
	if got := b.srv.Stats().Solves; got < 1 {
		t.Fatalf("peer solves = %d, want >= 1 (redirected work must land there)", got)
	}

	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 0; i < 3; i++ {
		r := <-inflight
		if r.err != nil {
			t.Fatalf("in-flight request failed during drain: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("in-flight request finished %d during drain, want 200 (zero loss)", r.status)
		}
	}

	rz, err := http.Get(a.url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz status %d, want 503", rz.StatusCode)
	}
	st := a.srv.Stats()
	if !st.Draining || st.DrainRedirects < 2 {
		t.Fatalf("stats draining=%v redirects=%d, want true and >= 2", st.Draining, st.DrainRedirects)
	}
}

// A replica's 429 crosses the front verbatim: same status, the
// replica's own Retry-After, and the replica's error body — the client
// cannot tell the front from the replica.
func TestFrontPropagatesReplica429(t *testing.T) {
	fl := bootFleet(t, 1, func(i int, cfg *serve.Config) {
		cfg.Workers = 1
		cfg.Shards = 1
		cfg.QueueDepth = 1
		cfg.SolveFloor = 500 * time.Millisecond
	})
	_, fts := bootFront(t, fl, FrontConfig{})
	doc := denseInstance(t, 6, 8, 81)

	// One request on the worker, one in the depth-1 queue.
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func(seed uint64) {
			req := serve.Request{Instance: doc, Eps: 0.25, Seed: seed}
			tryPostJSON(fts.URL+"/v1/decision", &req)
			done <- struct{}{}
		}(uint64(10 + i))
	}
	waitFor(t, func() bool {
		st := fl.replicas[0].srv.Stats()
		return st.InFlight >= 2 && st.QueueDepth >= 1
	})

	req := serve.Request{Instance: doc, Eps: 0.25, Seed: 99}
	resp, body := postJSON(t, fts.URL+"/v1/decision", &req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want the replica's 429 relayed", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q did not survive the front", resp.Header.Get("Retry-After"))
	}
	if bytes.Contains(body, []byte("front:")) {
		t.Fatalf("429 body is the front's own, want the replica's relayed verbatim: %s", body)
	}
	<-done
	<-done
}
