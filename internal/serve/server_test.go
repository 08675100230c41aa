package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/instio"
	"repro/internal/work"
)

// newTestServer boots a Server plus an httptest listener and tears both
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, req any) (*http.Response, []byte) {
	t.Helper()
	resp, body, err := tryPostJSON(url, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// tryPostJSON is the non-fatal form, safe to call off the test
// goroutine. A []byte request is posted as it is.
func tryPostJSON(url string, req any) (*http.Response, []byte, error) {
	body, ok := req.([]byte)
	if !ok {
		var err error
		if body, err = json.Marshal(req); err != nil {
			return nil, nil, err
		}
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

// sparseInstance builds a grouped-Laplacian general-sparse instance
// document (n constraints over an m-vertex random graph).
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

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameVecBits(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			t.Fatalf("%s[%d]: %v vs %v (bitwise mismatch)", name, i, a[i], b[i])
		}
	}
}

// The service contract: a response served through psdpd is bitwise
// identical — exact float64 bit patterns, as in the golden corpus — to
// the direct library call, at any GOMAXPROCS. This is what makes the
// content-addressed cache sound.
func TestDecisionMatchesLibraryBitwise(t *testing.T) {
	doc := denseInstance(t, 8, 10, 11)
	fdoc := factoredInstance(t, 10, 16, 21)
	cases := []struct {
		name string
		req  Request
	}{
		{"dense", Request{Instance: doc, Eps: 0.25, Seed: 5, Scale: 0.5}},
		{"dense-bucketed", Request{Instance: doc, Eps: 0.25, Seed: 9, Scale: 0.4, Bucketed: true}},
		{"factored-jl", Request{Instance: fdoc, Eps: 0.3, Seed: 7, Scale: 0.1, SketchEps: 0.4}},
		{"factored-exact", Request{Instance: fdoc, Eps: 0.3, Seed: 7, Scale: 0.1, Oracle: "exact", MaxIter: 60}},
		{"sparse-jl", Request{Instance: sparseInstance(t, 6, 18, 41), Eps: 0.3, Seed: 13, Scale: 0.05, SketchEps: 0.4, MaxIter: 40}},
		{"sparse-exact", Request{Instance: sparseInstance(t, 6, 18, 41), Eps: 0.3, Seed: 13, Scale: 0.05, Oracle: "exact", MaxIter: 40}},
	}
	for _, procs := range []int{1, 8} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s-procs%d", tc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

				set, err := instio.Build(tc.req.Instance)
				if err != nil {
					t.Fatal(err)
				}
				opts, err := tc.req.coreOptions()
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.DecisionPSDP(set.WithScale(tc.req.scaleOrOne()), tc.req.Eps, opts)
				if err != nil {
					t.Fatal(err)
				}

				_, ts := newTestServer(t, Config{Workers: 2})
				resp, body := postJSON(t, ts.URL+"/v1/decision", &tc.req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d: %s", resp.StatusCode, body)
				}
				var got DecisionResponse
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatal(err)
				}
				if got.Outcome != want.Outcome.String() || got.Iterations != want.Iterations {
					t.Fatalf("outcome drift: %s/%d vs %s/%d", got.Outcome, got.Iterations, want.Outcome, want.Iterations)
				}
				if !sameBits(float64(got.Lower), want.Lower) || !sameBits(float64(got.Upper), want.Upper) {
					t.Fatalf("bounds drift: [%v, %v] vs [%v, %v]", got.Lower, got.Upper, want.Lower, want.Upper)
				}
				if !sameBits(float64(got.LambdaMaxPsi), want.LambdaMaxPsi) || !sameBits(float64(got.MaxPsiNorm), want.MaxPsiNorm) {
					t.Fatal("λ_max drift")
				}
				sameVecBits(t, "x", got.X, want.DualX)
			})
		}
	}
}

func TestMaximizeMatchesLibraryBitwise(t *testing.T) {
	doc := denseInstance(t, 6, 8, 31)
	req := Request{Instance: doc, Eps: 0.2, Seed: 3}
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

			set, err := instio.Build(doc)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.MaximizePacking(set, req.Eps, core.Options{Seed: req.Seed})
			if err != nil {
				t.Fatal(err)
			}

			_, ts := newTestServer(t, Config{Workers: 2})
			resp, body := postJSON(t, ts.URL+"/v1/maximize", &req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var got MaximizeResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if got.DecisionCalls != want.DecisionCalls || got.TotalIterations != want.TotalIterations {
				t.Fatalf("call-count drift: %d/%d vs %d/%d",
					got.DecisionCalls, got.TotalIterations, want.DecisionCalls, want.TotalIterations)
			}
			if !sameBits(float64(got.Lower), want.Lower) || !sameBits(float64(got.Upper), want.Upper) ||
				!sameBits(float64(got.Value), want.Value) {
				t.Fatal("bracket drift")
			}
			sameVecBits(t, "x", got.X, want.X)
		})
	}
}

func TestSolveMatchesLibraryBitwise(t *testing.T) {
	prog := &ProgramDoc{
		C: [][]float64{{2, 0, 0}, {0, 1, 0}, {0, 0, 3}},
		A: [][][]float64{
			{{1, 0, 0}, {0, 0.5, 0}, {0, 0, 0}},
			{{0, 0, 0}, {0, 1, 0}, {0, 0, 1}},
		},
		B: []float64{1, 0.5},
	}
	req := Request{Program: prog, Eps: 0.2, Seed: 2}

	cp, err := prog.build()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.SolveCovering(cp, req.Eps, core.Options{Seed: req.Seed})
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/solve", &req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got SolveResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !sameBits(float64(got.Lower), want.Lower) || !sameBits(float64(got.Upper), want.Upper) {
		t.Fatal("bracket drift")
	}
	sameVecBits(t, "dualX", got.DualX, want.DualX)
}

// Cache hits must bypass the solver entirely: the second identical
// request returns the exact bytes of the first without a solve.
func TestCacheHitBypassesSolver(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	req := Request{Instance: denseInstance(t, 6, 8, 41), Eps: 0.25, Seed: 5, Scale: 0.5}

	resp1, body1 := postJSON(t, ts.URL+"/v1/decision", &req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	if state := resp1.Header.Get("X-Psdpd-Cache"); state != "miss" {
		t.Fatalf("first request cache state %q, want miss", state)
	}
	if got := s.Stats().Solves; got != 1 {
		t.Fatalf("solves after first request: %d, want 1", got)
	}

	resp2, body2 := postJSON(t, ts.URL+"/v1/decision", &req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if state := resp2.Header.Get("X-Psdpd-Cache"); state != "hit" {
		t.Fatalf("second request cache state %q, want hit", state)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cache hit returned different bytes than the original solve")
	}
	if got := s.Stats().Solves; got != 1 {
		t.Fatalf("solves after cached request: %d, want 1 (cache must bypass the solver)", got)
	}

	// A different seed is a different content address: solver runs again.
	req.Seed = 6
	resp3, _ := postJSON(t, ts.URL+"/v1/decision", &req)
	if state := resp3.Header.Get("X-Psdpd-Cache"); state != "miss" {
		t.Fatalf("new-seed request cache state %q, want miss", state)
	}
	if got := s.Stats().Solves; got != 2 {
		t.Fatalf("solves after new seed: %d, want 2", got)
	}
}

// Identical in-flight requests share one solve (singleflight): N
// concurrent copies of a request produce exactly one solver run and N
// identical bodies.
func TestSingleflightDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	s.testHookBeforeSolve = func() { <-gate }

	req := Request{Instance: denseInstance(t, 6, 8, 51), Eps: 0.25, Seed: 8}
	const followers = 7

	type result struct {
		status int
		body   []byte
		err    error
	}
	results := make(chan result, followers+1)
	var wg sync.WaitGroup
	for i := 0; i < followers+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body, err := tryPostJSON(ts.URL+"/v1/decision", &req)
			if err != nil {
				results <- result{err: err}
				return
			}
			results <- result{status: resp.StatusCode, body: body}
		}()
	}
	// Wait until every follower has joined the leader's flight, then
	// release the solve.
	waitFor(t, func() bool { return s.Stats().DedupShared >= followers })
	close(gate)
	wg.Wait()
	close(results)

	var first []byte
	for r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("status %d: %s", r.status, r.body)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Fatal("deduplicated responses differ")
		}
	}
	if got := s.Stats().Solves; got != 1 {
		t.Fatalf("solves: %d, want 1 (identical in-flight requests must share)", got)
	}
}

// A full admission queue answers 429 with Retry-After immediately —
// backpressure, not an error or a hang.
func TestQueueOverflowReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Shards: 1, QueueDepth: 1})
	var started atomic.Int32
	gate := make(chan struct{})
	s.testHookBeforeSolve = func() {
		started.Add(1)
		<-gate
	}

	doc := denseInstance(t, 6, 8, 61)
	mkReq := func(seed uint64) Request {
		// Distinct seeds keep the digests distinct, so no singleflight
		// sharing hides the queue.
		return Request{Instance: doc, Eps: 0.25, Seed: seed}
	}

	type result struct {
		status int
		body   []byte
		err    error
	}
	ch := make(chan result, 2)
	send := func(seed uint64) {
		req := mkReq(seed)
		resp, body, err := tryPostJSON(ts.URL+"/v1/decision", &req)
		if err != nil {
			ch <- result{err: err}
			return
		}
		ch <- result{status: resp.StatusCode, body: body}
	}

	// Request 1 occupies the single worker (blocked in the hook)...
	go send(1)
	waitFor(t, func() bool { return started.Load() == 1 })
	// ...request 2 fills the depth-1 queue...
	go send(2)
	waitFor(t, func() bool { return s.pool.QueueDepth() == 1 })

	// ...and request 3 must bounce with 429 + Retry-After.
	req3 := mkReq(3)
	resp, body := postJSON(t, ts.URL+"/v1/decision", &req3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Fatalf("rejected counter %d, want 1", got)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("queued request finished with %d: %s", r.status, r.body)
		}
	}
}

// Deadline cancellation mid-solve must answer 504 and hand every drawn
// buffer back to the worker's pinned workspace: after a cancellation
// storm, a fresh solve of the same shape misses the pools zero times.
func TestCancellationFreesWorkspace(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Shards: 1, QueueDepth: 64})
	// TheoryExact with no iteration cap runs R = O(ε⁻³ log² n)
	// iterations — minutes if never cancelled, so a 15ms deadline is
	// guaranteed to cut every storm request mid-run.
	doc := denseInstance(t, 24, 16, 71)

	// Warm: one complete solve of the shape.
	warmReq := Request{Instance: doc, Eps: 0.25, Seed: 1, Scale: 0.5, TheoryExact: true, MaxIter: 40}
	resp, body := postJSON(t, ts.URL+"/v1/decision", &warmReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm solve: status %d: %s", resp.StatusCode, body)
	}
	warmMisses := s.pool.Misses()
	if warmMisses == 0 {
		t.Fatal("warm solve should populate the workspace")
	}
	jobs := s.pool.Executed() + s.pool.Skipped()

	// Storm: repeated solves of the same shape cut down by a tiny
	// deadline. Each must abort at an iteration checkpoint and release
	// its oracle buffers. Distinct seeds defeat cache and dedup.
	const stormSize = 15
	timeouts := 0
	for seed := uint64(100); seed < 100+stormSize; seed++ {
		req := Request{Instance: doc, Eps: 0.25, Seed: seed, Scale: 0.5, TheoryExact: true, TimeoutMs: 15}
		resp, body := postJSON(t, ts.URL+"/v1/decision", &req)
		switch resp.StatusCode {
		case http.StatusGatewayTimeout:
			timeouts++
		case http.StatusOK:
			// A machine fast enough to finish inside the deadline still
			// exercises the release path; the storm only needs most
			// requests to die mid-run.
		default:
			t.Fatalf("storm request: status %d: %s", resp.StatusCode, body)
		}
	}
	if timeouts == 0 {
		t.Fatal("no storm request hit its deadline; shrink TimeoutMs")
	}
	// The 504 returns at the deadline, possibly before the worker hits
	// its next checkpoint; wait for the pool to drain before counting.
	waitFor(t, func() bool { return s.pool.Executed()+s.pool.Skipped() == jobs+stormSize })
	if got := s.pool.Misses(); got != warmMisses {
		t.Fatalf("workspace missed %d more times across the cancellation storm, want 0 (buffers must be released)", got-warmMisses)
	}
	if got := s.Stats().Cancelled; got != int64(timeouts) {
		t.Fatalf("cancelled counter %d, want %d", got, timeouts)
	}

	// And a fresh full solve still runs entirely from the warm pools.
	warmReq.Seed = 2
	resp, body = postJSON(t, ts.URL+"/v1/decision", &warmReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-storm solve: status %d: %s", resp.StatusCode, body)
	}
	if got := s.pool.Misses(); got != warmMisses {
		t.Fatalf("post-storm solve missed %d times, want 0", got-warmMisses)
	}
}

// Followers must not inherit a leader-specific failure: when a flight
// fails because of the leader's own tight deadline, a follower with a
// roomier deadline retries and solves under its own terms.
func TestFollowerRetriesAfterLeaderFailure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var calls atomic.Int32
	gate := make(chan struct{})
	s.testHookBeforeSolve = func() {
		// Only the leader's solve is held hostage; the follower's retry
		// must run free.
		if calls.Add(1) == 1 {
			<-gate
		}
	}

	doc := denseInstance(t, 6, 8, 97)
	// Identical digests: TimeoutMs is deliberately excluded from the
	// content address.
	leaderReq := Request{Instance: doc, Eps: 0.25, Seed: 77, MaxIter: 40, TimeoutMs: 400}
	followerReq := Request{Instance: doc, Eps: 0.25, Seed: 77, MaxIter: 40}

	type result struct {
		status int
		state  string
		body   []byte
		err    error
	}
	respA := make(chan result, 1)
	respB := make(chan result, 1)
	post := func(req Request, ch chan result) {
		resp, body, err := tryPostJSON(ts.URL+"/v1/decision", &req)
		if err != nil {
			ch <- result{err: err}
			return
		}
		ch <- result{status: resp.StatusCode, state: resp.Header.Get("X-Psdpd-Cache"), body: body}
	}
	go post(leaderReq, respA)
	waitFor(t, func() bool { return calls.Load() == 1 }) // leader's solve blocked in the hook
	go post(followerReq, respB)
	waitFor(t, func() bool { return s.Stats().DedupShared >= 1 }) // follower joined the flight

	ra := <-respA
	if ra.err != nil {
		t.Fatal(ra.err)
	}
	if ra.status != http.StatusGatewayTimeout {
		t.Fatalf("leader status %d (%s), want 504", ra.status, ra.body)
	}
	close(gate) // free the worker so the follower's own solve can run

	rb := <-respB
	if rb.err != nil {
		t.Fatal(rb.err)
	}
	if rb.status != http.StatusOK {
		t.Fatalf("follower status %d (%s), want 200 via retry", rb.status, rb.body)
	}
	if rb.state != "miss" {
		t.Fatalf("follower cache state %q, want miss (led its own solve)", rb.state)
	}
}

// Requests cancelled while still queued must be skipped without
// touching any workspace.
func TestQueuedCancellationSkips(t *testing.T) {
	p := NewPool(1, 1, 4)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Do(ctx, 0, func(context.Context, *work.Workspace) (any, error) {
		return nil, fmt.Errorf("fn ran with a dead context")
	}); err == nil {
		t.Fatal("expected context error")
	}
	waitFor(t, func() bool { return p.Skipped() == 1 })
	if p.Executed() != 0 {
		t.Fatal("cancelled job executed")
	}
}

func TestBatchEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	doc := denseInstance(t, 6, 8, 81)
	batch := BatchRequest{Requests: []Request{
		{Kind: "decision", Instance: doc, Eps: 0.25, Seed: 1},
		{Kind: "maximize", Instance: doc, Eps: 0.25, Seed: 1},
		{Kind: "decision", Instance: doc, Eps: 0.25, Seed: 1}, // duplicate of item 0
		{Kind: "decision", Eps: 0.25, Seed: 1},                // missing instance: per-item 400
	}}
	resp, body := postJSON(t, ts.URL+"/v1/batch", &batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != 4 {
		t.Fatalf("%d responses, want 4", len(out.Responses))
	}
	if out.Responses[0].Status != http.StatusOK || out.Responses[1].Status != http.StatusOK ||
		out.Responses[2].Status != http.StatusOK {
		t.Fatalf("solve items failed: %+v", out.Responses[:3])
	}
	if !bytes.Equal(out.Responses[0].Response, out.Responses[2].Response) {
		t.Fatal("identical batch items returned different bytes")
	}
	if out.Responses[3].Status != http.StatusBadRequest || out.Responses[3].Error == "" {
		t.Fatalf("invalid item not rejected: %+v", out.Responses[3])
	}
	// Items 0 and 2 share a digest; cache or singleflight folds them
	// into one solve in almost every interleaving (a narrow window —
	// leader deleted its flight, follower missed the cache just before
	// the fill — can legitimately run it twice; determinism makes the
	// bytes identical either way).
	if got := s.Stats().Solves; got < 2 || got > 3 {
		t.Fatalf("solves: %d, want 2 (or 3 in the narrow re-lead window)", got)
	}
}

func TestValidationErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	doc := denseInstance(t, 4, 6, 91)
	prog := &ProgramDoc{C: [][]float64{{2, 0}, {0, 1}}, A: [][][]float64{{{1, 0}, {0, 0.5}}}, B: []float64{1}}
	cases := []struct {
		name, path string
		req        any
		want       int
	}{
		{"bad-eps", "/v1/decision", &Request{Instance: doc, Eps: 1.5}, http.StatusBadRequest},
		{"no-instance", "/v1/decision", &Request{Eps: 0.2}, http.StatusBadRequest},
		{"bad-oracle", "/v1/decision", &Request{Instance: doc, Eps: 0.2, Oracle: "quantum"}, http.StatusBadRequest},
		{"oracle-mismatch", "/v1/decision", &Request{Instance: doc, Eps: 0.2, Oracle: "jl"}, http.StatusBadRequest},
		{"bad-scale", "/v1/decision", &Request{Instance: doc, Eps: 0.2, Scale: -1}, http.StatusBadRequest},
		{"unknown-field", "/v1/decision", map[string]any{"instance": doc, "eps": 0.2, "bogus": 1}, http.StatusBadRequest},
		{"program-on-decision", "/v1/decision", &Request{Instance: doc, Program: &ProgramDoc{C: [][]float64{{1}}}, Eps: 0.2}, http.StatusBadRequest},
		// /v1/solve ignores scale, so accepting it would cache one answer
		// under several digests.
		{"solve-scale", "/v1/solve", &Request{Program: prog, Eps: 0.2, Scale: 0.5}, http.StatusBadRequest},
		{"solve-negative-scale", "/v1/solve", &Request{Program: prog, Eps: 0.2, Scale: -1}, http.StatusBadRequest},
		// A program normalizes to a dense set, so the factored oracles
		// are a client error, caught before admission.
		{"solve-oracle-jl", "/v1/solve", &Request{Program: prog, Eps: 0.2, Oracle: "jl"}, http.StatusBadRequest},
		{"solve-oracle-exact", "/v1/solve", &Request{Program: prog, Eps: 0.2, Oracle: "exact"}, http.StatusBadRequest},
		// A valid request followed by anything but whitespace is not
		// that request, on every solve route.
		{"trailing-decision", "/v1/decision", trailing(&Request{Instance: doc, Eps: 0.2}, " garbage"), http.StatusBadRequest},
		{"trailing-maximize", "/v1/maximize", trailing(&Request{Instance: doc, Eps: 0.2}, " garbage"), http.StatusBadRequest},
		{"trailing-solve", "/v1/solve", trailing(&Request{Program: prog, Eps: 0.2}, " garbage"), http.StatusBadRequest},
		{"trailing-mixed", "/v1/mixed", trailing(&Request{Instance: mixedFromPack(t, doc), Eps: 0.2}, " garbage"), http.StatusBadRequest},
		{"trailing-delta", "/v1/delta", trailing(&Request{Instance: &instio.Instance{Delta: &instio.Delta{Base: strings.Repeat("ab", 32)}}, Eps: 0.2}, " garbage"), http.StatusBadRequest},
		{"trailing-batch", "/v1/batch", trailing(&BatchRequest{Requests: []Request{{Instance: doc, Eps: 0.2}}}, " garbage"), http.StatusBadRequest},
		{"trailing-value", "/v1/decision", trailing(&Request{Instance: doc, Eps: 0.2}, " {}"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, tc.req)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, body, tc.want)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
				t.Fatalf("error body missing: %s", body)
			}
		})
	}
	if st := s.Stats(); st.Admitted != 0 || st.Errors != 0 {
		t.Fatalf("rejections moved admitted=%d errors=%d, want 0/0", st.Admitted, st.Errors)
	}
	if n := len(s.SlowSnapshot()); n != 0 {
		t.Fatalf("rejections left %d /debugz/slow records, want 0", n)
	}
}

// trailing marshals v and appends extra after the JSON value.
func trailing(v any, extra string) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return append(b, extra...)
}

func TestHealthzAndStatsz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
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

// Per-shard workspace pools must stay warm across repeated sparse
// requests of the same SHAPE: with one worker on one shard, the first
// solve grows the pinned workspace and every later same-shape request
// (different values, so the cache never answers) draws every buffer
// from warm pools — the per-shard miss counter in /statsz stays flat.
// The per-representation counters must account every prepared request.
func TestStatszSparseShardMissesFlat(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Shards: 1})

	solveOne := func(seed uint64) {
		doc := sparseInstance(t, 5, 16, seed)
		req := Request{Instance: doc, Eps: 0.3, Seed: 1, Scale: 0.05, MaxIter: 8, SketchEps: 0.5}
		resp, body := postJSON(t, ts.URL+"/v1/decision", &req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if h := resp.Header.Get("X-Psdpd-Cache"); h != "miss" {
			t.Fatalf("cache disposition %q, want miss (distinct instances must not collide)", h)
		}
	}

	solveOne(101) // warm-up: pools grow here
	st := s.Stats()
	if len(st.ShardPoolMisses) != 1 {
		t.Fatalf("ShardPoolMisses has %d entries, want 1", len(st.ShardPoolMisses))
	}
	warm := st.ShardPoolMisses[0]
	if warm == 0 {
		t.Fatal("first sparse solve should populate the worker's workspace")
	}

	const repeats = 4
	for i := uint64(0); i < repeats; i++ {
		solveOne(201 + i) // same shape (5 groups over the same graph family), fresh values
	}
	st = s.Stats()
	if got := st.ShardPoolMisses[0]; got != warm {
		t.Errorf("shard 0 missed %d more times across %d same-shape sparse requests, want 0", got-warm, repeats)
	}
	if st.PoolMisses != warm {
		t.Errorf("total pool misses %d, want %d", st.PoolMisses, warm)
	}
	if st.RequestsSparse != repeats+1 {
		t.Errorf("RequestsSparse = %d, want %d", st.RequestsSparse, repeats+1)
	}
	if st.RequestsDense != 0 || st.RequestsFactored != 0 || st.RequestsProgram != 0 {
		t.Errorf("unexpected non-sparse representation counts: dense=%d factored=%d program=%d",
			st.RequestsDense, st.RequestsFactored, st.RequestsProgram)
	}
}

// The dense oracle must reject a sparse instance at the door (400, no
// queue slot), and the operator oracles must accept it.
func TestSparseOracleValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	doc := sparseInstance(t, 4, 12, 61)
	resp, body := postJSON(t, ts.URL+"/v1/decision",
		&Request{Instance: doc, Eps: 0.3, Seed: 1, Oracle: "dense"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dense oracle on sparse instance: status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/decision",
		&Request{Instance: doc, Eps: 0.3, Seed: 1, Oracle: "exact", Scale: 0.1, MaxIter: 8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact oracle on sparse instance: status %d: %s", resp.StatusCode, body)
	}
}

// Sparse digests canonicalize triplet order: the same constraint
// listed in different entry orders (with duplicate splits) is ONE cache
// entry — the second request is a hit returning the first's bytes.
func TestSparseDigestTripletOrderIrrelevant(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	a := Request{Eps: 0.3, Seed: 2, MaxIter: 6, Instance: &instio.Instance{M: 2, Sparse: []instio.SparseMatrix{
		{Entries: [][3]float64{{0, 0, 1}, {0, 1, 0.5}, {1, 0, 0.5}, {1, 1, 2}}},
	}}}
	b := Request{Eps: 0.3, Seed: 2, MaxIter: 6, Instance: &instio.Instance{M: 2, Sparse: []instio.SparseMatrix{
		{Entries: [][3]float64{{1, 1, 2}, {1, 0, 0.25}, {0, 1, 0.5}, {0, 0, 1}, {1, 0, 0.25}}},
	}}}
	resp1, body1 := postJSON(t, ts.URL+"/v1/decision", &a)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/decision", &b)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if h := resp2.Header.Get("X-Psdpd-Cache"); h != "hit" {
		t.Fatalf("reordered triplets missed the cache (disposition %q)", h)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cache hit returned different bytes")
	}
}

// Retry-After on a 429 is derived from live backpressure — queue depth
// over worker count times the observed solve-latency EWMA — not a
// hardcoded constant. With the EWMA preset to 2s, one blocked worker,
// and two queued jobs, the rejected client is ~3 rounds out: header 6.
func TestRetryAfterDerivedFromBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Shards: 1, QueueDepth: 2})
	var started atomic.Int32
	gate := make(chan struct{})
	defer close(gate)
	s.testHookBeforeSolve = func() {
		started.Add(1)
		<-gate
	}
	s.solveSeconds.Store(math.Float64bits(2.0))

	doc := denseInstance(t, 6, 8, 67)
	mkReq := func(seed uint64) Request {
		return Request{Instance: doc, Eps: 0.25, Seed: seed}
	}
	done := make(chan struct{}, 3)
	send := func(seed uint64) {
		req := mkReq(seed)
		tryPostJSON(ts.URL+"/v1/decision", &req)
		done <- struct{}{}
	}

	// One request on the worker, two in the depth-2 queue.
	go send(1)
	waitFor(t, func() bool { return started.Load() == 1 })
	go send(2)
	go send(3)
	waitFor(t, func() bool { return s.pool.QueueDepth() == 2 })

	// Rejected client: ceil((2 queued + 1 worker)/1 worker) = 3 rounds
	// at 2s each.
	req := mkReq(4)
	resp, body := postJSON(t, ts.URL+"/v1/decision", &req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "6" {
		t.Errorf("Retry-After %q, want \"6\" (3 rounds x 2s EWMA)", got)
	}

	// A pathological EWMA is clamped to 30s, never parking the client
	// for minutes.
	s.solveSeconds.Store(math.Float64bits(100.0))
	resp, _ = postJSON(t, ts.URL+"/v1/decision", &req)
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Errorf("Retry-After %q, want clamp \"30\"", got)
	}

	// A cold server (no solve observed yet) still advertises at least
	// 1s — never 0, which clients would treat as "immediately".
	s.solveSeconds.Store(0)
	resp, _ = postJSON(t, ts.URL+"/v1/decision", &req)
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After %q, want floor \"1\"", got)
	}
}
