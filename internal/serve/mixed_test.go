package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/internal/instio"
	"repro/internal/mixed"
)

// mixedFromPack wraps a plain instance document's packing side into a
// mixed document with a single all-ones covering row (every coordinate
// contributes to coverage, so the dynamics have something to do on both
// sides).
func mixedFromPack(t *testing.T, pack *instio.Instance) *instio.Instance {
	t.Helper()
	n := len(pack.Dense) + len(pack.Factored) + len(pack.Sparse)
	if n == 0 {
		t.Fatal("pack document has no constraints")
	}
	md := &instio.MixedDoc{
		Dense:    pack.Dense,
		Factored: pack.Factored,
		Sparse:   pack.Sparse,
		Rows:     1,
	}
	for i := 0; i < n; i++ {
		md.Cover = append(md.Cover, [3]float64{0, float64(i), 1})
	}
	return &instio.Instance{M: pack.M, Mixed: md}
}

// solveMixedDirect runs the exact library call the server's mixed
// closure runs, for bitwise comparison.
func solveMixedDirect(t *testing.T, req *Request) *mixed.Result {
	t.Helper()
	p, err := instio.BuildMixed(req.Instance)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := req.coreOptions()
	if err != nil {
		t.Fatal(err)
	}
	res, err := mixed.Solve(p, req.Eps, mixed.Options{
		MaxIter: req.MaxIter,
		Seed:    req.Seed,
		Oracle:  opts.Oracle,
		Engine:  opts.Engine,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The mixed service contract mirrors the decision one: /v1/mixed is
// bitwise identical to the direct psdp.SolveMixed call across every
// representation and engine, at any GOMAXPROCS.
func TestMixedMatchesLibraryBitwise(t *testing.T) {
	cases := []struct {
		name string
		req  Request
	}{
		{"dense-mmw", Request{Instance: mixedFromPack(t, denseInstance(t, 6, 8, 111)), Eps: 0.2, Seed: 5}},
		{"dense-alo", Request{Instance: mixedFromPack(t, denseInstance(t, 6, 8, 111)), Eps: 0.2, Seed: 5, Engine: "alo"}},
		{"factored-mmw", Request{Instance: mixedFromPack(t, factoredInstance(t, 8, 12, 121)), Eps: 0.25, Seed: 7, MaxIter: 300}},
		{"sparse-mmw", Request{Instance: mixedFromPack(t, sparseInstance(t, 6, 18, 131)), Eps: 0.25, Seed: 13, MaxIter: 300}},
		{"sparse-alo", Request{Instance: mixedFromPack(t, sparseInstance(t, 6, 18, 131)), Eps: 0.25, Seed: 13, Engine: "alo", MaxIter: 300}},
	}
	for _, procs := range []int{1, 8} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s-procs%d", tc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

				want := solveMixedDirect(t, &tc.req)

				_, ts := newTestServer(t, Config{Workers: 2})
				resp, body := postJSON(t, ts.URL+"/v1/mixed", &tc.req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d: %s", resp.StatusCode, body)
				}
				var got MixedResponse
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatal(err)
				}
				if got.Kind != "mixed" || got.Status != want.Status.String() || got.Engine != want.Engine {
					t.Fatalf("outcome drift: %s/%s/%s vs mixed/%s/%s", got.Kind, got.Status, got.Engine, want.Status, want.Engine)
				}
				if got.Iterations != want.Iterations || got.Capped != want.Capped {
					t.Fatalf("trajectory drift: %d/%d vs %d/%d", got.Iterations, got.Capped, want.Iterations, want.Capped)
				}
				if !sameBits(float64(got.MinCoverage), want.MinCoverage) || !sameBits(float64(got.LambdaMax), want.LambdaMax) {
					t.Fatalf("certificate drift: %v/%v vs %v/%v", got.MinCoverage, got.LambdaMax, want.MinCoverage, want.LambdaMax)
				}
				sameVecBits(t, "x", got.X, want.X)
			})
		}
	}
}

// Identical re-POSTs to /v1/mixed hit the content-addressed cache and
// return byte-identical bodies; the mixed per-representation counters
// sum to exactly the admitted mixed requests.
func TestMixedCacheHitAndCounters(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Shards: 1})
	reqs := []Request{
		{Instance: mixedFromPack(t, denseInstance(t, 6, 8, 141)), Eps: 0.2, Seed: 5},
		{Instance: mixedFromPack(t, factoredInstance(t, 8, 12, 151)), Eps: 0.25, Seed: 7, MaxIter: 200},
		{Instance: mixedFromPack(t, sparseInstance(t, 6, 18, 161)), Eps: 0.25, Seed: 13, MaxIter: 200},
	}
	var first [][]byte
	for i := range reqs {
		resp, body := postJSON(t, ts.URL+"/v1/mixed", &reqs[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Psdpd-Cache"); got != "miss" {
			t.Fatalf("request %d: first POST cache state %q, want miss", i, got)
		}
		first = append(first, body)
	}
	for i := range reqs {
		resp, body := postJSON(t, ts.URL+"/v1/mixed", &reqs[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("re-POST %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Psdpd-Cache"); got != "hit" {
			t.Fatalf("re-POST %d: cache state %q, want hit", i, got)
		}
		if !bytes.Equal(body, first[i]) {
			t.Fatalf("re-POST %d: bytes differ from first solve", i)
		}
	}
	st := s.Stats()
	if st.Admitted != 6 {
		t.Fatalf("admitted = %d, want 6", st.Admitted)
	}
	if st.Solves != 3 || st.CacheHits != 3 {
		t.Fatalf("solves/cacheHits = %d/%d, want 3/3", st.Solves, st.CacheHits)
	}
	mixedSum := st.RequestsMixedDense + st.RequestsMixedFactored + st.RequestsMixedSparse
	if mixedSum != st.Admitted {
		t.Fatalf("mixed representation counters sum to %d, admitted %d", mixedSum, st.Admitted)
	}
	if st.RequestsMixedDense != 2 || st.RequestsMixedFactored != 2 || st.RequestsMixedSparse != 2 {
		t.Fatalf("per-representation mixed counters %d/%d/%d, want 2/2/2",
			st.RequestsMixedDense, st.RequestsMixedFactored, st.RequestsMixedSparse)
	}
	// The plain representation counters must not have moved: mixed
	// workload is its own family.
	if st.RequestsDense+st.RequestsFactored+st.RequestsSparse+st.RequestsProgram != 0 {
		t.Fatal("mixed requests leaked into the plain representation counters")
	}
	// Engine counters follow the same admitted-sum discipline (default
	// engine is mmw here).
	if st.RequestsMMW != 6 || st.RequestsALO != 0 {
		t.Fatalf("engine counters mmw=%d alo=%d, want 6/0", st.RequestsMMW, st.RequestsALO)
	}
}

// Mixed requests resolve "auto" to a concrete engine (mixed.Solve does
// so per instance), so the auto spelling shares the explicit pick's
// content address and its admission counter.
func TestMixedAutoEngineMergesWithExplicit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Shards: 1})
	doc := mixedFromPack(t, sparseInstance(t, 6, 18, 171))
	// eps 0.05 on a sparse pack: ResolveEngine(auto) picks ALO.
	auto := Request{Instance: doc, Eps: 0.05, Seed: 3, Engine: "auto", MaxIter: 50}
	explicit := Request{Instance: doc, Eps: 0.05, Seed: 3, Engine: "alo", MaxIter: 50}
	_, abody, adig := postForDigest(t, ts.URL+"/v1/mixed", &auto)
	eresp, ebody, edig := postForDigest(t, ts.URL+"/v1/mixed", &explicit)
	if adig != edig {
		t.Fatalf("auto digest %s != explicit alo digest %s", adig, edig)
	}
	if eresp.Header.Get("X-Psdpd-Cache") != "hit" || !bytes.Equal(abody, ebody) {
		t.Fatal("explicit alo request did not reuse the auto result")
	}
	st := s.Stats()
	if st.RequestsALO != 2 || st.RequestsAuto != 0 {
		t.Fatalf("engine counters alo=%d auto=%d, want 2/0 (auto resolves for mixed)", st.RequestsALO, st.RequestsAuto)
	}
}

// A delta against a sparse-packed mixed base materializes a mixed
// instance and warm-starts the mixed solve from the base's final
// iterate, under a lineage address separate from the cold one.
func TestMixedDeltaWarmStart(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Shards: 1})
	doc := mixedFromPack(t, sparseInstance(t, 6, 14, 181))
	base := Request{Instance: doc, Eps: 0.25, Seed: 5}
	resp, baseBody, baseDigest := postForDigest(t, ts.URL+"/v1/mixed", &base)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base solve: status %d: %s", resp.StatusCode, baseBody)
	}
	if baseDigest == "" {
		t.Fatal("base solve returned no X-Psdpd-Digest header")
	}

	// ≤5% drift on the packing side; the covering side carries over.
	deltaDoc := &instio.Instance{Delta: &instio.Delta{
		Base: baseDigest,
		Scale: []instio.DeltaScale{
			{I: 0, By: 1.04}, {I: 2, By: 0.97},
		},
	}}
	dreq := Request{Instance: deltaDoc, Eps: 0.25, Seed: 5}
	dresp, dbody, ddigest := postForDigest(t, ts.URL+"/v1/delta", &dreq)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delta solve: status %d: %s", dresp.StatusCode, dbody)
	}
	if got := dresp.Header.Get("X-Psdpd-Cache"); got != "miss" {
		t.Fatalf("first delta solve cache state %q, want miss", got)
	}
	var warm MixedResponse
	if err := json.Unmarshal(dbody, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Kind != "mixed" {
		t.Fatalf("delta against mixed base answered kind %q, want mixed", warm.Kind)
	}
	if !warm.WarmStarted {
		t.Fatal("delta solve did not warm-start from the base iterate")
	}

	// A repeat of the same delta hits the warm lineage address.
	rresp, rbody := postJSON(t, ts.URL+"/v1/delta", &dreq)
	if rresp.StatusCode != http.StatusOK || rresp.Header.Get("X-Psdpd-Cache") != "hit" {
		t.Fatalf("repeat delta: status %d cache %q", rresp.StatusCode, rresp.Header.Get("X-Psdpd-Cache"))
	}
	if !bytes.Equal(rbody, dbody) {
		t.Fatal("repeat delta bytes differ")
	}

	// Cold-solving the same materialized content through /v1/mixed is a
	// separate content address: warm bytes never leak into it.
	mat, err := instio.ApplyDelta(doc, deltaDoc)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Mixed == nil {
		t.Fatal("materialized delta lost the mixed section")
	}
	creq := Request{Instance: mat, Eps: 0.25, Seed: 5}
	cresp, cbody, cdigest := postForDigest(t, ts.URL+"/v1/mixed", &creq)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cold solve: status %d: %s", cresp.StatusCode, cbody)
	}
	if got := cresp.Header.Get("X-Psdpd-Cache"); got != "miss" {
		t.Fatalf("cold solve of delta content was a cache %q: warm bytes leaked", got)
	}
	if cdigest == ddigest {
		t.Fatal("warm and cold mixed solves share a content address")
	}
	var cold MixedResponse
	if err := json.Unmarshal(cbody, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.WarmStarted {
		t.Fatal("cold solve reports a warm start")
	}
	if warm.Status != cold.Status {
		t.Fatalf("warm landed on %q, cold on %q", warm.Status, cold.Status)
	}
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm used %d iterations, cold %d (warm start made it worse)", warm.Iterations, cold.Iterations)
	}

	st := s.Stats()
	if st.DeltaRequests != 2 {
		t.Fatalf("deltaRequests = %d, want 2", st.DeltaRequests)
	}
	if st.WarmStarts != 1 || st.ColdFallbacks != 0 {
		t.Fatalf("warmStarts = %d coldFallbacks = %d, want 1/0", st.WarmStarts, st.ColdFallbacks)
	}
	if len(st.DeltaLineage) != 1 {
		t.Fatalf("lineage has %d entries, want 1", len(st.DeltaLineage))
	}
	lin := st.DeltaLineage[0]
	if lin.Base != baseDigest || lin.Derived != ddigest || !lin.WarmStarted || lin.Iterations != warm.Iterations {
		t.Fatalf("lineage record %+v inconsistent (base %s derived %s iters %d)", lin, baseDigest, ddigest, warm.Iterations)
	}
}

// Mixed deltas that change the variable count are rejected: the
// covering columns pin it.
func TestMixedDeltaRejectsReshape(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Shards: 1})
	doc := mixedFromPack(t, sparseInstance(t, 6, 14, 191))
	base := Request{Instance: doc, Eps: 0.25, Seed: 5, MaxIter: 100}
	resp, body, baseDigest := postForDigest(t, ts.URL+"/v1/mixed", &base)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base solve: status %d: %s", resp.StatusCode, body)
	}
	dreq := Request{Instance: &instio.Instance{Delta: &instio.Delta{
		Base:   baseDigest,
		Remove: []int{0},
	}}, Eps: 0.25, Seed: 5}
	dresp, dbody := postJSON(t, ts.URL+"/v1/delta", &dreq)
	if dresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reshaping mixed delta: status %d: %s", dresp.StatusCode, dbody)
	}
}

// Mixed-specific validation failures answer 400 and leave the
// admission counters flat.
func TestMixedValidationErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	valid := mixedFromPack(t, denseInstance(t, 4, 6, 201))
	badCover := mixedFromPack(t, denseInstance(t, 4, 6, 201))
	badCover.Mixed.Cover[0][2] = -1
	cases := []struct {
		name string
		req  Request
	}{
		{"no instance", Request{Eps: 0.2}},
		{"plain instance", Request{Instance: denseInstance(t, 4, 6, 201), Eps: 0.2}},
		{"negative cover", Request{Instance: badCover, Eps: 0.2}},
		{"scale", Request{Instance: valid, Eps: 0.2, Scale: 0.5}},
		// mixed.Solve reads none of these, so they must not reach the digest.
		{"sketchEps", Request{Instance: valid, Eps: 0.2, SketchEps: 0.4}},
		{"bucketed", Request{Instance: valid, Eps: 0.2, Bucketed: true}},
		{"theoryExact", Request{Instance: valid, Eps: 0.2, TheoryExact: true}},
		{"bad engine", Request{Instance: valid, Eps: 0.2, Engine: "warp"}},
		{"bad eps", Request{Instance: valid, Eps: 1.5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/mixed", &tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
		})
	}
	st := s.Stats()
	if st.Admitted != 0 {
		t.Fatalf("admitted = %d after pure-rejection traffic, want 0", st.Admitted)
	}
	if st.RequestsMixedDense+st.RequestsMixedFactored+st.RequestsMixedSparse != 0 {
		t.Fatal("rejected requests moved the mixed representation counters")
	}
}

// kind "mixed" works inside /v1/batch like the other kinds.
func TestMixedInBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	mreq := Request{Kind: "mixed", Instance: mixedFromPack(t, denseInstance(t, 4, 6, 211)), Eps: 0.2, Seed: 5}
	dreq := Request{Kind: "decision", Instance: denseInstance(t, 4, 6, 211), Eps: 0.2, Seed: 5}
	resp, body := postJSON(t, ts.URL+"/v1/batch", &BatchRequest{Requests: []Request{mreq, dreq}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != 2 {
		t.Fatalf("%d batch responses, want 2", len(out.Responses))
	}
	for i, item := range out.Responses {
		if item.Status != http.StatusOK {
			t.Fatalf("batch item %d: status %d error %q", i, item.Status, item.Error)
		}
	}
	var mr MixedResponse
	if err := json.Unmarshal(out.Responses[0].Response, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Kind != "mixed" {
		t.Fatalf("batch mixed item answered kind %q", mr.Kind)
	}
}

// flipCtx is a context whose Err turns to context.DeadlineExceeded
// after its first k calls. The solver checks it once before oracle
// setup and once per iteration, so the check of iteration k is call
// k+1: a deadline that fires at an exact iteration, without timing
// luck.
type flipCtx struct {
	context.Context
	k, calls int
}

func (c *flipCtx) Err() error {
	c.calls++
	if c.calls > c.k {
		return context.DeadlineExceeded
	}
	return nil
}

// /v1/mixed honours its deadline mid-solve: the solve stops at the
// iteration where the deadline fires and answers 504 naming it, and a
// completed mixed solve feeds the solver phase totals.
func TestMixedDeadlineStopsMidSolve(t *testing.T) {
	req := Request{Instance: mixedFromPack(t, denseInstance(t, 6, 8, 111)), Eps: 0.2, Seed: 5}
	const k = 4
	if full := solveMixedDirect(t, &req); full.Iterations <= k {
		t.Fatalf("uncancelled solve runs %d iterations, want more than %d", full.Iterations, k)
	}
	s, ts := newTestServer(t, Config{Workers: 1})
	var ctx *flipCtx
	s.testHookSolveCtx = func(parent context.Context) context.Context {
		ctx = &flipCtx{Context: parent, k: k}
		return ctx
	}
	resp, body := postJSON(t, ts.URL+"/v1/mixed", &req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if want := fmt.Sprintf("iteration %d: %v", k, context.DeadlineExceeded); !strings.Contains(string(body), want) {
		t.Fatalf("body %s does not name %q", body, want)
	}
	if ctx.calls != k+1 {
		t.Fatalf("solver checked the deadline %d times, want %d", ctx.calls, k+1)
	}
	if st := s.Stats(); st.Cancelled != 1 || st.SolverIterations != 0 {
		t.Fatalf("cancelled %d, recorded iterations %d; want 1 and 0", st.Cancelled, st.SolverIterations)
	}

	s.testHookSolveCtx = nil
	resp, body = postJSON(t, ts.URL+"/v1/mixed", &req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	st := s.Stats()
	if got := resp.Header.Get("X-Psdpd-Iterations"); got != fmt.Sprint(st.SolverIterations) {
		t.Fatalf("X-Psdpd-Iterations %s, solver iteration total %d", got, st.SolverIterations)
	}
	if st.SolverOracleNS <= 0 || st.SolverUpdateNS <= 0 || st.SolverBookkeepNS <= 0 {
		t.Fatalf("mixed solve recorded no phase time: %+v", st)
	}
}
