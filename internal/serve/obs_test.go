package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// mustJSONRequest builds a POST with a marshaled JSON body, for tests
// that need to set headers before sending.
func mustJSONRequest(t *testing.T, url string, v any) *http.Request {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	return req
}

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// The /metrics exposition must be well-formed Prometheus text and carry
// the core series after real traffic, and the iteration count served in
// X-Psdpd-Iterations must be identical between the cold solve and the
// cache hit (it is part of the deterministic content the digest
// addresses). Every kind runs through the same solve closure, so each
// must also leave psdpd_solver_iterations_total equal to the count it
// advertised.
func TestMetricsExposition(t *testing.T) {
	cases := []struct {
		kind, rep string
		req       Request
	}{
		{"decision", "dense", Request{Instance: denseInstance(t, 6, 8, 301), Eps: 0.25, Seed: 4}},
		{"maximize", "dense", Request{Instance: denseInstance(t, 5, 6, 302), Eps: 0.3, Seed: 4}},
		{"solve", "program", Request{Program: &ProgramDoc{
			C: [][]float64{{2, 0}, {0, 1}},
			A: [][][]float64{{{1, 0}, {0, 0.5}}},
			B: []float64{1},
		}, Eps: 0.2, Seed: 2}},
		{"mixed", "mixed-dense", Request{Instance: mixedFromPack(t, denseInstance(t, 4, 6, 304)), Eps: 0.2, Seed: 5}},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: 2})
			resp1, _ := postJSON(t, ts.URL+"/v1/"+tc.kind, &tc.req)
			if resp1.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", tc.kind, resp1.StatusCode)
			}
			iters1 := resp1.Header.Get("X-Psdpd-Iterations")
			if iters1 == "" || iters1 == "0" {
				t.Fatalf("miss served X-Psdpd-Iterations %q, want positive count", iters1)
			}
			resp2, _ := postJSON(t, ts.URL+"/v1/"+tc.kind, &tc.req)
			if got := resp2.Header.Get("X-Psdpd-Cache"); got != "hit" {
				t.Fatalf("repeat request: cache %q, want hit", got)
			}
			if got := resp2.Header.Get("X-Psdpd-Iterations"); got != iters1 {
				t.Fatalf("hit served X-Psdpd-Iterations %q, miss served %q — must match", got, iters1)
			}

			mresp, text := getBody(t, ts.URL+"/metrics")
			if mresp.StatusCode != http.StatusOK {
				t.Fatalf("/metrics: status %d", mresp.StatusCode)
			}
			if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
				t.Fatalf("/metrics content type %q", ct)
			}
			if err := obs.CheckExposition(text); err != nil {
				t.Fatalf("malformed exposition: %v", err)
			}
			for _, want := range []string{
				"psdpd_requests_total 2",
				"psdpd_solves_total 1",
				"psdpd_cache_hits_total 1",
				`psdpd_admitted_total{kind="` + tc.kind + `",rep="` + tc.rep + `",engine="mmw"} 2`,
				`psdpd_solver_phase_seconds_total{phase="oracle"}`,
				"psdpd_solver_iterations_total",
				`psdpd_request_seconds_bucket{endpoint="` + tc.kind + `",le="+Inf"} 2`,
				`psdpd_solve_seconds_count{kind="` + tc.kind + `"} 1`,
				"psdpd_queue_wait_seconds_count",
				`psdpd_queue_depth{shard="0"} 0`,
				"psdpd_uptime_seconds",
			} {
				if !strings.Contains(text, want) {
					t.Errorf("exposition missing %q", want)
				}
			}
			// Phase telemetry reached the registry: total iterations equal
			// the count the response advertised.
			if !strings.Contains(text, "psdpd_solver_iterations_total "+iters1+"\n") {
				t.Errorf("psdpd_solver_iterations_total does not match header %s:\n%s", iters1,
					grepLines(text, "psdpd_solver_iterations_total"))
			}
		})
	}
}

func grepLines(text, substr string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// /statsz must report the solver phase totals, and they must be
// consistent: expm time is a component of oracle time, and a real solve
// spends nonzero time in each instrumented phase.
func TestStatszPhaseTotals(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	req := Request{Instance: sparseInstance(t, 4, 40, 77), Eps: 0.3, Seed: 5}
	resp, _ := postJSON(t, ts.URL+"/v1/decision", &req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decision: status %d", resp.StatusCode)
	}
	st := s.Stats()
	if st.SolverIterations <= 0 {
		t.Fatalf("SolverIterations = %d, want > 0", st.SolverIterations)
	}
	if st.SolverOracleNS <= 0 || st.SolverExpmNS <= 0 {
		t.Fatalf("phase totals oracle=%d expm=%d, want both > 0", st.SolverOracleNS, st.SolverExpmNS)
	}
	if st.SolverExpmNS > st.SolverOracleNS {
		t.Fatalf("expm %dns exceeds oracle %dns (expm is a component of the oracle phase)",
			st.SolverExpmNS, st.SolverOracleNS)
	}
	if st.SolverUpdateNS < 0 || st.SolverBookkeepNS < 0 {
		t.Fatalf("negative phase totals: update=%d bookkeep=%d", st.SolverUpdateNS, st.SolverBookkeepNS)
	}
}

// DisableMetrics must remove the endpoint (404) without disturbing the
// solve path.
func TestMetricsDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, DisableMetrics: true})
	if s.Metrics() != nil {
		t.Fatal("Metrics() should be nil when disabled")
	}
	resp, _ := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics with metrics disabled: status %d, want 404", resp.StatusCode)
	}
	req := Request{Instance: denseInstance(t, 5, 6, 303), Eps: 0.25, Seed: 1}
	sresp, _ := postJSON(t, ts.URL+"/v1/decision", &req)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("decision with metrics disabled: status %d", sresp.StatusCode)
	}
}

// Request IDs: a client-supplied X-Request-Id is echoed back verbatim;
// requests without one get distinct generated IDs.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	hreq, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("X-Request-Id", "client-abc-123")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-abc-123" {
		t.Fatalf("echoed request ID %q, want client-abc-123", got)
	}

	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		r, _ := getBody(t, ts.URL+"/healthz")
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			t.Fatal("no generated X-Request-Id")
		}
		if ids[id] {
			t.Fatalf("generated request ID %q repeated", id)
		}
		ids[id] = true
	}
}

// Readiness splits from liveness under backpressure: with the one
// worker held and the one queue slot filled, every shard queue is
// saturated, so /readyz answers 503 while /healthz stays 200; draining
// the queue restores readiness.
func TestReadyzBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Shards: 1, QueueDepth: 1})
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release() // never leave the worker parked if an assert fails
	var started atomic.Int32
	s.testHookBeforeSolve = func() { started.Add(1); <-gate }

	doc := denseInstance(t, 5, 6, 305)
	var wg sync.WaitGroup
	send := func(seed uint64) {
		defer wg.Done()
		req := Request{Instance: doc, Eps: 0.25, Seed: seed}
		tryPostJSON(ts.URL+"/v1/decision", &req)
	}
	// Seed 1 occupies the worker; seed 2 occupies the queue slot.
	wg.Add(2)
	go send(1)
	waitFor(t, func() bool { return started.Load() >= 1 })
	go send(2)
	waitFor(t, func() bool { return s.pool.QueueDepth() == 1 })

	resp, _ := getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while saturated: status %d, want 503", resp.StatusCode)
	}
	hresp, _ := getBody(t, ts.URL+"/healthz")
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while saturated: status %d, want 200 (liveness is not readiness)", hresp.StatusCode)
	}

	release()
	wg.Wait()
	waitFor(t, func() bool { return s.pool.QueueDepth() == 0 })
	resp2, _ := getBody(t, ts.URL+"/readyz")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/readyz after drain: status %d, want 200", resp2.StatusCode)
	}
}

// The slow-solve ring records successful solves at/over the threshold
// with the request ID as the join key back to the logs, and serves them
// newest first at /debugz/slow.
func TestSlowSolveRing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, SlowSolve: time.Nanosecond})

	req := Request{Instance: denseInstance(t, 5, 6, 307), Eps: 0.25, Seed: 2}
	hreq := mustJSONRequest(t, ts.URL+"/v1/decision", &req)
	hreq.Header.Set("X-Request-Id", "slow-test-1")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decision: status %d", resp.StatusCode)
	}

	entries := s.SlowSnapshot()
	if len(entries) == 0 {
		t.Fatal("slow ring empty after a solve over the threshold")
	}
	e := entries[0]
	if e.Kind != "decision" || e.Status != http.StatusOK {
		t.Fatalf("ring entry = %+v, want kind decision status 200", e)
	}
	if e.RequestID != "slow-test-1" {
		t.Fatalf("ring entry request ID %q, want slow-test-1", e.RequestID)
	}
	if e.Iterations <= 0 || e.DurationMS <= 0 || e.Digest == "" {
		t.Fatalf("ring entry incomplete: %+v", e)
	}

	dresp, dbody := getBody(t, ts.URL+"/debugz/slow")
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debugz/slow: status %d", dresp.StatusCode)
	}
	if !strings.Contains(dbody, `"requestId":"slow-test-1"`) {
		t.Fatalf("/debugz/slow body missing the recorded entry: %s", dbody)
	}
}
