// Drifting-instance workload (-mode drift): the incremental-serving
// benchmark. One sparse base instance is solved through /v1/decision,
// then a chain of revisions — each a small per-constraint scale drift
// of the previous one — is solved twice per step: once through
// /v1/delta (warm-started from the previous revision's stored solver
// state) and once through /v1/decision with the locally materialized
// document (cold start, distinct content address). The report compares
// warm vs cold iteration counts and latency percentiles and lands in
// BENCH_psdp.json under the "serve.delta" key.
package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/benchfile"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/instio"
	"repro/internal/serve"
)

type deltaReport struct {
	Revisions      int     `json:"revisions"`
	Drift          float64 `json:"drift"`
	DriftFrac      float64 `json:"drift_frac"`
	N              int     `json:"n"`
	M              int     `json:"m"`
	Eps            float64 `json:"eps"`
	BaseIterations int     `json:"base_iterations"`
	WarmIterTotal  int64   `json:"warm_iter_total"`
	ColdIterTotal  int64   `json:"cold_iter_total"`
	WarmIterAvg    float64 `json:"warm_iter_avg"`
	ColdIterAvg    float64 `json:"cold_iter_avg"`
	// IterRatio = warm/cold: the fraction of cold-start iterations a
	// warm-started solve of a drifted revision actually needs.
	IterRatio     float64 `json:"iter_ratio"`
	WarmP50Ms     float64 `json:"warm_p50_ms"`
	WarmP99Ms     float64 `json:"warm_p99_ms"`
	ColdP50Ms     float64 `json:"cold_p50_ms"`
	ColdP99Ms     float64 `json:"cold_p99_ms"`
	WarmStarts    int64   `json:"warm_starts"`
	ColdFallbacks int64   `json:"cold_fallbacks"`
}

// runDrift executes the drifting workload and returns the process exit
// code.
func runDrift(url string, n, m, revisions int, drift, frac, eps float64, genSeed uint64, scale float64, engine, benchOut string) int {
	rng := rand.New(rand.NewPCG(genSeed, 0xd21f))
	g := graph.ErdosRenyi(m, 6.0/float64(m), rng)
	if g.M() < n {
		fmt.Fprintf(os.Stderr, "psdpload: graph too sparse: %d edges < %d groups\n", g.M(), n)
		return 1
	}
	inst, err := gen.SparseGroupedLaplacians(g, n, rng)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psdpload: generating base: %v\n", err)
		return 1
	}
	set, err := core.NewSparseSet(inst.A)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psdpload: %v\n", err)
		return 1
	}
	doc := instio.FromSparseSet(set)
	client := &http.Client{Timeout: 2 * time.Minute}

	baseReq := serve.Request{Instance: doc, Eps: eps, Seed: 1, Scale: scale, Engine: engine}
	baseResp, hdr, _, err := postParsed(client, url+"/v1/decision", &baseReq)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psdpload: base solve: %v\n", err)
		return 1
	}
	baseDigest := hdr.Get("X-Psdpd-Digest")
	if baseDigest == "" {
		fmt.Fprintln(os.Stderr, "psdpload: base solve returned no X-Psdpd-Digest")
		return 1
	}

	rep := deltaReport{
		Revisions: revisions, Drift: drift, DriftFrac: frac,
		N: n, M: set.Dim(), Eps: eps, BaseIterations: baseResp.Iterations,
	}
	// Snapshot the daemon counters so the report covers THIS run's
	// warm-vs-cold split, not the server's lifetime totals (the target
	// daemon may have served other delta traffic already).
	before, err := fetchStats(client, url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psdpload: /statsz before run: %v\n", err)
		return 1
	}
	var warmLats, coldLats []time.Duration
	cur := doc
	base := baseDigest
	for r := 0; r < revisions; r++ {
		idx, by := gen.DriftScales(n, frac, drift, rng)
		scales := make([]instio.DeltaScale, len(idx))
		for i := range idx {
			scales[i] = instio.DeltaScale{I: idx[i], By: by[i]}
		}
		deltaDoc := &instio.Instance{Delta: &instio.Delta{Base: base, Scale: scales}}
		dreq := serve.Request{Instance: deltaDoc, Eps: eps, Seed: 1, Scale: scale, Engine: engine}
		t0 := time.Now()
		warm, whdr, _, err := postParsed(client, url+"/v1/delta", &dreq)
		warmLats = append(warmLats, time.Since(t0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "psdpload: revision %d delta: %v\n", r, err)
			return 1
		}
		rep.WarmIterTotal += int64(warm.Iterations)
		base = whdr.Get("X-Psdpd-Digest")

		mat, err := instio.ApplyDelta(cur, deltaDoc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psdpload: revision %d materialize: %v\n", r, err)
			return 1
		}
		cur = mat
		creq := serve.Request{Instance: mat, Eps: eps, Seed: 1, Scale: scale, Engine: engine}
		t0 = time.Now()
		cold, _, _, err := postParsed(client, url+"/v1/decision", &creq)
		coldLats = append(coldLats, time.Since(t0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "psdpload: revision %d cold solve: %v\n", r, err)
			return 1
		}
		rep.ColdIterTotal += int64(cold.Iterations)
		if warm.Outcome != cold.Outcome {
			fmt.Fprintf(os.Stderr, "psdpload: revision %d: warm decided %q, cold %q\n", r, warm.Outcome, cold.Outcome)
			return 1
		}
	}
	if revisions > 0 {
		rep.WarmIterAvg = float64(rep.WarmIterTotal) / float64(revisions)
		rep.ColdIterAvg = float64(rep.ColdIterTotal) / float64(revisions)
	}
	if rep.ColdIterTotal > 0 {
		rep.IterRatio = float64(rep.WarmIterTotal) / float64(rep.ColdIterTotal)
	}
	rep.WarmP50Ms, rep.WarmP99Ms = latPercentiles(warmLats)
	rep.ColdP50Ms, rep.ColdP99Ms = latPercentiles(coldLats)

	after, err := fetchStats(client, url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "psdpload: /statsz after run: %v\n", err)
		return 1
	}
	rep.WarmStarts = after.WarmStarts - before.WarmStarts
	rep.ColdFallbacks = after.ColdFallbacks - before.ColdFallbacks

	out, _ := json.MarshalIndent(&rep, "", "  ")
	fmt.Println(string(out))
	if benchOut != "" {
		if err := benchfile.Merge(benchOut, map[string]any{"serve.delta": &rep}); err != nil {
			fmt.Fprintf(os.Stderr, "psdpload: writing %s: %v\n", benchOut, err)
			return 1
		}
	}
	// The incremental-serving guarantee this benchmark exists to gate:
	// warm-started solves of drifted revisions use strictly fewer
	// iterations than cold starts.
	if rep.WarmIterTotal >= rep.ColdIterTotal {
		fmt.Fprintf(os.Stderr, "psdpload: warm starts used %d iterations vs %d cold — no savings\n",
			rep.WarmIterTotal, rep.ColdIterTotal)
		return 1
	}
	return 0
}

// postParsed POSTs a request and decodes the DecisionResponse,
// requiring a 200.
func postParsed(client *http.Client, target string, req *serve.Request) (*serve.DecisionResponse, http.Header, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, nil, err
	}
	status, hdr, respBody, err := postRaw(client, target, body)
	if err != nil {
		return nil, nil, nil, err
	}
	if status != http.StatusOK {
		return nil, nil, nil, fmt.Errorf("%s: HTTP %d: %s", target, status, respBody)
	}
	var dr serve.DecisionResponse
	if err := json.Unmarshal(respBody, &dr); err != nil {
		return nil, nil, nil, err
	}
	return &dr, hdr, respBody, nil
}

func fetchStats(client *http.Client, url string) (*serve.StatsResponse, error) {
	resp, err := client.Get(url + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// latPercentiles returns (p50, p99) in milliseconds via the shared
// percentile helper (same indexing as the steady-mode report).
func latPercentiles(lats []time.Duration) (p50, p99 float64) {
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return pctMs(sorted, 0.50), pctMs(sorted, 0.99)
}
