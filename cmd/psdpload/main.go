// Command psdpload is a closed-loop load generator for psdpd: a fixed
// set of concurrent clients each keeps exactly one request in flight
// against the daemon for the test duration, then the run prints
// sustained req/s, latency percentiles, and the cache-hit rate.
//
// Usage:
//
//	psdpload -url http://127.0.0.1:8723 [-concurrency 64] [-duration 5s]
//	         [-endpoint decision] [-n 8] [-m 12] [-instances 4] [-seeds 2]
//	         [-eps 0.25] [-wait 10s]
//	psdpload -mode drift [-bench-out BENCH_psdp.json] ...
//
// The workload is instances×seeds distinct requests cycled round-robin,
// so after one cold pass every request is a cache hit (or a
// singleflight share) — the steady state a result cache is for. Any
// response other than 2xx or 429 fails the run (exit 1): 429 is
// documented backpressure, everything else is a bug.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/instio"
	"repro/internal/matrix"
	"repro/internal/mixed"
	"repro/internal/serve"
)

type loadReport struct {
	Endpoint     string  `json:"endpoint"`
	Concurrency  int     `json:"concurrency"`
	DurationSec  float64 `json:"duration_s"`
	Requests     int64   `json:"requests"`
	RPS          float64 `json:"rps"`
	P50Ms        float64 `json:"p50_ms"`
	P95Ms        float64 `json:"p95_ms"`
	P99Ms        float64 `json:"p99_ms"`
	MaxMs        float64 `json:"max_ms"`
	CacheHits    int64   `json:"cache_hits"`
	CacheShared  int64   `json:"cache_shared"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	Rejected429  int64   `json:"rejected_429"`
	Errors       int64   `json:"errors"`
	Instances    int     `json:"instances"`
	Seeds        int     `json:"seeds"`
	N            int     `json:"n"`
	M            int     `json:"m"`
}

func main() {
	url := flag.String("url", "http://127.0.0.1:8723", "psdpd base URL")
	mode := flag.String("mode", "steady", "steady (closed-loop load) | drift (incremental warm-vs-cold benchmark)")
	endpoint := flag.String("endpoint", "decision", "decision | maximize | mixed (steady mode)")
	revisions := flag.Int("revisions", 16, "drift mode: number of chained revisions")
	drift := flag.Float64("drift", 0.05, "drift mode: per-constraint scale drift bound")
	driftFrac := flag.Float64("drift-frac", 0.5, "drift mode: fraction of constraints drifted per revision")
	scale := flag.Float64("scale", 0.2, "drift mode: request scale")
	concurrency := flag.Int("concurrency", 64, "concurrent in-flight requests")
	duration := flag.Duration("duration", 5*time.Second, "test duration")
	n := flag.Int("n", 8, "constraints per generated instance")
	m := flag.Int("m", 12, "instance dimension")
	instances := flag.Int("instances", 4, "distinct generated instances")
	seeds := flag.Int("seeds", 2, "distinct solver seeds per instance")
	eps := flag.Float64("eps", 0.25, "target accuracy")
	engine := flag.String("engine", "", "decision engine on every request: mmw, alo, auto, or \"\" for the server default")
	genSeed := flag.Uint64("gen-seed", 7, "instance generator seed")
	wait := flag.Duration("wait", 10*time.Second, "max time to wait for /healthz before starting")
	benchOut := flag.String("bench-out", "BENCH_psdp.json", "drift mode: merge the report under the \"serve.delta\" key of this file (empty disables)")
	flag.Parse()

	if *endpoint != "decision" && *endpoint != "maximize" && *endpoint != "mixed" {
		fmt.Fprintf(os.Stderr, "psdpload: unknown endpoint %q\n", *endpoint)
		os.Exit(2)
	}
	switch *engine {
	case "", "mmw", "alo", "auto":
	default:
		fmt.Fprintf(os.Stderr, "psdpload: unknown engine %q (want mmw, alo, auto, or empty)\n", *engine)
		os.Exit(2)
	}
	if *mode != "steady" && *mode != "drift" {
		fmt.Fprintf(os.Stderr, "psdpload: unknown mode %q (want steady or drift)\n", *mode)
		os.Exit(2)
	}
	if err := waitHealthy(*url, *wait); err != nil {
		fmt.Fprintf(os.Stderr, "psdpload: %v\n", err)
		os.Exit(1)
	}
	if *mode == "drift" {
		os.Exit(runDrift(*url, *n, *m, *revisions, *drift, *driftFrac, *eps, *genSeed, *scale, *engine, *benchOut))
	}

	bodies := buildBodies(*endpoint, *n, *m, *instances, *seeds, *eps, *genSeed, *engine)
	client := &http.Client{Timeout: 2 * time.Minute}
	target := *url + "/v1/" + *endpoint

	var (
		mu        sync.Mutex
		latencies []time.Duration
		requests  atomic.Int64
		hits      atomic.Int64
		shared    atomic.Int64
		rejected  atomic.Int64
		errCount  atomic.Int64
	)
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for c := 0; c < *concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Stagger starting offsets so clients don't march through the
			// request mix in lockstep.
			for i := c; time.Now().Before(deadline); i++ {
				body := bodies[i%len(bodies)]
				start := time.Now()
				status, cacheState, err := post(client, target, body)
				lat := time.Since(start)
				requests.Add(1)
				switch {
				case err != nil:
					errCount.Add(1)
					fmt.Fprintf(os.Stderr, "psdpload: %v\n", err)
				case status == http.StatusTooManyRequests:
					rejected.Add(1)
					time.Sleep(10 * time.Millisecond) // honor backpressure
				case status >= 200 && status < 300:
					mu.Lock()
					latencies = append(latencies, lat)
					mu.Unlock()
					switch cacheState {
					case "hit":
						hits.Add(1)
					case "shared":
						shared.Add(1)
					}
				default:
					errCount.Add(1)
					fmt.Fprintf(os.Stderr, "psdpload: unexpected status %d\n", status)
				}
			}
		}(c)
	}
	wg.Wait()

	rep := summarize(*endpoint, *concurrency, *duration, latencies,
		requests.Load(), hits.Load(), shared.Load(), rejected.Load(), errCount.Load())
	rep.Instances, rep.Seeds, rep.N, rep.M = *instances, *seeds, *n, *m

	out, _ := json.MarshalIndent(&rep, "", "  ")
	fmt.Println(string(out))
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "psdpload: %d responses were neither 2xx nor 429\n", rep.Errors)
		os.Exit(1)
	}
}

// buildBodies pre-marshals the request mix: instances × seeds distinct
// (instance, seed) pairs, so the digest space — and with it the cache
// hit rate — is controlled exactly.
func buildBodies(endpoint string, n, m, instances, seeds int, eps float64, genSeed uint64, engine string) [][]byte {
	if instances < 1 {
		instances = 1
	}
	if seeds < 1 {
		seeds = 1
	}
	var bodies [][]byte
	for i := 0; i < instances; i++ {
		rng := rand.New(rand.NewPCG(genSeed, uint64(i)))
		inst := gen.RandomDense(n, m, max(2, m/4), rng)
		set, err := core.NewDenseSet(inst.A)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psdpload: generating instance %d: %v\n", i, err)
			os.Exit(1)
		}
		var doc *instio.Instance
		if endpoint == "mixed" {
			prob, err := mixed.NewProblem(set, coverFor(n, rng))
			if err != nil {
				fmt.Fprintf(os.Stderr, "psdpload: wrapping instance %d: %v\n", i, err)
				os.Exit(1)
			}
			doc, err = instio.FromMixedProblem(prob)
			if err != nil {
				fmt.Fprintf(os.Stderr, "psdpload: encoding instance %d: %v\n", i, err)
				os.Exit(1)
			}
		} else {
			doc = instio.FromDenseSet(set)
		}
		for s := 0; s < seeds; s++ {
			req := serve.Request{Instance: doc, Eps: eps, Seed: uint64(s + 1), Engine: engine}
			if endpoint != "mixed" {
				// /v1/mixed rejects scale (it would not survive BuildMixed);
				// the plain kinds keep it so the workload matches PR 5 runs.
				req.Scale = 0.5
			}
			body, err := json.Marshal(&req)
			if err != nil {
				fmt.Fprintf(os.Stderr, "psdpload: %v\n", err)
				os.Exit(1)
			}
			bodies = append(bodies, body)
		}
	}
	return bodies
}

// coverFor builds a dense covering matrix whose rows demand a mix of
// the packing variables — entries deterministic in rng so distinct
// instances stay distinct digests and repeats stay cache hits.
func coverFor(n int, rng *rand.Rand) *matrix.Dense {
	rows := max(2, n/2)
	cov := matrix.New(rows, n)
	for r := 0; r < rows; r++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				cov.Set(r, j, 0.1+rng.Float64())
			}
		}
		cov.Set(r, rng.IntN(n), 0.5+rng.Float64())
	}
	return cov
}

func post(client *http.Client, target string, body []byte) (int, string, error) {
	resp, err := client.Post(target, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, resp.Header.Get("X-Psdpd-Cache"), nil
}

// postRaw POSTs and returns the status, response headers, and body —
// the drift mode needs the X-Psdpd-Digest header and the decision body.
func postRaw(client *http.Client, target string, body []byte) (int, http.Header, []byte, error) {
	resp, err := client.Post(target, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, resp.Header, nil, err
	}
	return resp.StatusCode, resp.Header, bytes.TrimRight(out, "\n"), nil
}

func waitHealthy(url string, wait time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not healthy after %s", url, wait)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// pctMs returns the p-quantile of the ascending-sorted latencies in
// milliseconds — the single percentile definition both the steady and
// drift reports use.
func pctMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(p*float64(len(sorted)-1))]) / float64(time.Millisecond)
}

func summarize(endpoint string, concurrency int, duration time.Duration, lats []time.Duration,
	requests, hits, shared, rejected, errs int64) loadReport {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 { return pctMs(lats, p) }
	rep := loadReport{
		Endpoint:    endpoint,
		Concurrency: concurrency,
		DurationSec: duration.Seconds(),
		Requests:    requests,
		RPS:         float64(len(lats)) / duration.Seconds(),
		P50Ms:       pct(0.50),
		P95Ms:       pct(0.95),
		P99Ms:       pct(0.99),
		MaxMs:       pct(1.0),
		CacheHits:   hits,
		CacheShared: shared,
		Rejected429: rejected,
		Errors:      errs,
	}
	if len(lats) > 0 {
		rep.CacheHitRate = float64(hits) / float64(len(lats))
	}
	return rep
}
