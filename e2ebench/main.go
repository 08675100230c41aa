// Command e2ebench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time in a closed loop, checks every output
// after the timed window, and prints its metrics as one JSON line:
//
//	e2ebench --workload dense-solve|sparse-solve|serve-mix --seed N \
//	         --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// spends the first half of the time untraced and the second half with
// spans recorded around every call into a layer, writes the spans to
// .bench_build/spans/<workload>-<seed>.jsonl, and prints the per-layer
// metrics computed from that file.
// It exits nonzero when any output fails its check.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

type runConfig struct {
	seed      uint64
	seconds   float64
	trace     bool
	spansPath string
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what a run prints.
type report struct {
	attempted, failed int
	reasons           []string
	setupS            float64
	metrics           map[string]metric
	notes             []string // human-readable lines printed before the JSON
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// addEndToEnd fills the untraced metrics of a window. lat holds the
// latencies of the verified ops.
func (r *report) addEndToEnd(lat []float64, elapsed, cpu time.Duration, attempted int, c *checked) {
	r.attempted += attempted
	r.failed += c.failed
	r.reasons = append(r.reasons, c.reasons...)
	r.set("p50_ms", percentile(lat, 0.5), "ms")
	r.set("p90_ms", percentile(lat, 0.9), "ms")
	r.set("ops_per_s", float64(len(lat))/elapsed.Seconds(), "1/s")
	r.set("cpu_ms_per_op", ms(cpu)/float64(max(attempted, 1)), "ms")
	r.set("cert_gap", certGap(c.ratios), "ratio")
	r.set("peak_rss_mb", peakRSSMB(), "MiB")
	r.set("setup_s", r.setupS, "s")
	r.notes = append(r.notes, fmt.Sprintf("latency samples %d (%d beyond p90), brackets %d, loosest Upper/Lower %.6g",
		len(lat), beyond(len(lat), 0.9), len(c.ratios), slices.Max(append([]float64{0}, c.ratios...))))
}

// traceOverhead sets bench.trace_overhead_frac from the untraced and
// traced median latencies of a traced run.
func (r *report) traceOverhead(untracedP50, tracedP50 float64) {
	v := 0.0
	if untracedP50 > 0 {
		v = tracedP50/untracedP50 - 1
	}
	r.set("bench.trace_overhead_frac", v, "ratio")
	r.notes = append(r.notes, fmt.Sprintf("p50 untraced %.3f ms, traced %.3f ms", untracedP50, tracedP50))
}

// spanMetrics sets the metrics computed from the span file alone.
func (r *report) spanMetrics(spans []Span) {
	un, tot := unattributed(spans)
	v := 0.0
	if tot > 0 {
		v = float64(un) / float64(tot)
	}
	r.set("bench.unattributed_frac", v, "ratio")
	r.notes = append(r.notes, fmt.Sprintf("spans %d", len(spans)))
}

// memDelta is the change in Go runtime allocation counters.
type memDelta struct {
	mallocs, bytes, pauseNS uint64
}

func readMem() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{m.Mallocs, m.TotalAlloc, m.PauseTotalNs}
}

func (a memDelta) sub(b memDelta) memDelta {
	return memDelta{a.mallocs - b.mallocs, a.bytes - b.bytes, a.pauseNS - b.pauseNS}
}

func (r *report) runtimeMetrics(m memDelta, ops int) {
	n := float64(max(ops, 1))
	r.set("go.allocs_per_op", float64(m.mallocs)/n, "count")
	r.set("go.alloc_kb_per_op", float64(m.bytes)/1024/n, "KiB")
	r.set("go.gc_pause_ms", float64(m.pauseNS)/1e6/n, "ms")
}

// writeAndReload writes the span file and reads it back: the per-layer
// figures are computed from the file, not from memory.
func writeAndReload(tr *Tracer, path string) ([]Span, error) {
	if err := tr.Write(path); err != nil {
		return nil, fmt.Errorf("writing span file: %w", err)
	}
	return readSpans(path)
}

// perLayer lists every per-layer metric with its unit. A traced run
// prints all of them; a layer the workload never calls reads 0.
var perLayer = [][2]string{
	{"core.iterations", "count"}, {"core.iter_frac_R", "ratio"}, {"core.decision_calls", "count"},
	{"core.oracle_ms", "ms"}, {"core.expm_ms", "ms"}, {"core.update_ms", "ms"}, {"core.bookkeep_ms", "ms"},
	{"core.other_ms", "ms"}, {"core.ms_per_iter", "ms"}, {"core.verify_ms", "ms"},
	{"mixed.iterations", "count"}, {"mixed.solve_ms", "ms"},
	{"parallel.work_mflop", "Mflop"}, {"parallel.depth", "count"}, {"parallel.depth_per_iter", "count"},
	{"parallel.achieved_gflops", "Gflop/s"},
	{"matrix.mulab_gflops", "Gflop/s"}, {"matrix.symmulab_gflops", "Gflop/s"}, {"matrix.gram_gflops", "Gflop/s"},
	{"eigen.symeig_ms", "ms"}, {"expm.expsym_ms", "ms"},
	{"matrix.mulab_computed_flop", "flop"}, {"matrix.mulab_computed_bytes", "B"}, {"matrix.symmulab_computed_flop", "flop"},
	{"matrix.symmulab_computed_bytes", "B"}, {"matrix.gram_computed_flop", "flop"}, {"matrix.gram_computed_bytes", "B"},
	{"eigen.symeig_computed_bytes", "B"}, {"expm.expsym_computed_bytes", "B"},
	{"sparse.symmv_ns_per_nnz", "ns"}, {"sparse.quadforms_ns_per_nnz", "ns"}, {"eigen.lanczos_ms", "ms"},
	{"expm.expmv_ms", "ms"}, {"sketch.jl_refill_us", "us"},
	{"sparse.symmv_computed_bytes", "B"}, {"sparse.quadforms_computed_bytes", "B"}, {"sketch.jl_computed_bytes", "B"},
	{"work.misses_per_op", "count"}, {"go.allocs_per_op", "count"}, {"go.alloc_kb_per_op", "KiB"},
	{"go.gc_pause_ms", "ms"},
	{"instio.decode_ms", "ms"}, {"instio.build_ms", "ms"}, {"instio.apply_delta_ms", "ms"},
	{"serve.digest_ms", "ms"}, {"serve.handler_miss_ms", "ms"}, {"serve.handler_hit_ms", "ms"},
	{"serve.handler_warm_ms", "ms"}, {"serve.queue_wait_ms", "ms"}, {"serve.solve_ms", "ms"},
	{"serve.path_ms", "ms"}, {"serve.hit_ratio", "ratio"}, {"serve.warm_ratio", "ratio"},
	{"serve.cold_fallbacks", "count"}, {"serve.shared", "count"}, {"serve.rejected", "count"},
	{"store.result_get_us", "us"}, {"store.result_put_us", "us"}, {"store.result_hit_ratio", "ratio"},
	{"store.revision_get_us", "us"}, {"store.revision_put_us", "us"},
	{"cluster.front_self_ms", "ms"}, {"cluster.peer_fetch_ms", "ms"}, {"cluster.peer_fetch_hit_ratio", "ratio"},
	{"cluster.reroutes", "count"}, {"cluster.converge_s", "s"}, {"placement.owner_ns", "ns"},
	{"bench.unattributed_frac", "ratio"}, {"bench.trace_overhead_frac", "ratio"},
}

var endToEnd = []string{"p50_ms", "p90_ms", "ops_per_s", "cpu_ms_per_op", "cert_gap", "peak_rss_mb", "setup_s"}

type workload interface {
	run(cfg runConfig) (*report, error)
}

func lookup(name string) (workload, error) {
	switch name {
	case "dense-solve":
		return denseSolve(), nil
	case "sparse-solve":
		return sparseSolve(), nil
	case "serve-mix":
		return serveMix(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want dense-solve, sparse-solve or serve-mix)", name)
}

func main() {
	name := flag.String("workload", "", "dense-solve, sparse-solve or serve-mix")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()

	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1,
		spansPath: filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *name, *seed))}
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, *name, cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if rep.failed > 0 || rep.attempted == 0 {
		os.Exit(1)
	}
}

// emit prints the notes, a metric table and, last, the JSON result.
func emit(f *os.File, name string, cfg runConfig, rep *report) error {
	names := endToEnd
	if cfg.trace {
		names = nil
		for _, m := range perLayer {
			names = append(names, m[0])
			if _, ok := rep.metrics[m[0]]; !ok {
				rep.set(m[0], 0, m[1])
			}
		}
	}
	fmt.Fprintf(f, "# %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d NumCPU=%d %s\n",
		name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	for _, n := range rep.notes {
		fmt.Fprintln(f, "#", n)
	}
	for _, r := range rep.reasons {
		fmt.Fprintln(f, "# FAILED:", r)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, make(map[string]metric)}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for _, n := range sorted {
		m := rep.metrics[n]
		out.Metrics[n] = m
		fmt.Fprintf(f, "# %-30s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(b))
	return err
}
