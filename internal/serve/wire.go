package serve

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/matrix"
)

// Num is a float64 that survives JSON for every value the solver can
// produce: finite values marshal as ordinary numbers (Go's shortest
// round-trip decimal, so decoding restores the exact bit pattern) and
// the IEEE specials marshal as the quoted strings "+Inf", "-Inf",
// "NaN" instead of failing the whole response.
type Num float64

// MarshalJSON implements json.Marshaler.
func (v Num) MarshalJSON() ([]byte, error) {
	f := float64(v)
	switch {
	case math.IsInf(f, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(f, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(f):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(f)
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Num) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf", "Infinity":
			*v = Num(math.Inf(1))
		case "-Inf", "-Infinity":
			*v = Num(math.Inf(-1))
		case "NaN":
			*v = Num(math.NaN())
		default:
			return fmt.Errorf("serve: invalid numeric string %q", s)
		}
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*v = Num(f)
	return nil
}

// Request is the body of every solve endpoint. /v1/decision and
// /v1/maximize require Instance; /v1/mixed requires an Instance whose
// mixed section is set; /v1/solve requires Program. Kind is only
// meaningful inside /v1/batch items, where it selects the endpoint
// ("decision", "maximize", "solve", or "mixed"). Each kind honours only
// the optional solver fields its solver reads (kindSpec.honours) and
// rejects the others when set.
type Request struct {
	Kind     string           `json:"kind,omitempty"`
	Instance *instio.Instance `json:"instance,omitempty"`
	Program  *ProgramDoc      `json:"program,omitempty"`
	// Eps is the target relative accuracy in (0, 1).
	Eps float64 `json:"eps"`
	// Seed drives all solver randomness; together with the canonical
	// instance it is part of the cache identity, so the same (instance,
	// eps, seed) always returns bitwise-identical bytes.
	Seed uint64 `json:"seed"`
	// Scale multiplies every constraint (WithScale); 0 means 1.
	Scale float64 `json:"scale,omitempty"`
	// Oracle is "" or "auto", "dense", "jl", "exact".
	Oracle string `json:"oracle,omitempty"`
	// Engine selects the iteration dynamics: "mmw" (Algorithm 3.1),
	// "alo" (the arXiv:1507.02259 truncated-gradient engine), "auto"
	// (per-instance selection), or "" for the server's default. The
	// effective engine is part of the cache identity: the two engines
	// produce different (both certified) bytes for the same instance,
	// so an mmw result must never answer an alo request.
	Engine string `json:"engine,omitempty"`
	// MaxIter caps decision iterations; 0 means the paper's R.
	MaxIter int `json:"maxIter,omitempty"`
	// Bucketed enables the dynamic-bucketing update.
	Bucketed bool `json:"bucketed,omitempty"`
	// TheoryExact disables early certificate exits.
	TheoryExact bool `json:"theoryExact,omitempty"`
	// SketchEps is the JL sketch accuracy; 0 means the default.
	SketchEps float64 `json:"sketchEps,omitempty"`
	// TimeoutMs overrides the server's default per-request deadline
	// (capped by its maximum). It is NOT part of the cache digest: a
	// deadline changes when a result arrives, never what it is.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

// scaleOrOne returns the effective constraint scale.
func (r *Request) scaleOrOne() float64 {
	if r.Scale == 0 {
		return 1
	}
	return r.Scale
}

// coreOptions maps the wire fields to solver options (workspace and
// context are filled in by the worker).
func (r *Request) coreOptions() (core.Options, error) {
	opts := core.Options{
		Seed:        r.Seed,
		MaxIter:     r.MaxIter,
		Bucketed:    r.Bucketed,
		TheoryExact: r.TheoryExact,
		SketchEps:   r.SketchEps,
	}
	switch r.Oracle {
	case "", "auto":
		opts.Oracle = core.OracleAuto
	case "dense":
		opts.Oracle = core.OracleDenseExact
	case "jl":
		opts.Oracle = core.OracleFactoredJL
	case "exact":
		opts.Oracle = core.OracleFactoredExact
	default:
		return opts, fmt.Errorf("serve: unknown oracle %q (want auto, dense, jl, or exact)", r.Oracle)
	}
	switch r.Engine {
	case "":
		// Server default; prepare substitutes Config.DefaultEngine.
	case core.EngineNameMMW:
		opts.Engine = core.EngineMMW
	case core.EngineNameALO:
		opts.Engine = core.EngineALO
	case "auto":
		opts.Engine = core.EngineAuto
	default:
		return opts, fmt.Errorf("serve: unknown engine %q (want mmw, alo, or auto)", r.Engine)
	}
	return opts, nil
}

// ProgramDoc is the wire form of a general positive SDP (equation 1.1):
// minimize C•Y subject to Aᵢ•Y ≥ bᵢ, Y ≽ 0.
type ProgramDoc struct {
	C [][]float64   `json:"c"`
	A [][][]float64 `json:"a"`
	B []float64     `json:"b"`
}

// build validates shapes and converts to the core form. Entry-level
// validation (symmetry, NaN rejection) happens in core.
func (p *ProgramDoc) build() (*core.Program, error) {
	if len(p.C) == 0 {
		return nil, fmt.Errorf("serve: program needs a c matrix")
	}
	c, err := denseFromRows(p.C, "c")
	if err != nil {
		return nil, err
	}
	as := make([]*matrix.Dense, len(p.A))
	for i, rows := range p.A {
		if as[i], err = denseFromRows(rows, fmt.Sprintf("a[%d]", i)); err != nil {
			return nil, err
		}
	}
	return &core.Program{C: c, A: as, B: p.B}, nil
}

// denseFromRows is matrix.FromRows with rejection instead of panics on
// ragged input (wire data is untrusted).
func denseFromRows(rows [][]float64, what string) (*matrix.Dense, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("serve: %s has no rows", what)
	}
	cols := len(rows[0])
	for i, row := range rows {
		if len(row) != cols {
			return nil, fmt.Errorf("serve: %s row %d has %d entries, want %d", what, i, len(row), cols)
		}
	}
	return matrix.FromRows(rows), nil
}

// DecisionResponse is the /v1/decision result: one ε-decision call with
// its certified bracket and witness.
type DecisionResponse struct {
	Kind         string    `json:"kind"`
	Eps          float64   `json:"eps"`
	Outcome      string    `json:"outcome"`
	Iterations   int       `json:"iterations"`
	Lower        Num       `json:"lower"`
	Upper        Num       `json:"upper"`
	RelativeGap  Num       `json:"relativeGap"`
	X            []float64 `json:"x"`
	LambdaMaxPsi Num       `json:"lambdaMaxPsi"`
	MaxPsiNorm   Num       `json:"maxPsiNorm"`
}

// MaximizeResponse is the /v1/maximize result: the certified bracket
// around the packing optimum and the best feasible witness.
type MaximizeResponse struct {
	Kind            string    `json:"kind"`
	Eps             float64   `json:"eps"`
	Value           Num       `json:"value"`
	Lower           Num       `json:"lower"`
	Upper           Num       `json:"upper"`
	RelativeGap     Num       `json:"relativeGap"`
	X               []float64 `json:"x"`
	DecisionCalls   int       `json:"decisionCalls"`
	TotalIterations int       `json:"totalIterations"`
}

// SolveResponse is the /v1/solve result for a general positive SDP.
type SolveResponse struct {
	Kind            string    `json:"kind"`
	Eps             float64   `json:"eps"`
	Lower           Num       `json:"lower"`
	Upper           Num       `json:"upper"`
	DualX           []float64 `json:"dualX"`
	Objective       Num       `json:"objective,omitempty"`
	DecisionCalls   int       `json:"decisionCalls"`
	TotalIterations int       `json:"totalIterations"`
}

// MixedResponse is the /v1/mixed result: a VERIFIED bicriteria point of
// the mixed packing/covering system (status "feasible" means coverage
// ≥ 1−ε and λ_max ≤ 1+10ε were both checked numerically) or the best
// iterate with its measured violations (status "inconclusive").
type MixedResponse struct {
	Kind        string    `json:"kind"`
	Eps         float64   `json:"eps"`
	Status      string    `json:"status"`
	Engine      string    `json:"engine"`
	Iterations  int       `json:"iterations"`
	Capped      int       `json:"capped"`
	WarmStarted bool      `json:"warmStarted,omitempty"`
	MinCoverage Num       `json:"minCoverage"`
	LambdaMax   Num       `json:"lambdaMax"`
	X           []float64 `json:"x"`
}

// iterCount reports the solver iterations behind a response — the
// deterministic quantity the X-Psdpd-Iterations header carries (and the
// cache stores, so hits repeat it exactly).
func (r *DecisionResponse) iterCount() int { return r.Iterations }
func (r *MaximizeResponse) iterCount() int { return r.TotalIterations }
func (r *SolveResponse) iterCount() int    { return r.TotalIterations }
func (r *MixedResponse) iterCount() int    { return r.Iterations }

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// BatchRequest is the /v1/batch body: independent solve requests
// admitted concurrently through the same queue, cache, and dedup path
// as the single-shot endpoints.
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// BatchItemResult is one batch item's outcome. Status mirrors the HTTP
// code the item would have received standalone (200, 400, 429, 504, …);
// Response carries the marshaled success body; Cache is "hit", "miss",
// or "shared" (singleflight follower).
type BatchItemResult struct {
	Status   int             `json:"status"`
	Cache    string          `json:"cache,omitempty"`
	Error    string          `json:"error,omitempty"`
	Response json.RawMessage `json:"response,omitempty"`
}

// BatchResponse is the /v1/batch result, one entry per request in
// order.
type BatchResponse struct {
	Responses []BatchItemResult `json:"responses"`
}

// StatsResponse is the /statsz document.
type StatsResponse struct {
	Requests int64 `json:"requests"`
	// Admitted counts solve attempts that passed every validation gate
	// and entered the pipeline — one per single-shot request, one per
	// /v1/batch item (a batch bumps Requests once but Admitted once per
	// valid item). Malformed/rejected payloads never move it, nor the
	// per-representation counters below.
	Admitted     int64 `json:"admitted"`
	Solves       int64 `json:"solves"`
	CacheHits    int64 `json:"cacheHits"`
	CacheEntries int   `json:"cacheEntries"`
	// BodyMemoHits counts solve requests answered through the body memo:
	// a byte-identical repeat of an accepted body whose answer was still
	// stored, served with no decode, build or digest.
	BodyMemoHits int64 `json:"bodyMemoHits"`
	DedupShared  int64 `json:"dedupShared"`
	Rejected     int64 `json:"rejected"`
	Cancelled    int64 `json:"cancelled"`
	Errors       int64 `json:"errors"`
	InFlight     int64 `json:"inFlight"`
	QueueDepth   int   `json:"queueDepth"`
	PoolExecuted int64 `json:"poolExecuted"`
	PoolSkipped  int64 `json:"poolSkipped"`
	PoolMisses   int64 `json:"poolMisses"`
	// ShardPoolMisses is PoolMisses broken out per shard (digest routing
	// pins instance shapes to shards, so a flat per-shard counter means
	// warm workspaces are being reused, never re-grown).
	ShardPoolMisses []int64 `json:"shardPoolMisses"`
	// Per-representation counts of admitted solve requests.
	RequestsDense    int64 `json:"requestsDense"`
	RequestsFactored int64 `json:"requestsFactored"`
	RequestsSparse   int64 `json:"requestsSparse"`
	RequestsProgram  int64 `json:"requestsProgram"`
	// Mixed requests count under their packing representation in their
	// own family: the three sum to the admitted /v1/mixed requests.
	RequestsMixedDense    int64 `json:"requestsMixedDense"`
	RequestsMixedFactored int64 `json:"requestsMixedFactored"`
	RequestsMixedSparse   int64 `json:"requestsMixedSparse"`
	// Per-engine counts of admitted solve requests, keyed by the
	// effective engine: the server default substituted for an empty
	// engine field, and "auto" resolved to its concrete pick for
	// decision requests (maximize/solve count under "auto" because
	// their inner decision calls re-resolve per call).
	RequestsMMW  int64 `json:"requestsEngineMMW"`
	RequestsALO  int64 `json:"requestsEngineALO"`
	RequestsAuto int64 `json:"requestsEngineAuto"`
	// Incremental solving (/v1/delta): admitted delta requests, 404s on
	// unknown/evicted bases, how many delta solves actually warm-started
	// versus fell back to a cold start, the revision-store population,
	// and the most recent lineage records (newest first).
	DeltaRequests   int64          `json:"deltaRequests"`
	DeltaBaseMisses int64          `json:"deltaBaseMisses"`
	WarmStarts      int64          `json:"warmStarts"`
	ColdFallbacks   int64          `json:"coldFallbacks"`
	Revisions       int            `json:"revisions"`
	DeltaLineage    []LineageEntry `json:"deltaLineage,omitempty"`
	// Solver phase telemetry aggregated across every solve this process
	// has run (core.SolveStats): total iterations and wall nanoseconds
	// split into oracle application, the expm/Lanczos primitives inside
	// it, coordinate updates, and certificate/B-set bookkeeping.
	SolverIterations int64 `json:"solverIterations"`
	SolverOracleNS   int64 `json:"solverOracleNs"`
	SolverExpmNS     int64 `json:"solverExpmNs"`
	SolverUpdateNS   int64 `json:"solverUpdateNs"`
	SolverBookkeepNS int64 `json:"solverBookkeepNs"`
	UptimeSeconds    int64 `json:"uptimeSeconds"`
	// Cluster tier: whether this replica is draining, how many solve
	// requests it has 307-redirected to peers since drain began, and —
	// when the daemon runs in cluster mode — the membership view and
	// per-peer counters sampled from the cluster wiring.
	Draining       bool  `json:"draining,omitempty"`
	DrainRedirects int64 `json:"drainRedirects,omitempty"`
	Cluster        any   `json:"cluster,omitempty"`
}
