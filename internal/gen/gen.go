// Package gen generates the workload families used across the
// experiment suite (E1–E16; `psdpbench -list` names them, README's
// Benchmarks section says how to run them):
//
//   - random dense/factored packing instances (E1, E2, E6, E7),
//   - instances with closed-form optima — identical, orthogonal rank-1,
//     diagonal/LP (E4, E10),
//   - width-controlled families where maxᵢ λ_max(Aᵢ) is a free dial (E3),
//   - the Figure 1 ellipse-packing instance (E9),
//   - synthetic beamforming covering SDPs after [IPS10] (the application
//     the paper cites as fitting the packing framework), and
//   - graph edge-Laplacian packing (sparse rank-one factored workloads).
package gen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/sparse"
)

// Dense is a generated dense instance; OPT is NaN when unknown.
type Dense struct {
	A   []*matrix.Dense
	OPT float64
	// Name labels the family for experiment tables.
	Name string
}

// Factored is a generated factored instance; OPT is NaN when unknown.
type Factored struct {
	Q    []*sparse.CSC
	OPT  float64
	Name string
}

// RandomPSD returns one m-by-m PSD matrix G·Gᵀ with G m-by-rank
// standard Gaussian.
func RandomPSD(m, rank int, rng *rand.Rand) *matrix.Dense {
	if rank <= 0 {
		rank = m
	}
	g := matrix.New(m, rank)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	return matrix.MulABT(g, g, nil)
}

// RandomDense generates n random PSD constraints of dimension m and
// rank ≤ rank. OPT unknown.
func RandomDense(n, m, rank int, rng *rand.Rand) *Dense {
	as := make([]*matrix.Dense, n)
	for i := range as {
		as[i] = RandomPSD(m, rank, rng)
	}
	return &Dense{A: as, OPT: math.NaN(), Name: fmt.Sprintf("random-dense(n=%d,m=%d,r=%d)", n, m, rank)}
}

// Identical generates n copies of one random PSD matrix; the packing
// optimum is exactly 1/λ_max(A) (only Σxᵢ matters). lambdaMax is
// computed by the caller's eigensolver to keep this package dependency-
// light, so OPT here is returned via the provided lambdaMax.
func Identical(n, m int, rng *rand.Rand, lambdaMax func(*matrix.Dense) float64) *Dense {
	a := RandomPSD(m, m, rng)
	as := make([]*matrix.Dense, n)
	for i := range as {
		as[i] = a
	}
	return &Dense{A: as, OPT: 1 / lambdaMax(a), Name: fmt.Sprintf("identical(n=%d,m=%d)", n, m)}
}

// OrthogonalRankOne generates Aᵢ = vᵢvᵢᵀ with mutually orthogonal vᵢ
// (n ≤ m required): the constraints decouple and
// OPT = Σᵢ 1/‖vᵢ‖² exactly.
func OrthogonalRankOne(n, m int, rng *rand.Rand) (*Dense, error) {
	if n > m {
		return nil, fmt.Errorf("gen: OrthogonalRankOne needs n ≤ m, got n=%d m=%d", n, m)
	}
	vs := make([][]float64, n)
	for i := range vs {
		v := make([]float64, m)
		for {
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			for k := 0; k < i; k++ {
				matrix.VecAXPY(v, -matrix.VecDot(v, vs[k])/matrix.VecDot(vs[k], vs[k]), vs[k])
			}
			if matrix.VecNorm2(v) > 1e-6 {
				break
			}
		}
		matrix.VecScale(v, 0.5+2*rng.Float64(), v)
		vs[i] = v
	}
	opt := 0.0
	as := make([]*matrix.Dense, n)
	for i, v := range vs {
		as[i] = matrix.OuterProduct(1, v)
		opt += 1 / matrix.VecDot(v, v)
	}
	return &Dense{A: as, OPT: opt, Name: fmt.Sprintf("orth-rank1(n=%d,m=%d)", n, m)}, nil
}

// DiagonalLP generates diagonal constraints Aᵢ = diag(pᵢ) from a random
// nonnegative d-by-n LP matrix (density controls sparsity). It returns
// both the SDP view and the raw LP matrix so LP solvers can cross-check
// (experiment E10). OPT is left NaN — the simplex reference computes it.
func DiagonalLP(n, d int, density float64, rng *rand.Rand) (*Dense, *matrix.Dense) {
	p := matrix.New(d, n)
	for i := range p.Data {
		if rng.Float64() < density {
			p.Data[i] = rng.Float64()
		}
	}
	for i := 0; i < n; i++ {
		p.Set(rng.IntN(d), i, 0.3+rng.Float64())
	}
	as := make([]*matrix.Dense, n)
	for i := 0; i < n; i++ {
		as[i] = matrix.Diag(p.Col(i))
	}
	return &Dense{A: as, OPT: math.NaN(), Name: fmt.Sprintf("diag-lp(n=%d,d=%d)", n, d)}, p
}

// WidthFamily generates an instance whose width parameter
// maxᵢ λ_max(Aᵢ) is exactly `width` while the optimum stays Θ(1):
// constraint 0 is width·e₀e₀ᵀ and the remaining n−1 constraints are
// I/(n−1)-ish plates on the complementary block. The optimum is
// dominated by the well-conditioned constraints; the spike forces
// width-dependent methods to take Ω(width) iterations while
// Algorithm 3.1 is untouched (experiment E3).
func WidthFamily(n, m int, width float64, rng *rand.Rand) (*Dense, error) {
	if n < 2 || m < 2 {
		return nil, fmt.Errorf("gen: WidthFamily needs n, m ≥ 2")
	}
	if width <= 0 {
		return nil, fmt.Errorf("gen: width %v must be positive", width)
	}
	as := make([]*matrix.Dense, n)
	spike := matrix.New(m, m)
	spike.Set(0, 0, width)
	as[0] = spike
	// Remaining constraints: diagonal plates on coordinates 1..m-1 with
	// mild random variation, λ_max ≈ 1.
	for i := 1; i < n; i++ {
		d := make([]float64, m)
		for j := 1; j < m; j++ {
			d[j] = 0.5 + 0.5*rng.Float64()
		}
		as[i] = matrix.Diag(d)
	}
	return &Dense{A: as, OPT: math.NaN(), Name: fmt.Sprintf("width(n=%d,m=%d,w=%g)", n, m, width)}, nil
}

// WidthFamilyExact is the deterministic width family used by the E3
// sweep: constraint 0 is width·e₀e₀ᵀ and constraints 1..n-1 are the
// all-ones diagonal plate on coordinates 1..m-1. The packing optimum is
// exactly 1/width + 1 (coordinate 0 contributes x₀ = 1/width; the
// plates share a unit budget), while the width parameter
// maxᵢ λ_max(Aᵢ) = width is a free dial.
func WidthFamilyExact(n, m int, width float64) (*Dense, error) {
	if n < 2 || m < 2 {
		return nil, fmt.Errorf("gen: WidthFamilyExact needs n, m ≥ 2")
	}
	if width <= 0 {
		return nil, fmt.Errorf("gen: width %v must be positive", width)
	}
	as := make([]*matrix.Dense, n)
	spike := matrix.New(m, m)
	spike.Set(0, 0, width)
	as[0] = spike
	d := make([]float64, m)
	for j := 1; j < m; j++ {
		d[j] = 1
	}
	plate := matrix.Diag(d)
	for i := 1; i < n; i++ {
		as[i] = plate
	}
	return &Dense{A: as, OPT: 1 + 1/width, Name: fmt.Sprintf("width-exact(n=%d,m=%d,w=%g)", n, m, width)}, nil
}

// Ellipse2D builds the 3-ellipse instance of the paper's Figure 1: two
// axis-aligned ellipses A₁, A₂ and one rotated ellipse A₃ in 2
// dimensions. The figure illustrates why general (non-axis-aligned)
// ellipsoids force the matrix MW machinery: A₁+A₂ stays axis-aligned
// but adding A₃ does not.
func Ellipse2D() *Dense {
	a1 := matrix.Diag([]float64{1, 0.25})
	a2 := matrix.Diag([]float64{0.25, 1})
	// A₃: a smaller ellipse rotated 45°: R·diag(0.4, 0.1)·Rᵀ. Small
	// enough that the optimal packing genuinely mixes it with A₁, A₂.
	c := math.Cos(math.Pi / 4)
	s := math.Sin(math.Pi / 4)
	r := matrix.FromRows([][]float64{{c, -s}, {s, c}})
	a3 := matrix.MulAB(matrix.MulAB(r, matrix.Diag([]float64{0.4, 0.1}), nil), r.T(), nil)
	a3.Symmetrize()
	return &Dense{A: []*matrix.Dense{a1, a2, a3}, OPT: math.NaN(), Name: "figure1-ellipses"}
}

// Beamforming builds a synthetic downlink-beamforming covering SDP in
// the style the paper attributes to [IPS10]: n users with Gaussian
// channel vectors hᵢ ∈ R^m (m antennas) and SINR-style thresholds γᵢ.
// In normalized packing form the constraints are the rank-one factors
// Qᵢ = hᵢ/√γᵢ (so Aᵢ = hᵢhᵢᵀ/γᵢ), exercising exactly the factored
// rank-one fast path. OPT unknown in general.
func Beamforming(nUsers, mAntennas int, rng *rand.Rand) (*Factored, error) {
	if nUsers <= 0 || mAntennas <= 0 {
		return nil, fmt.Errorf("gen: Beamforming(%d, %d): sizes must be positive", nUsers, mAntennas)
	}
	qs := make([]*sparse.CSC, nUsers)
	for i := range qs {
		gamma := 0.5 + 1.5*rng.Float64() // SINR target spread
		col := make([]float64, mAntennas)
		for j := range col {
			col[j] = rng.NormFloat64() / math.Sqrt(gamma)
		}
		q, err := sparse.CSCFromColumns(mAntennas, [][]float64{col}, 0)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return &Factored{Q: qs, OPT: math.NaN(), Name: fmt.Sprintf("beamforming(n=%d,m=%d)", nUsers, mAntennas)}, nil
}

// GraphEdgePacking builds the edge-Laplacian packing instance of a
// graph: Aₑ = bₑbₑᵀ with bₑ = e_u − e_v. Each factor has exactly two
// nonzeros, so q = 2·|E| — the sparsest interesting workload for the
// Theorem 4.1 cost model. OPT unknown in general (vertex-transitive
// graphs have symmetric optima; tests use explicit certificates).
func GraphEdgePacking(g *graph.Graph) (*Factored, error) {
	qs, err := g.EdgeFactors()
	if err != nil {
		return nil, err
	}
	return &Factored{Q: qs, OPT: math.NaN(), Name: fmt.Sprintf("edge-packing(n=%d,m=%d)", g.N, g.M())}, nil
}

// Sparse is a generated general-sparse instance (each constraint a
// symmetric sparse matrix); OPT is NaN when unknown.
type Sparse struct {
	A    []*sparse.CSC
	OPT  float64
	Name string
}

// SparseEdgePacking builds the edge-Laplacian packing instance of a
// graph in the general-sparse representation: Aₑ = bₑbₑᵀ stored as an
// explicit symmetric matrix with four nonzeros. Identical mathematics
// to GraphEdgePacking (the factored form), so the two make a natural
// cross-representation equivalence pair; total nnz is 4·|E| versus the
// factored 2·|E|.
func SparseEdgePacking(g *graph.Graph) (*Sparse, error) {
	if g.M() == 0 {
		return nil, fmt.Errorf("gen: SparseEdgePacking: graph has no edges")
	}
	as := make([]*sparse.CSC, g.M())
	for k := range g.Edges {
		a, err := g.EdgeLaplacian(k, 1)
		if err != nil {
			return nil, err
		}
		as[k] = a
	}
	return &Sparse{A: as, OPT: math.NaN(), Name: fmt.Sprintf("sparse-edge-packing(n=%d,m=%d)", g.N, g.M())}, nil
}

// SparseGroupedLaplacians partitions the edges of a graph into `groups`
// random groups and makes each group's subgraph Laplacian one sparse
// constraint: n = groups constraints of ~4|E|/groups nonzeros each —
// the knob workload for nnz-density scaling of the sparse kernels.
func SparseGroupedLaplacians(g *graph.Graph, groups int, rng *rand.Rand) (*Sparse, error) {
	if groups <= 0 || groups > g.M() {
		return nil, fmt.Errorf("gen: SparseGroupedLaplacians: groups=%d out of [1, %d]", groups, g.M())
	}
	perm := rng.Perm(g.M())
	buckets := make([][]int, groups)
	for i, k := range perm {
		buckets[i%groups] = append(buckets[i%groups], k)
	}
	as := make([]*sparse.CSC, groups)
	for i, idx := range buckets {
		a, err := g.SubgraphLaplacian(idx)
		if err != nil {
			return nil, err
		}
		as[i] = a
	}
	return &Sparse{A: as, OPT: math.NaN(), Name: fmt.Sprintf("sparse-grouped-laplacian(n=%d,m=%d,groups=%d)", g.N, g.M(), groups)}, nil
}

// RandomFactored generates n factored constraints, each with cols
// columns of nnzPerCol random nonzeros — the knob workload for the
// work-vs-q scaling experiments (E6, E7).
func RandomFactored(n, m, cols, nnzPerCol int, rng *rand.Rand) (*Factored, error) {
	if cols <= 0 || nnzPerCol <= 0 || nnzPerCol > m {
		return nil, fmt.Errorf("gen: RandomFactored: bad cols=%d nnzPerCol=%d", cols, nnzPerCol)
	}
	qs := make([]*sparse.CSC, n)
	for i := range qs {
		var trips []sparse.Triplet
		for c := 0; c < cols; c++ {
			seen := map[int]bool{}
			for len(seen) < nnzPerCol {
				r := rng.IntN(m)
				if !seen[r] {
					seen[r] = true
					trips = append(trips, sparse.Triplet{Row: r, Col: c, Val: rng.NormFloat64()})
				}
			}
		}
		q, err := sparse.NewCSC(m, cols, trips)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return &Factored{Q: qs, OPT: math.NaN(), Name: fmt.Sprintf("random-factored(n=%d,m=%d,c=%d,z=%d)", n, m, cols, nnzPerCol)}, nil
}

// MixedLP is a generated mixed packing/covering instance with DIAGONAL
// packing constraints — the "positive covering LP + one matrix packing
// constraint" class the paper's §5 describes. Witness is the point the
// construction was scaled around: C·Witness ≥ 1.5·1 entrywise and
// λ_max(Σ WitnessᵢAᵢ) < 1 exactly (diagonal sums), so the instance is
// bicriteria-feasible with margin at every ε.
type MixedLP struct {
	A       []*matrix.Dense
	C       *matrix.Dense
	Witness []float64
	Name    string
}

// MixedCoveringLP generates n diagonal packing constraints of dimension
// m and d covering rows, scaled around a random interior witness: draw
// x* and random nonnegative diagonals, normalize x* so the packed
// diagonal sum stays strictly inside the unit ball, then scale each
// covering row to demand 1.5 at x*. density controls the fill of both
// the diagonals and the covering rows.
func MixedCoveringLP(n, m, d int, density float64, rng *rand.Rand) (*MixedLP, error) {
	if n <= 0 || m <= 0 || d <= 0 {
		return nil, fmt.Errorf("gen: MixedCoveringLP(%d, %d, %d): sizes must be positive", n, m, d)
	}
	p := matrix.New(m, n) // column i = diag of Aᵢ
	for i := range p.Data {
		if rng.Float64() < density {
			p.Data[i] = rng.Float64()
		}
	}
	for i := 0; i < n; i++ {
		p.Set(rng.IntN(m), i, 0.3+rng.Float64()) // no zero-trace constraints
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 0.5 + rng.Float64()
	}
	// λ_max(Σ xᵢAᵢ) is exactly the max packed diagonal entry; scale the
	// witness to park it at 1/1.05.
	lam := 0.0
	for j := 0; j < m; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += xs[i] * p.At(j, i)
		}
		lam = math.Max(lam, s)
	}
	matrix.VecScale(xs, 1/(1.05*lam), xs)
	cov, err := coverAround(n, d, density, xs, rng)
	if err != nil {
		return nil, err
	}
	as := make([]*matrix.Dense, n)
	for i := 0; i < n; i++ {
		as[i] = matrix.Diag(p.Col(i))
	}
	return &MixedLP{A: as, C: cov, Witness: xs,
		Name: fmt.Sprintf("mixed-covering-lp(n=%d,m=%d,d=%d)", n, m, d)}, nil
}

// MixedSparse is a generated mixed instance with general-sparse packing
// constraints. The witness satisfies Σ Witnessᵢ·Tr[Aᵢ] < 1 (trace
// dominates λ_max, so the packing side holds with margin) and
// C·Witness ≥ 1.5·1.
type MixedSparse struct {
	A       []*sparse.CSC
	C       *matrix.Dense
	Witness []float64
	Name    string
}

// MixedGraphCovering is graph packing with covering demands: the
// packing side is the grouped-Laplacian family (groups constraints over
// the graph's edges) and d covering rows demand weight across random
// subsets of the groups — "pack the subgraphs inside the unit ball
// while every demand row is served". The witness is scaled through the
// trace bound λ_max ≤ Tr, so feasibility survives any grouping.
func MixedGraphCovering(g *graph.Graph, groups, d int, rng *rand.Rand) (*MixedSparse, error) {
	if d <= 0 {
		return nil, fmt.Errorf("gen: MixedGraphCovering: d=%d covering rows must be positive", d)
	}
	pack, err := SparseGroupedLaplacians(g, groups, rng)
	if err != nil {
		return nil, err
	}
	n := len(pack.A)
	xs := make([]float64, n)
	for i, a := range pack.A {
		tr := 0.0
		for j := 0; j < a.C; j++ {
			for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
				if a.Row[k] == j {
					tr += a.Val[k]
				}
			}
		}
		if tr <= 0 {
			return nil, fmt.Errorf("gen: MixedGraphCovering: group %d has non-positive trace %v", i, tr)
		}
		xs[i] = 1 / (1.05 * float64(n) * tr)
	}
	cov, err := coverAround(n, d, 0.6, xs, rng)
	if err != nil {
		return nil, err
	}
	return &MixedSparse{A: pack.A, C: cov, Witness: xs,
		Name: fmt.Sprintf("mixed-graph-covering(n=%d,m=%d,d=%d)", n, g.N, d)}, nil
}

// coverAround builds a d-by-n nonnegative covering matrix scaled so
// C·xs = 1.5·1 exactly: random nonnegative rows (each with at least one
// positive entry) normalized against the witness.
func coverAround(n, d int, density float64, xs []float64, rng *rand.Rand) (*matrix.Dense, error) {
	cov := matrix.New(d, n)
	for j := 0; j < d; j++ {
		row := cov.Row(j)
		for i := 0; i < n; i++ {
			if rng.Float64() < density {
				row[i] = 0.5 + rng.Float64()
			}
		}
		row[rng.IntN(n)] = 0.5 + rng.Float64() // no all-zero rows
		t := matrix.VecDot(row, xs)
		if t <= 0 || math.IsInf(t, 0) || math.IsNaN(t) {
			return nil, fmt.Errorf("gen: covering row %d has invalid demand %v at the witness", j, t)
		}
		matrix.VecScale(row, 1.5/t, row)
	}
	return cov, nil
}

// DriftScales is the drifting-instance workload driver: a deterministic
// per-constraint scale perturbation for incremental (warm-started)
// serving benchmarks. A fraction frac of the n constraints — at least
// one — is selected without replacement and each gets a multiplier
// drawn uniformly from [1−drift, 1+drift]; the rest are untouched.
// Positive multipliers preserve symmetry and positive semidefiniteness,
// so any drifted revision of a valid packing instance is again valid —
// which is why drift is clamped into [0, 0.99]: a bound ≥ 1 could draw
// zero or negative multipliers and silently flip a constraint off the
// PSD cone.
func DriftScales(n int, frac, drift float64, rng *rand.Rand) (idx []int, by []float64) {
	if n <= 0 {
		return nil, nil
	}
	if drift < 0 {
		drift = 0
	}
	if drift > 0.99 {
		drift = 0.99
	}
	k := int(math.Round(frac * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	perm := rng.Perm(n)[:k]
	// Deterministic output order: ascending constraint index.
	sort.Ints(perm)
	by = make([]float64, k)
	for i := range by {
		by[i] = 1 + drift*(2*rng.Float64()-1)
	}
	return perm, by
}
