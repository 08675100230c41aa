// Package graph provides the small graph substrate feeding the
// solver's workload generators: edge-Laplacian packing SDPs are the
// natural sparse rank-one factored instances for the Theorem 4.1 cost
// model (each constraint factor is one ±1 column with two nonzeros).
package graph

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/matrix"
	"repro/internal/sparse"
)

// Graph is a simple undirected graph on vertices 0..N-1.
type Graph struct {
	N     int
	Edges [][2]int
}

// ErdosRenyi samples G(n, p). Isolated vertices are allowed; duplicate
// edges are not.
func ErdosRenyi(n int, p float64, rng *rand.Rand) *Graph {
	g := &Graph{N: n}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.Edges = append(g.Edges, [2]int{u, v})
			}
		}
	}
	return g
}

// Cycle returns the n-cycle (n >= 3).
func Cycle(n int) *Graph {
	g := &Graph{N: n}
	for u := 0; u < n; u++ {
		g.Edges = append(g.Edges, [2]int{u, (u + 1) % n})
	}
	return g
}

// Path returns the n-vertex path.
func Path(n int) *Graph {
	g := &Graph{N: n}
	for u := 0; u+1 < n; u++ {
		g.Edges = append(g.Edges, [2]int{u, u + 1})
	}
	return g
}

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *Graph {
	g := &Graph{N: rows * cols}
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.Edges = append(g.Edges, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				g.Edges = append(g.Edges, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	return g
}

// M returns the number of edges.
func (g *Graph) M() int { return len(g.Edges) }

// Degrees returns the vertex degree vector.
func (g *Graph) Degrees() []int {
	d := make([]int, g.N)
	for _, e := range g.Edges {
		d[e[0]]++
		d[e[1]]++
	}
	return d
}

// Laplacian returns the dense graph Laplacian L = D − A.
func (g *Graph) Laplacian() *matrix.Dense {
	l := matrix.New(g.N, g.N)
	for _, e := range g.Edges {
		u, v := e[0], e[1]
		l.Data[u*g.N+u]++
		l.Data[v*g.N+v]++
		l.Data[u*g.N+v]--
		l.Data[v*g.N+u]--
	}
	return l
}

// EdgeFactor returns the sparse single-column factor b_e = e_u − e_v of
// the edge Laplacian L_e = b_e·b_eᵀ for edge index k, optionally scaled
// by weight w (the factor is scaled by √w so L_e is scaled by w).
func (g *Graph) EdgeFactor(k int, w float64) (*sparse.CSC, error) {
	if k < 0 || k >= len(g.Edges) {
		return nil, fmt.Errorf("graph: edge index %d out of range", k)
	}
	if w <= 0 {
		return nil, fmt.Errorf("graph: edge weight %v must be positive", w)
	}
	e := g.Edges[k]
	s := math.Sqrt(w)
	return sparse.NewCSC(g.N, 1, []sparse.Triplet{
		{Row: e[0], Col: 0, Val: s},
		{Row: e[1], Col: 0, Val: -s},
	})
}

// EdgeLaplacian returns the sparse symmetric edge Laplacian
// L_e = w·b_e·b_eᵀ for edge index k: four stored entries
// (w at (u,u) and (v,v), −w at (u,v) and (v,u)) — the general-sparse
// counterpart of EdgeFactor for solvers consuming symmetric matrices
// directly instead of factors.
func (g *Graph) EdgeLaplacian(k int, w float64) (*sparse.CSC, error) {
	if k < 0 || k >= len(g.Edges) {
		return nil, fmt.Errorf("graph: edge index %d out of range", k)
	}
	if w <= 0 {
		return nil, fmt.Errorf("graph: edge weight %v must be positive", w)
	}
	e := g.Edges[k]
	return sparse.NewCSC(g.N, g.N, []sparse.Triplet{
		{Row: e[0], Col: e[0], Val: w},
		{Row: e[1], Col: e[1], Val: w},
		{Row: e[0], Col: e[1], Val: -w},
		{Row: e[1], Col: e[0], Val: -w},
	})
}

// SubgraphLaplacian returns the sparse Laplacian of the subgraph formed
// by the given edge indices (unit weights): Σ_k L_{e_k} assembled in
// one triplet pass, duplicates summed by NewCSC.
func (g *Graph) SubgraphLaplacian(edgeIdx []int) (*sparse.CSC, error) {
	trips := make([]sparse.Triplet, 0, 4*len(edgeIdx))
	for _, k := range edgeIdx {
		if k < 0 || k >= len(g.Edges) {
			return nil, fmt.Errorf("graph: edge index %d out of range", k)
		}
		e := g.Edges[k]
		trips = append(trips,
			sparse.Triplet{Row: e[0], Col: e[0], Val: 1},
			sparse.Triplet{Row: e[1], Col: e[1], Val: 1},
			sparse.Triplet{Row: e[0], Col: e[1], Val: -1},
			sparse.Triplet{Row: e[1], Col: e[0], Val: -1})
	}
	return sparse.NewCSC(g.N, g.N, trips)
}

// EdgeFactors returns all edge factors with unit weights.
func (g *Graph) EdgeFactors() ([]*sparse.CSC, error) {
	qs := make([]*sparse.CSC, len(g.Edges))
	for k := range g.Edges {
		q, err := g.EdgeFactor(k, 1)
		if err != nil {
			return nil, err
		}
		qs[k] = q
	}
	return qs, nil
}
