// Package work provides the solver's scratch-buffer arena: a
// size-keyed pool of vectors, integer index slices, and dense matrices
// that the MMW decision loop draws from instead of allocating.
//
// Algorithm 3.1 runs R = O(ε⁻³ log² n) iterations per decision call,
// and every iteration needs the same handful of temporaries — ratio
// vectors, Ψ accumulators, eigendecomposition scratch, Taylor/Horner
// ping-pong matrices, Lanczos bases, sketch rows. A Workspace hands
// those buffers out and takes them back, so after the first iteration
// warms the pools a full steady-state iteration performs zero heap
// allocations on the dense path (see the allocation-regression tests in
// internal/core).
//
// A Workspace is deliberately dumb: free lists keyed by exact size, no
// trimming, no concurrency. One workspace belongs to one solver run (or
// one sequence of runs — MaximizePacking threads a single workspace
// through all of its decision calls). Buffers handed out are NOT
// zeroed; every consumer in this repository fully overwrites its
// scratch before reading it. Concurrent kernels must draw their
// per-worker scratch up front from the owning goroutine and hold it for
// the run, which is what the oracles do for their lockstep ExpMV
// block.
//
// All methods are nil-receiver safe: a nil *Workspace degrades to plain
// allocation (Get) and dropping (Put), so workspace-threaded code paths
// need no nil checks and stay usable standalone.
package work

import (
	"repro/internal/matrix"
)

type matKey struct{ r, c int }

// Workspace is a size-keyed arena of reusable buffers. The zero value
// is ready to use (pools initialize on first Put), as is a nil pointer.
type Workspace struct {
	vecs  map[int][][]float64
	ints  map[int][][]int
	mats  map[matKey][]*matrix.Dense
	stash map[any][]any
	// misses counts pool misses (fresh allocations); steady-state reuse
	// keeps it flat, which the workspace tests assert.
	misses int
}

// New returns an empty workspace. Pools fill lazily on Put.
func New() *Workspace {
	return &Workspace{}
}

// Misses reports how many requests missed the pools and allocated.
func (ws *Workspace) Misses() int {
	if ws == nil {
		return 0
	}
	return ws.misses
}

// Vec hands out a float64 slice of length n. Contents are undefined;
// callers must overwrite before reading. n <= 0 returns nil.
func (ws *Workspace) Vec(n int) []float64 {
	if n <= 0 {
		return nil
	}
	if ws != nil {
		if free := ws.vecs[n]; len(free) > 0 {
			v := free[len(free)-1]
			ws.vecs[n] = free[:len(free)-1]
			return v
		}
		ws.misses++
	}
	return make([]float64, n)
}

// PutVec returns a vector to the pool. Aliases must not be retained by
// the caller after the put.
func (ws *Workspace) PutVec(v []float64) {
	if ws == nil || len(v) == 0 {
		return
	}
	if ws.vecs == nil {
		ws.vecs = make(map[int][][]float64)
	}
	n := len(v)
	ws.vecs[n] = append(ws.vecs[n], v)
}

// Ints hands out an int slice of length n (contents undefined).
func (ws *Workspace) Ints(n int) []int {
	if n <= 0 {
		return nil
	}
	if ws != nil {
		if free := ws.ints[n]; len(free) > 0 {
			v := free[len(free)-1]
			ws.ints[n] = free[:len(free)-1]
			return v
		}
		ws.misses++
	}
	return make([]int, n)
}

// PutInts returns an int slice to the pool.
func (ws *Workspace) PutInts(v []int) {
	if ws == nil || len(v) == 0 {
		return
	}
	if ws.ints == nil {
		ws.ints = make(map[int][][]int)
	}
	n := len(v)
	ws.ints[n] = append(ws.ints[n], v)
}

// Mat hands out an r-by-c dense matrix. Contents are undefined; callers
// must overwrite (accumulating kernels zero their output first).
func (ws *Workspace) Mat(r, c int) *matrix.Dense {
	if ws != nil {
		k := matKey{r, c}
		if free := ws.mats[k]; len(free) > 0 {
			m := free[len(free)-1]
			ws.mats[k] = free[:len(free)-1]
			return m
		}
		ws.misses++
	}
	return matrix.New(r, c)
}

// Resize returns b resliced to n entries, allocating only when its
// capacity falls short, so a buffer that serves several sizes stops
// allocating once it has seen the largest. Like pooled buffers, the
// entries are not zeroed.
func Resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// Stash stores an opaque reusable bundle under key (any comparable
// value; callers use unexported struct keys carrying the bundle's shape
// so distinct shapes never collide). Several bundles may be stashed
// under one key — slice semantics, like the buffer pools — because
// several holders of the same shape can be live at once (e.g. the JL
// and exact operator oracles of one decision run). A nil workspace
// drops the bundle.
func (ws *Workspace) Stash(key, v any) {
	if ws == nil || v == nil {
		return
	}
	if ws.stash == nil {
		ws.stash = make(map[any][]any)
	}
	ws.stash[key] = append(ws.stash[key], v)
}

// TakeStash pops a bundle previously stashed under key, reporting
// whether one was available. Misses count toward Misses(), since the
// caller will build the bundle fresh.
func (ws *Workspace) TakeStash(key any) (any, bool) {
	if ws == nil {
		return nil, false
	}
	free := ws.stash[key]
	if len(free) == 0 {
		ws.misses++
		return nil, false
	}
	v := free[len(free)-1]
	free[len(free)-1] = nil
	ws.stash[key] = free[:len(free)-1]
	return v, true
}

// PutMat returns a matrix to the pool.
func (ws *Workspace) PutMat(m *matrix.Dense) {
	if ws == nil || m == nil {
		return
	}
	if ws.mats == nil {
		ws.mats = make(map[matKey][]*matrix.Dense)
	}
	k := matKey{m.R, m.C}
	ws.mats[k] = append(ws.mats[k], m)
}
