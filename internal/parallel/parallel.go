// Package parallel provides the fork-join primitives used by every
// numerical kernel in this repository, together with an analytic
// work/depth accounting facility that mirrors the PRAM-style cost model
// of Peng–Tangwongsan–Zhang (SPAA 2012).
//
// All reductions use fixed block decompositions so that results are
// bit-for-bit deterministic regardless of GOMAXPROCS or goroutine
// scheduling: a block count is chosen from the problem size alone, each
// block is summed sequentially, and the per-block partial results are
// combined in block order.
package parallel

import (
	"runtime"
	"sync"
)

// minGrain is the smallest amount of per-goroutine work worth forking for.
// Below this, loops run sequentially; goroutine startup would dominate.
const minGrain = 1024

// Workers reports the number of worker goroutines fork-join operations
// will use, which is GOMAXPROCS at call time.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// SerialBlock reports whether ForBlock(n, grain, body) would execute
// body in a single sequential call. Hot kernels test this BEFORE
// constructing their loop closure: a closure passed to ForBlock escapes
// to the heap (it may flow into a goroutine), so the steady-state
// zero-allocation paths branch to a plain loop first and only build the
// closure when forking is actually possible. The plain loop computes
// exactly what the single body(0, n) call would, so results are
// bit-for-bit unchanged.
func SerialBlock(n, grain int) bool {
	if grain <= 0 {
		grain = minGrain
	}
	return n <= grain || Workers() == 1
}

// OneBlock reports whether a deterministic block reduction of size n at
// this grain collapses to a single block, in which case the sequential
// sum over [0, n) is bit-identical to the block tree and reduction
// kernels may skip closure construction entirely (see SerialBlock).
// Unlike SerialBlock it must not depend on Workers(): with more than
// one block the combine order matters and callers have to go through
// the fixed block tree even at GOMAXPROCS=1.
func OneBlock(n, grain int) bool {
	if grain <= 0 {
		grain = minGrain
	}
	return n <= grain
}

// forkFloor is the least work, in scalar operations, a forked block
// must do to pay for its fork and join. BenchmarkForkJoin sizes it: on
// a 2-CPU x86-64 box (go1.24), two items of 16384 operations each ran
// in a median 22.5 µs forked against 19.0 µs in one sequential call;
// at 32768 in 38.5 against 44.7 µs; at 65536 in 69.6 against 76.6 µs.
const forkFloor = 1 << 15

// WorkGrain returns the loop grain at which each forked block does at
// least forkFloor scalar operations, given the approximate work of one
// item: the row grain of the dense matrix kernels, and the gate of any
// per-item loop whose items are cheap enough that forking one goroutine
// per item would cost more than the item. Every caller forks over
// independent outputs (or only gates a fixed block tree), so the grain
// moves no result bit.
func WorkGrain(flopsPerItem int) int {
	if flopsPerItem <= 0 {
		flopsPerItem = 1
	}
	return max(forkFloor/flopsPerItem, 1)
}

// ForBlock partitions [0, n) into contiguous blocks and runs body(lo, hi)
// on each block, potentially in parallel. grain is the minimum block
// size; if grain <= 0 a default is chosen. body must be safe to call
// concurrently for disjoint ranges.
func ForBlock(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = minGrain
	}
	workers := Workers()
	if workers == 1 || n <= grain {
		body(0, n)
		return
	}
	blocks := (n + grain - 1) / grain
	if blocks > workers*4 {
		blocks = workers * 4
	}
	if blocks < 2 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(blocks)
	for b := 0; b < blocks; b++ {
		lo := b * n / blocks
		hi := (b + 1) * n / blocks
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Do runs each function concurrently and waits for all of them.
func Do(fs ...func()) {
	if len(fs) == 0 {
		return
	}
	if len(fs) == 1 {
		fs[0]()
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(fs) - 1)
	for _, f := range fs[1:] {
		go func(f func()) {
			defer wg.Done()
			f()
		}(f)
	}
	fs[0]()
	wg.Wait()
}

// BlockCount reports the deterministic number of reduction blocks
// SumBlocks would use for a problem of size n at the given grain.
// Zero-allocation reduction kernels replicate the block tree with a
// plain loop when forking is impossible: summing block b over
// [b·n/blocks, (b+1)·n/blocks) sequentially and combining partials in
// block order is bit-identical to the forked reduction, without the
// heap-escaping closure a SumBlocks call would construct.
func BlockCount(n, grain int) int { return blockCount(n, grain) }

// blockCount returns the deterministic number of reduction blocks for a
// problem of size n with the given grain. It depends only on n and
// grain, never on GOMAXPROCS, so reduction trees are reproducible.
func blockCount(n, grain int) int {
	if grain <= 0 {
		grain = minGrain
	}
	blocks := (n + grain - 1) / grain
	const maxBlocks = 64
	if blocks > maxBlocks {
		blocks = maxBlocks
	}
	if blocks < 1 {
		blocks = 1
	}
	return blocks
}

// SumFloat computes the sum over i in [0, n) of f(i) using a
// deterministic block reduction. The result is identical for any
// GOMAXPROCS setting.
func SumFloat(n int, f func(i int) float64) float64 {
	return SumBlocks(n, 0, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		return s
	})
}

// SumBlocks computes the sum of block(lo, hi) over a deterministic block
// decomposition of [0, n). block must return the sequential sum of its
// range. Blocks may execute concurrently; partial sums are combined in
// block order, so the result is deterministic.
func SumBlocks(n, grain int, block func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	blocks := blockCount(n, grain)
	if blocks == 1 {
		return block(0, n)
	}
	if Workers() == 1 {
		// Same block decomposition, same combine order — bit-identical to
		// the forked path — without goroutine overhead.
		var s float64
		for b := 0; b < blocks; b++ {
			s += block(b*n/blocks, (b+1)*n/blocks)
		}
		return s
	}
	partial := make([]float64, blocks)
	var wg sync.WaitGroup
	wg.Add(blocks)
	for b := 0; b < blocks; b++ {
		lo := b * n / blocks
		hi := (b + 1) * n / blocks
		go func(b, lo, hi int) {
			defer wg.Done()
			partial[b] = block(lo, hi)
		}(b, lo, hi)
	}
	wg.Wait()
	var s float64
	for _, p := range partial {
		s += p
	}
	return s
}

// MaxFloat computes max over i in [0, n) of f(i). n must be >= 1.
// Deterministic under any GOMAXPROCS.
func MaxFloat(n int, f func(i int) float64) float64 {
	blocks := blockCount(n, 0)
	if blocks == 1 {
		m := f(0)
		for i := 1; i < n; i++ {
			if v := f(i); v > m {
				m = v
			}
		}
		return m
	}
	if Workers() == 1 {
		// Replay the identical block decomposition sequentially (same
		// per-block seeds, same combine order) so results — including
		// NaN propagation — match the forked path bit for bit.
		var m float64
		for b := 0; b < blocks; b++ {
			lo, hi := b*n/blocks, (b+1)*n/blocks
			p := f(lo)
			for i := lo + 1; i < hi; i++ {
				if v := f(i); v > p {
					p = v
				}
			}
			if b == 0 || p > m {
				m = p
			}
		}
		return m
	}
	partial := make([]float64, blocks)
	var wg sync.WaitGroup
	wg.Add(blocks)
	for b := 0; b < blocks; b++ {
		lo := b * n / blocks
		hi := (b + 1) * n / blocks
		go func(b, lo, hi int) {
			defer wg.Done()
			m := f(lo)
			for i := lo + 1; i < hi; i++ {
				if v := f(i); v > m {
					m = v
				}
			}
			partial[b] = m
		}(b, lo, hi)
	}
	wg.Wait()
	m := partial[0]
	for _, p := range partial[1:] {
		if p > m {
			m = p
		}
	}
	return m
}
