package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sparse"
	"repro/internal/store"
)

// digest is the content address of a request: SHA-256 over the
// canonicalized instance plus every solve-relevant option. Two requests
// share a digest exactly when the solver is guaranteed to produce
// bitwise-identical results for them, which is what makes the digest
// safe as the cache key, the singleflight key, and — aliased to
// store.Key — the placement key the whole cluster tier routes by.
type digest = store.Key

// shardKey folds a digest to the uint64 used for shard routing.
func shardKey(d digest) uint64 { return binary.LittleEndian.Uint64(d[:8]) }

// hasher wraps a hash.Hash with fixed-width little-endian writers. All
// floats are hashed as their IEEE 754 bit patterns: the canonical form
// distinguishes exactly the inputs the solver distinguishes (including
// -0 vs +0 and every NaN payload the parser lets through, i.e. none).
type hasher struct {
	h   hash.Hash
	buf [1 << 10]byte
	n   int
}

func newHasher() *hasher { return &hasher{h: sha256.New()} }

func (z *hasher) flush() {
	if z.n > 0 {
		z.h.Write(z.buf[:z.n])
		z.n = 0
	}
}

func (z *hasher) u64(v uint64) {
	if z.n+8 > len(z.buf) {
		z.flush()
	}
	binary.LittleEndian.PutUint64(z.buf[z.n:], v)
	z.n += 8
}

func (z *hasher) i64(v int) { z.u64(uint64(int64(v))) }

func (z *hasher) f64(v float64) { z.u64(math.Float64bits(v)) }

func (z *hasher) f64s(v []float64) {
	z.i64(len(v))
	for _, x := range v {
		z.f64(x)
	}
}

func (z *hasher) ints(v []int) {
	z.i64(len(v))
	for _, x := range v {
		z.i64(x)
	}
}

func (z *hasher) bool(b bool) {
	if b {
		z.u64(1)
	} else {
		z.u64(0)
	}
}

func (z *hasher) str(s string) {
	z.i64(len(s))
	z.flush()
	z.h.Write([]byte(s))
}

func (z *hasher) sum() digest {
	z.flush()
	var d digest
	copy(d[:], z.h.Sum(nil))
	return d
}

// digestVersion is bumped whenever the canonical encoding or the
// solver's numerics change incompatibly, so stale cache entries from an
// older build can never be mistaken for current results. v2 folded the
// engine into the canonical form: before that, an mmw result could
// answer an alo request from the cache. v3 added the mixed kind (the
// covering matrix joins the canonical form after the packing set).
const digestVersion = "psdpd-v3"

// requestDigest canonicalizes one built request. The engine hashed is
// b.engine: the request's engine with the default substituted for ""
// (the wire field alone underdetermines what the solver runs), resolved
// when the kind resolves "auto".
func requestDigest(b *built, req *Request) (digest, error) {
	z := newHasher()
	z.str(digestVersion)
	z.str(b.k.name)
	z.f64(req.Eps)
	z.u64(req.Seed)
	z.i64(int(canonicalOracle(b.opts.Oracle, b.set)))
	z.i64(int(b.engine))
	z.i64(req.MaxIter)
	z.bool(req.Bucketed)
	z.bool(req.TheoryExact)
	z.f64(req.SketchEps)
	z.f64(req.scaleOrOne())
	if b.prog != nil {
		hashProgram(z, b.prog)
	} else if err := hashSet(z, b.set); err != nil {
		return digest{}, err
	}
	if b.prob != nil {
		// BuildMixed canonicalized the covering triplets (sorted, summed
		// in fixed order), so hashing the assembled matrix keeps the
		// digest independent of the document's listing order.
		z.str("cover")
		hashDense(z, b.prob.Cover)
	}
	return z.sum(), nil
}

// warmDigest derives the content address of a warm-started delta
// solve: the plain digest of the materialized request combined with
// the base revision key the warm state came from. Warm-started results
// are certified but NOT bitwise identical to what a cold solve of the
// same request would produce, so they must live in their own address
// space — a later cold request for the plain digest must never be
// served warm bytes from the cache, and vice versa. The base key pins
// the whole warm lineage: solves are deterministic, so one (plain
// content, base lineage) pair names exactly one byte sequence.
func warmDigest(plain, base digest) digest {
	z := newHasher()
	z.str("psdpd-warm-v1")
	z.str(string(plain[:]))
	z.str(string(base[:]))
	return z.sum()
}

// parseDigest decodes the hex digest form clients echo back (the
// X-Psdpd-Digest response header / delta base field).
func parseDigest(s string) (digest, error) {
	d, err := store.ParseKey(s)
	if err != nil {
		return digest{}, fmt.Errorf("serve: %q is not a %d-byte hex digest", s, len(d))
	}
	return d, nil
}

// ContentDigest computes the content address psdpd assigns to a solve
// request — the exact digest the X-Psdpd-Digest response header
// carries for a 200, and therefore the placement key the cluster tier
// routes by. kind is the endpoint ("decision", "maximize", "solve",
// "mixed"); defaultEngine substitutes for an empty engine field, so a
// front tier configured with the replicas' default computes the same
// address the replicas do. Exported for internal/cluster: routing by
// the true content address is what keeps cache entries, revision
// lineages, and warm worker workspaces shard-local across the fleet.
// It runs the same validation, build, and digest code the serving path
// runs, so a request either gets the served digest or an error.
func ContentDigest(kind string, req *Request, defaultEngine core.EngineKind) (store.Key, error) {
	b, err := buildRequest(kind, req, defaultEngine)
	if err != nil {
		return store.Key{}, err
	}
	return b.d, nil
}

// canonicalOracle resolves OracleAuto to the concrete oracle the
// solver would pick for the set, so "oracle omitted", "auto", and the
// explicit name of the auto choice all share one content address
// (they provably produce identical bytes). A nil set is the program
// path, whose normalization always yields a dense instance.
func canonicalOracle(kind core.OracleKind, set core.ConstraintSet) core.OracleKind {
	if kind != core.OracleAuto {
		return kind
	}
	switch set.(type) {
	case *core.FactoredSet, *core.SparseSet:
		return core.OracleFactoredJL
	}
	return core.OracleDenseExact
}

// hashSet canonicalizes a constraint set. Dense sets hash their entries
// row-major; factored and sparse sets hash the CSC arrays, which NewCSC
// already canonicalizes (column-sorted, duplicates summed, explicit
// zeros dropped), so triplet order in the wire document does not
// perturb the digest.
func hashSet(z *hasher, set core.ConstraintSet) error {
	switch s := set.(type) {
	case *core.DenseSet:
		z.str("dense")
		z.i64(s.N())
		z.i64(s.Dim())
		z.f64(s.Scale())
		for _, a := range s.A {
			hashDense(z, a)
		}
	case *core.FactoredSet:
		z.str("factored")
		z.i64(s.N())
		z.i64(s.Dim())
		z.f64(s.Scale())
		for _, q := range s.Q {
			hashCSC(z, q)
		}
	case *core.SparseSet:
		z.str("sparse")
		z.i64(s.N())
		z.i64(s.Dim())
		z.f64(s.Scale())
		for _, a := range s.A {
			hashCSC(z, a)
		}
	default:
		return fmt.Errorf("serve: cannot digest constraint set type %T", set)
	}
	return nil
}

func hashDense(z *hasher, a *matrix.Dense) {
	z.i64(a.R)
	z.i64(a.C)
	z.f64s(a.Data)
}

func hashCSC(z *hasher, q *sparse.CSC) {
	z.i64(q.R)
	z.i64(q.C)
	z.ints(q.ColPtr)
	z.ints(q.Row)
	z.f64s(q.Val)
}

func hashProgram(z *hasher, p *core.Program) {
	z.str("program")
	hashDense(z, p.C)
	z.i64(len(p.A))
	for _, a := range p.A {
		hashDense(z, a)
	}
	z.f64s(p.B)
}
