package serve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/instio"
	"repro/internal/sparse"
)

func digestOf(t *testing.T, kind string, req *Request) digest {
	t.Helper()
	d, err := ContentDigest(kind, req, core.EngineMMW)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDigestIdentity(t *testing.T) {
	inst := &instio.Instance{M: 2, Dense: [][][]float64{{{1, 0.5}, {0.5, 2}}}}
	base := Request{Instance: inst, Eps: 0.25, Seed: 5}
	d0 := digestOf(t, "decision", &base)

	if d1 := digestOf(t, "decision", &base); d1 != d0 {
		t.Fatal("identical requests produced different digests")
	}

	perturbations := []struct {
		name string
		req  Request
		kind string
	}{
		{"eps", Request{Instance: inst, Eps: 0.26, Seed: 5}, "decision"},
		{"seed", Request{Instance: inst, Eps: 0.25, Seed: 6}, "decision"},
		{"scale", Request{Instance: inst, Eps: 0.25, Seed: 5, Scale: 0.5}, "decision"},
		{"bucketed", Request{Instance: inst, Eps: 0.25, Seed: 5, Bucketed: true}, "decision"},
		{"maxIter", Request{Instance: inst, Eps: 0.25, Seed: 5, MaxIter: 7}, "decision"},
		{"kind", Request{Instance: inst, Eps: 0.25, Seed: 5}, "maximize"},
		{"entry", Request{Instance: &instio.Instance{M: 2, Dense: [][][]float64{{{1, 0.5}, {0.5, 2.0000000000000004}}}}, Eps: 0.25, Seed: 5}, "decision"},
	}
	for _, p := range perturbations {
		if d := digestOf(t, p.kind, &p.req); d == d0 {
			t.Errorf("%s perturbation did not change the digest", p.name)
		}
	}
}

// Spellings of the same solver configuration must share one content
// address: "", "auto", and the explicit name of the auto choice all
// resolve to the same oracle — while genuinely different oracles split.
func TestDigestCanonicalizesOracle(t *testing.T) {
	dense := &instio.Instance{M: 2, Dense: [][][]float64{{{1, 0.5}, {0.5, 2}}}}
	dDefault := digestOf(t, "decision", &Request{Instance: dense, Eps: 0.25, Seed: 5})
	dAuto := digestOf(t, "decision", &Request{Instance: dense, Eps: 0.25, Seed: 5, Oracle: "auto"})
	dExplicit := digestOf(t, "decision", &Request{Instance: dense, Eps: 0.25, Seed: 5, Oracle: "dense"})
	if dDefault != dAuto || dDefault != dExplicit {
		t.Fatal("equivalent oracle spellings split the cache identity")
	}

	fact := &instio.Instance{M: 3, Factored: []instio.Factor{{Cols: 2, Entries: [][3]float64{{0, 0, 1}, {1, 1, 0.5}}}}}
	fAuto := digestOf(t, "decision", &Request{Instance: fact, Eps: 0.3, Seed: 1})
	fJL := digestOf(t, "decision", &Request{Instance: fact, Eps: 0.3, Seed: 1, Oracle: "jl"})
	fExact := digestOf(t, "decision", &Request{Instance: fact, Eps: 0.3, Seed: 1, Oracle: "exact"})
	if fAuto != fJL {
		t.Fatal("auto on a factored set must hash as the JL oracle")
	}
	if fExact == fJL {
		t.Fatal("distinct factored oracles collided")
	}
}

// TimeoutMs changes when a result arrives, never what it is, so it must
// NOT split the cache identity.
func TestDigestIgnoresTimeout(t *testing.T) {
	inst := &instio.Instance{M: 2, Dense: [][][]float64{{{1, 0}, {0, 1}}}}
	a := Request{Instance: inst, Eps: 0.25, Seed: 5}
	b := Request{Instance: inst, Eps: 0.25, Seed: 5, TimeoutMs: 1234}
	if digestOf(t, "decision", &a) != digestOf(t, "decision", &b) {
		t.Fatal("timeout leaked into the digest")
	}
}

// Triplet order in a factored wire document is presentation, not
// content: NewCSC canonicalizes (sorts, sums duplicates, drops zeros),
// so shuffled entries must hash identically.
func TestDigestCanonicalizesTripletOrder(t *testing.T) {
	entries := [][3]float64{{0, 0, 1}, {1, 1, 0.5}, {2, 0, -1}, {1, 0, 0.25}}
	shuffled := [][3]float64{{1, 0, 0.25}, {2, 0, -1}, {0, 0, 1}, {1, 1, 0.5}}
	a := Request{Instance: &instio.Instance{M: 3, Factored: []instio.Factor{{Cols: 2, Entries: entries}}}, Eps: 0.3, Seed: 1}
	b := Request{Instance: &instio.Instance{M: 3, Factored: []instio.Factor{{Cols: 2, Entries: shuffled}}}, Eps: 0.3, Seed: 1}
	if digestOf(t, "decision", &a) != digestOf(t, "decision", &b) {
		t.Fatal("triplet order perturbed the digest")
	}
}

// Explicit-zero triplets must not survive canonicalization: two
// mathematically identical sparse instances — one listing zeros, one
// not — must produce the same digest, or every cache and
// revision-store lookup between them misses. Covers standalone zero
// entries and duplicate pairs cancelling to exact zero, on both the
// sparse and (audit) factored kinds.
func TestDigestDropsExplicitZeroTriplets(t *testing.T) {
	withZeros := [][3]float64{
		{0, 0, 1}, {0, 1, 0}, {1, 0, 0}, // explicit zero mirror pair
		{1, 1, 2}, {1, 1, 3}, {1, 1, -3}, // duplicates cancelling to zero
	}
	plain := [][3]float64{{0, 0, 1}, {1, 1, 2}}
	a := Request{Instance: &instio.Instance{M: 2, Sparse: []instio.SparseMatrix{{Entries: withZeros}}}, Eps: 0.25, Seed: 5}
	b := Request{Instance: &instio.Instance{M: 2, Sparse: []instio.SparseMatrix{{Entries: plain}}}, Eps: 0.25, Seed: 5}
	if digestOf(t, "decision", &a) != digestOf(t, "decision", &b) {
		t.Fatal("explicit zeros split the digests of identical sparse instances")
	}

	fz := [][3]float64{{0, 0, 1}, {1, 0, 0}, {1, 1, 0.5}}
	fp := [][3]float64{{0, 0, 1}, {1, 1, 0.5}}
	fa := Request{Instance: &instio.Instance{M: 2, Factored: []instio.Factor{{Cols: 2, Entries: fz}}}, Eps: 0.25, Seed: 5}
	fb := Request{Instance: &instio.Instance{M: 2, Factored: []instio.Factor{{Cols: 2, Entries: fp}}}, Eps: 0.25, Seed: 5}
	if digestOf(t, "decision", &fa) != digestOf(t, "decision", &fb) {
		t.Fatal("explicit zeros split the digests of identical factored instances")
	}
}

// Duplicate triplets are summed in canonical value order, so two
// listings of the same entry multiset digest identically even under
// catastrophic cancellation, where left-to-right document-order sums
// disagree ({1e17, 1, -1e17}: one order keeps a spurious 1, the other
// cancels to an exact zero that canonicalization then drops).
func TestDigestCanonicalizesDuplicateSummationOrder(t *testing.T) {
	const big = 1e17
	orderA := [][3]float64{{0, 0, 4}, {0, 1, big}, {0, 1, 1}, {0, 1, -big}, {1, 0, big}, {1, 0, 1}, {1, 0, -big}, {1, 1, 3}}
	orderB := [][3]float64{{0, 0, 4}, {0, 1, big}, {0, 1, -big}, {0, 1, 1}, {1, 0, big}, {1, 0, -big}, {1, 0, 1}, {1, 1, 3}}
	a := Request{Instance: &instio.Instance{M: 2, Sparse: []instio.SparseMatrix{{Entries: orderA}}}, Eps: 0.25, Seed: 5}
	b := Request{Instance: &instio.Instance{M: 2, Sparse: []instio.SparseMatrix{{Entries: orderB}}}, Eps: 0.25, Seed: 5}
	if digestOf(t, "decision", &a) != digestOf(t, "decision", &b) {
		t.Fatal("duplicate listing order split the digests of identical sparse instances")
	}
}

// Structurally different encodings that the solver distinguishes must
// not collide: a dense identity and its factored form are different
// instances to the oracle layer.
func TestDigestSeparatesRepresentations(t *testing.T) {
	dense := Request{Instance: &instio.Instance{M: 2, Dense: [][][]float64{{{1, 0}, {0, 1}}}}, Eps: 0.25, Seed: 5}
	factored := Request{Instance: &instio.Instance{M: 2, Factored: []instio.Factor{
		{Cols: 2, Entries: [][3]float64{{0, 0, 1}, {1, 1, 1}}},
	}}, Eps: 0.25, Seed: 5}
	if digestOf(t, "decision", &dense) == digestOf(t, "decision", &factored) {
		t.Fatal("dense and factored representations collided")
	}
}

// The raw CSC hasher must distinguish matrices that differ only in
// shape metadata (trailing empty columns have equal Row/Val but
// different ColPtr).
func TestDigestCSCShape(t *testing.T) {
	trips := []sparse.Triplet{{Row: 0, Col: 0, Val: 1}}
	q1, err := sparse.NewCSC(2, 1, trips)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := sparse.NewCSC(2, 2, trips)
	if err != nil {
		t.Fatal(err)
	}
	z1, z2 := newHasher(), newHasher()
	hashCSC(z1, q1)
	hashCSC(z2, q2)
	if z1.sum() == z2.sum() {
		t.Fatal("CSCs of different column counts collided")
	}
}

// maximizeAutoDigest is the content address of maximizeAutoRequest.
// Maximize resolves "auto" once, at eps/4, inside the solver; the digest
// keeps hashing "auto" unresolved, so this address must not move when
// the solver's per-call accuracy does.
const maximizeAutoDigest = "ab63cfbd1ae25bc2f99923aa43b9c2569ca42ad58e0d3e95c3b423d0cb78ce6b"

func maximizeAutoRequest(engine string) *Request {
	inst := &instio.Instance{M: 2}
	for i := 0; i < 8; i++ {
		d := 1 + float64(i)/8
		inst.Dense = append(inst.Dense, [][]float64{{d, 0.25}, {0.25, 2 - d/2}})
	}
	return &Request{Instance: inst, Eps: 0.3, Seed: 5, Engine: engine}
}

func TestMaximizeDigestHashesAutoUnresolved(t *testing.T) {
	dAuto := digestOf(t, "maximize", maximizeAutoRequest("auto"))
	if got := dAuto.String(); got != maximizeAutoDigest {
		t.Fatalf("maximize auto digest %s, pinned %s", got, maximizeAutoDigest)
	}
	for _, name := range []string{"mmw", "alo"} {
		if digestOf(t, "maximize", maximizeAutoRequest(name)) == dAuto {
			t.Errorf("maximize auto hashed as %s", name)
		}
	}
}
