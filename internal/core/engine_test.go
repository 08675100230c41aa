package core

import (
	"strings"
	"testing"

	"repro/internal/matrix"
	"repro/internal/sparse"
)

// ResolveOracle is the one (kind, representation) → oracle rule: every
// kind on every representation resolves to the pinned kind or fails
// with the pinned error.
func TestResolveOracle(t *testing.T) {
	dense, err := NewDenseSet([]*matrix.Dense{matrix.FromRows([][]float64{{2, 1}, {1, 2}})})
	if err != nil {
		t.Fatal(err)
	}
	diag, err := NewDenseSet([]*matrix.Dense{matrix.Identity(2)})
	if err != nil {
		t.Fatal(err)
	}
	if diag.diag == nil || dense.diag != nil {
		t.Fatal("the diagonal fixture must take the diagonal route and the dense one must not")
	}
	q, err := sparse.NewCSC(2, 1, []sparse.Triplet{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	factored, err := NewFactoredSet([]*sparse.CSC{q})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sparse.NewCSC(2, 2, []sparse.Triplet{{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 0.5}, {Row: 1, Col: 0, Val: 0.5}, {Row: 1, Col: 1, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sparseSet, err := NewSparseSet([]*sparse.CSC{a})
	if err != nil {
		t.Fatal(err)
	}

	const (
		needDense = "core: OracleDenseExact requires a dense constraint set"
		needJL    = "core: OracleFactoredJL requires a factored or sparse constraint set"
		needExact = "core: OracleFactoredExact requires a factored or sparse constraint set"
		unknown   = "core: unknown oracle kind 7"
	)
	sets := []struct {
		name string
		set  ConstraintSet
	}{{"dense", dense}, {"diagonal", diag}, {"factored", factored}, {"sparse", sparseSet}}
	// want[kind][set] is the resolved kind, or the error's prefix.
	kinds := []struct {
		kind OracleKind
		want [4]any
	}{
		{OracleAuto, [4]any{OracleDenseExact, OracleDenseExact, OracleFactoredJL, OracleFactoredJL}},
		{OracleDenseExact, [4]any{OracleDenseExact, OracleDenseExact, needDense, needDense}},
		{OracleFactoredJL, [4]any{needJL, needJL, OracleFactoredJL, OracleFactoredJL}},
		{OracleFactoredExact, [4]any{needExact, needExact, OracleFactoredExact, OracleFactoredExact}},
		{OracleKind(7), [4]any{unknown, unknown, unknown, unknown}},
	}
	for _, k := range kinds {
		for j, s := range sets {
			got, err := ResolveOracle(k.kind, s.set)
			switch want := k.want[j].(type) {
			case OracleKind:
				if err != nil || got != want {
					t.Errorf("ResolveOracle(%d, %s) = %d, %v; want %d", k.kind, s.name, got, err, want)
				}
			case string:
				if err == nil || !strings.HasPrefix(err.Error(), want) {
					t.Errorf("ResolveOracle(%d, %s) = %d, %v; want error %q", k.kind, s.name, got, err, want)
				}
			}
		}
	}
}
