// Package experiments implements the reproduction harness: one function
// per paper experiment, E1–E16 (`psdpbench -list` names them, README's
// Benchmarks section says how to run them), each regenerating the
// table that validates a theorem, lemma, or figure of the paper. The
// functions are shared by cmd/psdpbench (human-readable tables) and the
// repository's bench_test.go (testing.B wrappers with reported metrics).
package experiments

import (
	"fmt"
	"strings"
)

// Table is one rendered experiment result.
type Table struct {
	// ID is the experiment identifier (e.g. "E1").
	ID string
	// Title is the short experiment name.
	Title string
	// Claim states the paper claim being measured.
	Claim string
	// Columns and Rows hold the tabular result.
	Columns []string
	Rows    [][]string
	// Notes holds qualitative conclusions appended after the table.
	Notes []string
}

// AddRow appends a row, formatting each value with %v for strings and
// %.4g for floats.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case string:
			row[i] = x
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render formats the table as aligned plain text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Config tunes experiment sizes.
type Config struct {
	// Quick shrinks instance sizes for use inside tests/benchmarks.
	Quick bool
	// Seed drives all randomness; runs are deterministic given a seed.
	Seed uint64
}

// Runner is one registered experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(Config) (*Table, error)
}

// All returns the experiment registry in order.
func All() []Runner {
	return []Runner{
		{"E1", "iterations vs n (Thm 3.1)", E1IterationsVsN},
		{"E2", "iterations vs eps (Thm 3.1)", E2IterationsVsEps},
		{"E3", "width independence (headline)", E3WidthSweep},
		{"E4", "optimizer quality (Thm 1.1 / Lemma 2.2)", E4OptimizeQuality},
		{"E5", "Taylor degree sandwich (Lemma 4.2)", E5TaylorDegree},
		{"E6", "bigDotExp accuracy & work (Thm 4.1)", E6BigDotExp},
		{"E7", "work/depth scaling (Cor 1.2)", E7WorkDepth},
		{"E8", "MMW regret bound (Thm 2.1)", E8MMWRegret},
		{"E9", "ellipse packing (Figure 1)", E9Ellipse},
		{"E10", "diagonal case = positive LP (§1.2)", E10DiagonalLP},
		{"E11", "iteration-count comparison (§1.1)", E11IterFormulas},
		{"E12", "parallel wall-clock scaling (NC claim)", E12Parallel},
		{"E13", "ablation: dynamic bucketing (§1.1 / WMMR15)", E13Bucketing},
		{"E14", "ablation: JL sketch accuracy (Thm 4.1)", E14SketchAblation},
		{"E15", "trajectory of Lemma 3.2 quantities", E15Trajectory},
		{"E16", "mixed packing/covering extension (§5)", E16Mixed},
	}
}

// ByID returns the runner with the given ID, or nil.
func ByID(id string) *Runner {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return &r
		}
	}
	return nil
}
