package main

import (
	"path/filepath"
	"testing"
)

func TestCovered(t *testing.T) {
	cases := []struct {
		name   string
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{"none", nil, 0, 10, 0},
		{"disjoint", [][2]int64{{1, 3}, {5, 6}}, 0, 10, 3},
		{"overlapping", [][2]int64{{4, 8}, {1, 5}}, 0, 10, 7},
		{"nested", [][2]int64{{1, 9}, {2, 3}, {4, 5}}, 0, 10, 8},
		{"clipped", [][2]int64{{-5, 2}, {8, 20}}, 0, 10, 4},
		{"outside", [][2]int64{{-5, -1}, {11, 20}}, 0, 10, 0},
		{"touching", [][2]int64{{0, 5}, {5, 10}}, 0, 10, 10},
	}
	for _, c := range cases {
		if got := covered(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}
}

// A parent's self time excludes the union of its direct children, not
// their sum, and not its grandchildren a second time.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "front", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "handler", Start: 20, End: 60},
		{ID: 4, Parent: 2, Name: "handler", Start: 50, End: 80}, // overlaps 3
		{ID: 5, Parent: 3, Name: "store", Start: 30, End: 35},
	}
	want := map[int64]int64{1: 20, 2: 20, 3: 35, 4: 30, 5: 5}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self = %d, want %d", id, got[id], w)
		}
	}
}

func TestUnattributed(t *testing.T) {
	spans := []Span{
		{ID: 1, Op: 7, Name: rootSpan, Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 7, Name: "front", Start: 10, End: 50},
		{ID: 3, Op: 7, Name: "peer", Start: 40, End: 70},  // same op, no parent
		{ID: 4, Op: 8, Name: "other", Start: 0, End: 100}, // another op
		{ID: 5, Op: noOp, Name: "bg", Start: 0, End: 100}, // no op
		{ID: 6, Op: 9, Name: rootSpan, Start: 200, End: 300},
		{ID: 7, Parent: 6, Op: 9, Name: "front", Start: 200, End: 300},
	}
	un, tot := unattributed(spans)
	if un != 40 || tot != 200 {
		t.Fatalf("unattributed = %d of %d, want 40 of 200", un, tot)
	}
}

func TestByName(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "h", Tag: "hit", Start: 0, End: 10},
		{ID: 2, Name: "h", Tag: "miss", Start: 0, End: 30},
		{ID: 3, Parent: 2, Name: "s", Start: 5, End: 15},
	}
	st := byName(spans)
	if h := st["h"]; h.n != 2 || h.total != 40 || h.self != 30 {
		t.Errorf("h = %+v", h)
	}
	if m := st["h/miss"]; m.meanMS() != 30e-6 || m.meanSelfMS() != 20e-6 {
		t.Errorf("h/miss = %+v", m)
	}
}

func TestSpanFileRoundTrip(t *testing.T) {
	tr := newTracer()
	id := tr.NewID()
	tr.Add(Span{ID: id, Op: 3, Name: rootSpan, Tag: "x", Start: 1, End: 9})
	tr.Add(Span{ID: tr.NewID(), Parent: id, Op: 3, Name: "c", Start: 2, End: 4})
	path := filepath.Join(t.TempDir(), "s", "spans.jsonl")
	got, err := writeAndReload(tr, path)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Spans()
	if len(got) != len(want) {
		t.Fatalf("read %d spans, wrote %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("span %d: read %+v, wrote %+v", i, got[i], want[i])
		}
	}
}
