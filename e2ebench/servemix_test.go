package main

import (
	"bytes"
	"testing"
)

// A stream grown request by request during a window holds the same
// requests as one built ahead of it.
func TestStreamGrowsAsBuilt(t *testing.T) {
	built, err := (&serveWorkload{}).streams(7, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for c, b := range built {
		g := newStream(7, c)
		for i, want := range b.reqs {
			got, err := g.at(i)
			if err != nil {
				t.Fatal(err)
			}
			if got.class != want.class || got.ref != want.ref || got.key != want.key || !bytes.Equal(got.body, want.body) {
				t.Fatalf("client %d request %d: grown %s ref %d, built %s ref %d", c, i, got.class, got.ref, want.class, want.ref)
			}
		}
		if g.grown == 0 {
			t.Errorf("client %d: stream built during the window reports no growth", c)
		}
	}
}
