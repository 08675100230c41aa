package serve

import (
	"net/http"
	"testing"

	"repro/internal/core"
)

// The exported ContentDigest must agree byte-for-byte with the digest
// the serving path computes (the X-Psdpd-Digest header): it is the
// routing key the cluster front uses, and any divergence would scatter
// one digest's cache entries across replicas.
func TestContentDigestMatchesServedHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, tsALO := newTestServer(t, Config{Workers: 2, DefaultEngine: core.EngineALO})
	for _, tc := range digestCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			want, err := ContentDigest(tc.kind, &tc.req, tc.def)
			if err != nil {
				t.Fatal(err)
			}
			url := ts.URL
			if tc.def == core.EngineALO {
				url = tsALO.URL
			}
			resp, body := postJSON(t, url+"/v1/"+tc.kind, &tc.req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Psdpd-Digest"); got != want.String() {
				t.Fatalf("ContentDigest %s, served header %s", want, got)
			}
		})
	}
}

// digestCase is one accepted request of every kind, representation
// and engine; def is the server's DefaultEngine, and the engine the
// case is digested with (the zero value is mmw).
type digestCase struct {
	name, kind string
	req        Request
	def        core.EngineKind
}

func digestCases(t *testing.T) []digestCase {
	doc := denseInstance(t, 6, 8, 23)
	return []digestCase{
		{"decision", "decision", Request{Instance: doc, Eps: 0.25, Seed: 3, Scale: 0.5}, core.EngineMMW},
		{"decision-alo", "decision", Request{Instance: doc, Eps: 0.25, Seed: 3, Scale: 0.5, Engine: "alo"}, core.EngineMMW},
		{"decision-factored", "decision", Request{Instance: factoredInstance(t, 10, 16, 29), Eps: 0.3, Seed: 7, Scale: 0.1, SketchEps: 0.4}, core.EngineMMW},
		{"maximize", "maximize", Request{Instance: doc, Eps: 0.25, Seed: 3}, core.EngineMMW},
		{"solve", "solve", Request{Program: &ProgramDoc{
			C: [][]float64{{2, 0}, {0, 1}},
			A: [][][]float64{{{1, 0}, {0, 0.5}}},
			B: []float64{1},
		}, Eps: 0.2, Seed: 2}, core.EngineMMW},
		{"mixed-dense", "mixed", Request{Instance: mixedFromPack(t, denseInstance(t, 4, 6, 31)), Eps: 0.2, Seed: 5}, core.EngineMMW},
		{"mixed-sparse", "mixed", Request{Instance: mixedFromPack(t, sparseInstance(t, 6, 14, 37)), Eps: 0.25, Seed: 5}, core.EngineMMW},
		// eps 0.05 on a sparse set: "auto" resolves to alo in the digest.
		{"decision-auto", "decision", Request{Instance: sparseInstance(t, 6, 18, 41), Eps: 0.05, Seed: 3, Engine: "auto", MaxIter: 40}, core.EngineMMW},
		{"decision-default-alo", "decision", Request{Instance: doc, Eps: 0.25, Seed: 3, Scale: 0.5}, core.EngineALO},
	}
}
