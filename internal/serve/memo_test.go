package serve

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/instio"
)

// The memo never holds more than its capacity, and an entry that keeps
// being used survives any number of inserts.
func TestBodyMemoBound(t *testing.T) {
	var m BodyMemo[int]
	hot := HashBody("decision", []byte("hot"))
	m.Put(hot, -1)
	for i := 0; i < 3*bodyMemoEntries; i++ {
		m.Put(HashBody("decision", []byte(strings.Repeat("x", i))), i)
		if n := m.Len(); n > bodyMemoEntries {
			t.Fatalf("after %d inserts the memo holds %d entries, cap %d", i+1, n, bodyMemoEntries)
		}
		if v, ok := m.Get(hot); !ok || v != -1 {
			t.Fatalf("hot entry lost after %d inserts", i+1)
		}
	}
	if _, ok := m.Get(HashBody("decision", []byte(""))); ok {
		t.Fatal("the oldest cold entry outlived three capacities of inserts")
	}
	if HashBody("decision", []byte("x")) == HashBody("maximize", []byte("x")) {
		t.Fatal("the memo key ignores the kind")
	}
}

// Concurrent Puts and Gets (every handler of a tier shares one memo)
// stay bounded and never read back another key's value.
func TestBodyMemoConcurrent(t *testing.T) {
	var m BodyMemo[int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < bodyMemoEntries; i++ {
				k := HashBody("decision", []byte{byte(g), byte(i), byte(i >> 8)})
				m.Put(k, i)
				if v, ok := m.Get(k); ok && v != i {
					t.Errorf("goroutine %d: key %d read back %d", g, i, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := m.Len(); n > bodyMemoEntries {
		t.Fatalf("memo holds %d entries, cap %d", n, bodyMemoEntries)
	}
}

// counterDelta is after − before over every numeric /statsz field but
// the uptime and the memo's own hit counter.
func counterDelta(t *testing.T, before, after StatsResponse) map[string]float64 {
	t.Helper()
	flat := func(st StatsResponse) map[string]any {
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := flat(before), flat(after)
	out := map[string]float64{}
	for k, v := range b {
		x, ok := v.(float64)
		if !ok || k == "uptimeSeconds" || k == "bodyMemoHits" {
			continue
		}
		out[k] = x - a[k].(float64)
	}
	return out
}

// psdpdHeaders collects every X-Psdpd-* response header.
func psdpdHeaders(resp *http.Response) map[string]string {
	out := map[string]string{}
	for k, v := range resp.Header {
		if strings.HasPrefix(k, "X-Psdpd-") {
			out[k] = strings.Join(v, ",")
		}
	}
	return out
}

// A memo hit must be indistinguishable from a hit that decoded, built
// and digested the request: same body, same X-Psdpd-* headers, and the
// same movement of every /statsz counter. The slow-path hit re-sends
// the request with different whitespace — new bytes, same digest.
func TestBodyMemoHitMatchesSlowPath(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	sALO, tsALO := newTestServer(t, Config{Workers: 2, DefaultEngine: core.EngineALO})
	for _, tc := range digestCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			srv, url := s, ts.URL+"/v1/"+tc.kind
			if tc.def == core.EngineALO {
				srv, url = sALO, tsALO.URL+"/v1/"+tc.kind
			}
			compact, err := json.Marshal(&tc.req)
			if err != nil {
				t.Fatal(err)
			}
			indented, err := json.MarshalIndent(&tc.req, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			indented = append(indented, '\n')
			if resp, body := postJSON(t, url, compact); resp.StatusCode != http.StatusOK {
				t.Fatalf("first solve: status %d: %s", resp.StatusCode, body)
			}
			post := func(body []byte) (*http.Response, []byte, map[string]float64, int64) {
				before := srv.Stats()
				resp, out := postJSON(t, url, body)
				after := srv.Stats()
				return resp, out, counterDelta(t, before, after), after.BodyMemoHits - before.BodyMemoHits
			}
			slowResp, slowBody, slowDelta, slowMemo := post(indented)
			memoResp, memoBody, memoDelta, memoMemo := post(compact)
			if slowMemo != 0 || memoMemo != 1 {
				t.Fatalf("memo hits moved %d on new bytes and %d on repeated bytes, want 0 and 1", slowMemo, memoMemo)
			}
			if got := slowResp.Header.Get("X-Psdpd-Cache"); got != "hit" {
				t.Fatalf("slow-path repeat: cache %q, want hit", got)
			}
			if !bytes.Equal(memoBody, slowBody) {
				t.Fatalf("memo hit body differs:\n%s\nvs\n%s", memoBody, slowBody)
			}
			if mh, sh := psdpdHeaders(memoResp), psdpdHeaders(slowResp); !maps.Equal(mh, sh) {
				t.Fatalf("memo hit headers %v, slow-path hit headers %v", mh, sh)
			}
			if !maps.Equal(memoDelta, slowDelta) {
				t.Fatalf("memo hit moved /statsz by %v, slow-path hit by %v", memoDelta, slowDelta)
			}
		})
	}
}

// A memoized body whose answer was evicted from the result store is
// solved again, byte-identically, and then answered from the memo.
func TestBodyMemoAfterResultEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 1})
	a, _ := json.Marshal(&Request{Instance: denseInstance(t, 6, 8, 61), Eps: 0.25, Seed: 3})
	b, _ := json.Marshal(&Request{Instance: denseInstance(t, 6, 8, 62), Eps: 0.25, Seed: 3})
	first, firstBody := postJSON(t, ts.URL+"/v1/decision", a)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", first.StatusCode, firstBody)
	}
	postJSON(t, ts.URL+"/v1/decision", b) // evicts a's answer
	for i, want := range []string{"miss", "hit"} {
		resp, body := postJSON(t, ts.URL+"/v1/decision", a)
		if got := resp.Header.Get("X-Psdpd-Cache"); resp.StatusCode != http.StatusOK || got != want {
			t.Fatalf("repeat %d: status %d cache %q, want 200 %s", i, resp.StatusCode, got, want)
		}
		if !bytes.Equal(body, firstBody) || psdpdHeaders(resp)["X-Psdpd-Digest"] != psdpdHeaders(first)["X-Psdpd-Digest"] {
			t.Fatalf("repeat %d differs from the first solve", i)
		}
	}
	if st := s.Stats(); st.Solves != 3 || st.BodyMemoHits != 1 {
		t.Fatalf("solves %d memo hits %d, want 3 and 1", st.Solves, st.BodyMemoHits)
	}
}

// A memoized sparse decision base whose revision was evicted is not a
// memo hit: it re-solves byte-identically and re-records its revision,
// so a delta off it works again.
func TestBodyMemoAfterRevisionEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Shards: 1, RevisionEntries: 1})
	base, _ := json.Marshal(&Request{Instance: sparseInstance(t, 6, 14, 71), Eps: 0.25, Seed: 5, Scale: 0.2})
	other, _ := json.Marshal(&Request{Instance: sparseInstance(t, 6, 14, 72), Eps: 0.25, Seed: 5, Scale: 0.2})
	first, firstBody := postJSON(t, ts.URL+"/v1/decision", base)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", first.StatusCode, firstBody)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/decision", base); resp.Header.Get("X-Psdpd-Cache") != "hit" || s.Stats().BodyMemoHits != 1 {
		t.Fatal("repeat with its revision stored was not a memo hit")
	}
	postJSON(t, ts.URL+"/v1/decision", other) // evicts base's revision
	baseDigest := first.Header.Get("X-Psdpd-Digest")
	key, _ := parseDigest(baseDigest)
	if s.revs.Get(key) != nil {
		t.Fatal("base revision survived eviction")
	}
	resp, body := postJSON(t, ts.URL+"/v1/decision", base)
	if got := resp.Header.Get("X-Psdpd-Cache"); got != "miss" || !bytes.Equal(body, firstBody) {
		t.Fatalf("repeat after revision eviction: cache %q, equal bytes %v; want a byte-identical re-solve", got, bytes.Equal(body, firstBody))
	}
	if s.revs.Get(key) == nil || s.Stats().BodyMemoHits != 1 {
		t.Fatal("re-solve did not re-record the revision, or counted as a memo hit")
	}
	delta := Request{Instance: &instio.Instance{Delta: &instio.Delta{
		Base: baseDigest, Scale: []instio.DeltaScale{{I: 1, By: 1.03}},
	}}, Eps: 0.25, Seed: 5, Scale: 0.2}
	if dresp, dbody := postJSON(t, ts.URL+"/v1/delta", &delta); dresp.StatusCode != http.StatusOK {
		t.Fatalf("delta off the re-solved base: status %d: %s", dresp.StatusCode, dbody)
	}
}
