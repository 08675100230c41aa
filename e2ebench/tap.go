package main

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/placement"
	"repro/internal/store"
)

// tap is serve-mix's tracing: wrappers around the public surface of the
// front, the replicas and their stores, built only for a traced run.
// Spans cross HTTP hops by two request headers the client and the
// front's proxy transport set; store calls, which carry only a digest,
// are tied to the op that has that digest in flight.
type tap struct {
	tr *Tracer

	mu       sync.Mutex
	inflight map[store.Key]int64 // digest → op
	handler  map[[2]int64]int64  // (replica, op) → replica handler span
	peerSpan map[peerKey]int64   // (replica, digest) → open peer-store Get span
	localHit map[peerKey]bool    // (replica, digest) → local layer hit inside that Get

	gets, hits atomic.Int64 // local result-store lookups
}

type peerKey struct {
	replica int
	key     store.Key
}

const (
	hdrOp     = "X-Bench-Op"
	hdrParent = "X-Bench-Parent"
)

type spanCtxKey struct{}

// spanCtx is the op and span a front request runs under.
type spanCtx struct{ op, span int64 }

func newTap(tr *Tracer) *tap {
	return &tap{
		tr:       tr,
		inflight: map[store.Key]int64{},
		handler:  map[[2]int64]int64{},
		peerSpan: map[peerKey]int64{},
		localHit: map[peerKey]bool{},
	}
}

// begin marks op in flight under key and labels its request.
func (t *tap) begin(op, root int64, key store.Key, req *http.Request) {
	req.Header.Set(hdrOp, strconv.FormatInt(op, 10))
	req.Header.Set(hdrParent, strconv.FormatInt(root, 10))
	t.mu.Lock()
	t.inflight[key] = op
	t.mu.Unlock()
}

func (t *tap) end(key store.Key) {
	t.mu.Lock()
	delete(t.inflight, key)
	t.mu.Unlock()
}

func (t *tap) opOf(key store.Key) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if op, ok := t.inflight[key]; ok {
		return op
	}
	return noOp
}

// labels reads the op and parent span a request carries.
func labels(r *http.Request) (op, parent int64, ok bool) {
	o, err1 := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
	p, err2 := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
	return o, p, err1 == nil && err2 == nil
}

// frontHandler records a cluster.front span per op request and hands
// its identity to the proxy transport through the request context.
func (t *tap) frontHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, parent, ok := labels(r)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		id, s0 := t.tr.NewID(), t.tr.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, spanCtx{op, id})))
		t.tr.Add(Span{ID: id, Parent: parent, Op: op, Name: "cluster.front", Start: s0, End: t.tr.Now()})
	})
}

// proxyClient is the front's default proxy client with a transport
// that labels each proxied request with the front span it serves.
func (t *tap) proxyClient() *http.Client {
	return &http.Client{
		Transport:     labelTransport{http.DefaultTransport},
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
}

type labelTransport struct{ base http.RoundTripper }

func (l labelTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sc, ok := req.Context().Value(spanCtxKey{}).(spanCtx)
	if !ok {
		return l.base.RoundTrip(req)
	}
	r := req.Clone(req.Context())
	r.Header.Set(hdrOp, strconv.FormatInt(sc.op, 10))
	r.Header.Set(hdrParent, strconv.FormatInt(sc.span, 10))
	return l.base.RoundTrip(r)
}

// replicaHandler records a serve.handler span per op request, tagged
// by cache disposition ("warm" for a delta solve), and a
// serve.peer_endpoint span per peer fetch it answers.
func (t *tap) replicaHandler(i int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, parent, ok := labels(r)
		name := "serve.handler"
		if !ok && strings.HasPrefix(r.URL.Path, "/v1/peer/") {
			key, err := store.ParseKey(r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:])
			if op = t.opOf(key); err == nil && op != noOp {
				ok, parent, name = true, 0, "serve.peer_endpoint"
			}
		}
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		id, s0 := t.tr.NewID(), t.tr.Now()
		hk := [2]int64{int64(i), op}
		if name == "serve.handler" {
			t.mu.Lock()
			t.handler[hk] = id
			t.mu.Unlock()
		}
		h.ServeHTTP(w, r)
		s1 := t.tr.Now()
		if name == "serve.handler" {
			t.mu.Lock()
			delete(t.handler, hk)
			t.mu.Unlock()
		}
		tag := w.Header().Get("X-Psdpd-Cache")
		if tag == "miss" && r.URL.Path == "/v1/delta" {
			tag = "warm"
		}
		t.tr.Add(Span{ID: id, Parent: parent, Op: op, Name: name, Tag: tag, Start: s0, End: s1})
	})
}

// storeSpan records a span around a store call on replica i, under
// the op that has key in flight: inside the open peer-store Get for
// key when there is one, else inside the op's replica handler.
func (t *tap) storeSpan(i int, key store.Key, name string, f func()) {
	op := t.opOf(key)
	t.mu.Lock()
	parent, ok := t.peerSpan[peerKey{i, key}]
	if !ok {
		parent = t.handler[[2]int64{int64(i), op}]
	}
	t.mu.Unlock()
	id, s0 := t.tr.NewID(), t.tr.Now()
	f()
	t.tr.Add(Span{ID: id, Parent: parent, Op: op, Name: name, Start: s0, End: t.tr.Now()})
}

func (t *tap) resultHitRatio() float64 {
	g := t.gets.Load()
	if g == 0 {
		return 0
	}
	return float64(t.hits.Load()) / float64(g)
}

// localResults times replica i's in-process result store.
func (t *tap) localResults(i int, s store.ResultStore) store.ResultStore {
	return &timedResults{t: t, i: i, inner: s}
}

type timedResults struct {
	t     *tap
	i     int
	inner store.ResultStore
}

func (s *timedResults) Get(key store.Key) (body []byte, iters int) {
	s.t.storeSpan(s.i, key, "store.result_get", func() { body, iters = s.inner.Get(key) })
	s.t.gets.Add(1)
	if body != nil {
		s.t.hits.Add(1)
		s.t.mu.Lock()
		if _, open := s.t.peerSpan[peerKey{s.i, key}]; open {
			s.t.localHit[peerKey{s.i, key}] = true
		}
		s.t.mu.Unlock()
	}
	return body, iters
}

func (s *timedResults) Put(key store.Key, body []byte, iters int) {
	s.t.storeSpan(s.i, key, "store.result_put", func() { s.inner.Put(key, body, iters) })
}

func (s *timedResults) Len() int                       { return s.inner.Len() }
func (s *timedResults) Counters() (hits, misses int64) { return s.inner.Counters() }

// localRevisions times replica i's in-process revision store.
func (t *tap) localRevisions(i int, s store.RevisionStore) store.RevisionStore {
	return &timedRevisions{t: t, i: i, inner: s}
}

type timedRevisions struct {
	t     *tap
	i     int
	inner store.RevisionStore
}

func (s *timedRevisions) Get(key store.Key) (rev *store.Revision) {
	s.t.storeSpan(s.i, key, "store.revision_get", func() { rev = s.inner.Get(key) })
	return rev
}

func (s *timedRevisions) Put(key store.Key, rev *store.Revision) {
	s.t.storeSpan(s.i, key, "store.revision_put", func() { s.inner.Put(key, rev) })
}

func (s *timedRevisions) Len() int { return s.inner.Len() }

// peerStore is the part of cluster.PeerResultStore the server uses.
type peerStore interface {
	store.ResultStore
	Local() store.ResultStore
}

// peerResults times replica i's peer-backed result store. Its Get
// spans are tagged "local" (the local layer had the digest), "fetch"
// (the owner answered with it), "fetch-miss" (the owner did not have
// it) or "self" (a local miss on a digest this replica owns).
func (t *tap) peerResults(i int, p peerStore, ring *placement.Ring) store.ResultStore {
	return &timedPeer{peerStore: p, t: t, i: i, ring: ring}
}

type timedPeer struct {
	peerStore
	t    *tap
	i    int
	ring *placement.Ring
}

func (p *timedPeer) Get(key store.Key) ([]byte, int) {
	op := p.t.opOf(key)
	pk := peerKey{p.i, key}
	id, s0 := p.t.tr.NewID(), p.t.tr.Now()
	p.t.mu.Lock()
	parent := p.t.handler[[2]int64{int64(p.i), op}]
	p.t.peerSpan[pk] = id
	p.t.mu.Unlock()
	body, iters := p.peerStore.Get(key)
	s1 := p.t.tr.Now()
	p.t.mu.Lock()
	local := p.t.localHit[pk]
	delete(p.t.peerSpan, pk)
	delete(p.t.localHit, pk)
	p.t.mu.Unlock()
	tag := "local"
	if !local {
		_, remote := p.ring.Owner(key)
		switch {
		case !remote:
			tag = "self"
		case body != nil:
			tag = "fetch"
		default:
			tag = "fetch-miss"
		}
	}
	p.t.tr.Add(Span{ID: id, Parent: parent, Op: op, Name: "cluster.peer_get", Tag: tag, Start: s0, End: s1})
	return body, iters
}
