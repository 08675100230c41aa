package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/instio"
	"repro/internal/mixed"
	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/store"
)

// serve-mix runs two psdpd replicas (one solver worker each) and a
// psdpfront in this process, on loopback listeners, wired as the
// psdpd and psdpfront commands wire them. Two closed-loop clients,
// each with one keep-alive connection per host, send a request stream
// that mixes cold solves with repeats of earlier digests.
const (
	replicas    = 2
	clients     = 2
	bootTimeout = 15 * time.Second
	// reqTimeout bounds one request; a request that hits it is failed.
	reqTimeout = 30 * time.Second
	// recent is how far back a repeat or a delta base may reach in its
	// client's stream, which keeps every referenced revision well
	// inside the replicas' default revision store.
	recent = 32
	// resultEntries and revisionEntries are psdpd's defaults.
	resultEntries   = 1024
	revisionEntries = 128
)

// slotPattern is one client's request stream, repeated: four solves
// (cold decisions, a maximize or mixed solve, and a delta or a cold
// decision) against four repeats through the front and two repeats
// sent straight to a replica that does not own the digest. 60% of the
// requests are served from a cache, so p50 reads the request path and
// p90 reads the solve path, and neither rank sits on the boundary.
var slotPattern = []string{"cold", "hit", "peer", "cold", "hit", "solve", "hit", "peer", "delta", "hit"}

// sreq is one request of a client's stream.
type sreq struct {
	class string // decision-dense|decision-sparse|decision-factored|maximize|mixed|delta|hit|peer
	path  string
	body  []byte
	key   store.Key // content digest; the base digest for a delta
	ref   int       // stream index of the cold request a hit, peer or delta refers to
	wire  *serve.Request
	base  *instio.Instance // delta only: the base instance
}

func (r *sreq) cold() bool { return r.class != "hit" && r.class != "peer" }

type serveWorkload struct{}

func serveMix() workload { return &serveWorkload{} }

// stream is one client's request stream. It is built from the seed
// ahead of the window, long enough for a run at the expected request
// rate, and grown from the same generator if a client gets through it,
// so a client never stops before the deadline and the requests do not
// depend on when they were generated.
type stream struct {
	rng         *rand.Rand
	reqs        []*sreq
	colds       []int // recent cold requests (not deltas)
	sparseBases []int // sparse decision bases
	peered      map[int]bool
	rot, alt    int
	grown       int // patterns added during a window
}

// streamRate is how many requests per second of run each client's
// stream is built for ahead of the window: over three times the 44 a
// client completed per second on a 2-core x86-64 box, so a stream is
// grown during the window only on a much faster program or machine.
const streamRate = 150

// streams builds each client's request stream for a run of the given
// length from seed.
func (w *serveWorkload) streams(seed uint64, seconds float64) ([]*stream, error) {
	out := make([]*stream, clients)
	n := int(math.Ceil(seconds * streamRate))
	for c := range out {
		s := newStream(seed, c)
		for len(s.reqs) < n {
			if err := s.grow(); err != nil {
				return nil, err
			}
		}
		out[c] = s
	}
	return out, nil
}

func newStream(seed uint64, client int) *stream {
	return &stream{rng: rand.New(rand.NewPCG(seed, uint64(0x5e7e+client))), peered: map[int]bool{}}
}

// at returns request i, growing the stream if it is not built yet.
func (s *stream) at(i int) (*sreq, error) {
	for i >= len(s.reqs) {
		if err := s.grow(); err != nil {
			return nil, err
		}
		s.grown++
	}
	return s.reqs[i], nil
}

// grow appends one slot pattern to the stream.
func (s *stream) grow() error {
	rng := s.rng
	for _, slot := range slotPattern {
		var r *sreq
		var err error
		switch slot {
		case "cold":
			r, err = coldDecision(rng, s.rot)
			s.rot++
		case "solve":
			if s.alt%2 == 0 {
				r, err = coldMaximize(rng, s.alt)
			} else {
				r, err = coldMixed(rng, s.alt)
			}
			s.alt++
		case "delta":
			if len(s.sparseBases) > 0 {
				b := s.sparseBases[len(s.sparseBases)-1]
				r, err = deltaOf(rng, s.reqs[b], b)
			} else {
				r, err = coldDecision(rng, 1)
			}
		case "hit", "peer":
			lo := max(0, len(s.colds)-recent)
			var cands []int
			for _, i := range s.colds[lo:] {
				if slot == "hit" || !s.peered[i] {
					cands = append(cands, i)
				}
			}
			if len(cands) == 0 {
				r, err = coldDecision(rng, s.rot)
				s.rot++
				break
			}
			ref := cands[rng.IntN(len(cands))]
			s.peered[ref] = s.peered[ref] || slot == "peer"
			c := s.reqs[ref]
			r = &sreq{class: slot, path: c.path, body: c.body, key: c.key, ref: ref, wire: c.wire}
		}
		if err != nil {
			return err
		}
		if r.cold() && r.class != "delta" {
			s.colds = append(s.colds, len(s.reqs))
			if r.class == "decision-sparse" {
				s.sparseBases = append(s.sparseBases, len(s.reqs))
			}
		}
		s.reqs = append(s.reqs, r)
	}
	return nil
}

// engineName alternates the engines by position, so every seed sends
// the same engine mix.
func engineName(i int) string {
	if i%2 == 0 {
		return core.EngineNameMMW
	}
	return core.EngineNameALO
}

// coldDecision is a unique-digest /v1/decision request on a dense,
// sparse or factored instance.
func coldDecision(rng *rand.Rand, rot int) (*sreq, error) {
	req := &serve.Request{Eps: 0.2, Seed: rng.Uint64(), Engine: engineName(rot / 3)}
	class := ""
	switch rot % 3 {
	case 0:
		set, err := core.NewDenseSet(gen.RandomDense(6, 8, 0, rng).A)
		if err != nil {
			return nil, err
		}
		req.Instance, req.Oracle, req.Scale, class = instio.FromDenseSet(set), "dense", 1, "decision-dense"
	case 1:
		sp, err := gen.SparseEdgePacking(erGraph(10, 4, rng))
		if err != nil {
			return nil, err
		}
		set, err := core.NewSparseSet(sp.A)
		if err != nil {
			return nil, err
		}
		req.Instance, req.Oracle, req.Scale, class = instio.FromSparseSet(set), "exact", 1, "decision-sparse"
	default:
		f, err := gen.GraphEdgePacking(erGraph(10, 4, rng))
		if err != nil {
			return nil, err
		}
		set, err := core.NewFactoredSet(f.Q)
		if err != nil {
			return nil, err
		}
		req.Instance, req.Oracle, req.Scale, class = instio.FromFactoredSet(set), "jl", 1, "decision-factored"
	}
	return newReq(class, "decision", req)
}

func coldMaximize(rng *rand.Rand, alt int) (*sreq, error) {
	set, err := core.NewDenseSet(gen.RandomDense(6, 8, 0, rng).A)
	if err != nil {
		return nil, err
	}
	req := &serve.Request{Instance: instio.FromDenseSet(set), Eps: 0.25, Seed: rng.Uint64(), Engine: engineName(alt / 2), Oracle: "dense"}
	return newReq("maximize", "maximize", req)
}

func coldMixed(rng *rand.Rand, alt int) (*sreq, error) {
	lp, err := gen.MixedCoveringLP(12, 12, 8, 0.4, rng)
	if err != nil {
		return nil, err
	}
	set, err := core.NewDenseSet(lp.A)
	if err != nil {
		return nil, err
	}
	p, err := mixed.NewProblem(set, lp.C)
	if err != nil {
		return nil, err
	}
	inst, err := instio.FromMixedProblem(p)
	if err != nil {
		return nil, err
	}
	req := &serve.Request{Instance: inst, Eps: 0.1, Seed: rng.Uint64(), Engine: engineName(alt / 2), Oracle: "dense"}
	return newReq("mixed", "mixed", req)
}

// deltaOf is a /v1/delta warm start off the sparse decision at index
// b: three constraints rescaled by up to 4%.
func deltaOf(rng *rand.Rand, base *sreq, b int) (*sreq, error) {
	n := len(base.wire.Instance.Sparse)
	var scale []instio.DeltaScale
	for _, i := range rng.Perm(n)[:min(3, n)] {
		scale = append(scale, instio.DeltaScale{I: i, By: 1 + 0.08*(rng.Float64()-0.5)})
	}
	req := *base.wire
	req.Instance = &instio.Instance{Delta: &instio.Delta{Base: hex.EncodeToString(base.key[:]), Scale: scale}}
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	return &sreq{class: "delta", path: "/v1/delta", body: body, key: base.key, ref: b, wire: &req, base: base.wire.Instance}, nil
}

func newReq(class, kind string, req *serve.Request) (*sreq, error) {
	key, err := serve.ContentDigest(kind, req, core.EngineMMW)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", class, err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &sreq{class: class, path: "/v1/" + kind, body: body, key: key, ref: -1, wire: req}, nil
}

// fleet is the in-process cluster.
type fleet struct {
	cancel  context.CancelFunc
	urls    []string
	front   string
	https   []*http.Server
	srvs    []*serve.Server
	reps    []*cluster.Replica
	ring    *placement.Ring
	tap     *tap
	bootDur time.Duration
}

// reserveAddrs picks free loopback ports and releases them, so each
// member's address is known before it starts, as a static -cluster
// list is.
func reserveAddrs(n int) ([]string, error) {
	out := make([]string, n)
	for i := range out {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		out[i] = ln.Addr().String()
		ln.Close()
	}
	return out, nil
}

// bootFleet starts the replicas one after another, in the order the
// psdpd command sets one up (cluster wiring and probing first, then
// the server, then the listener), then the front, and waits until every
// replica and the front have probed every member healthy. It keeps the
// default 500 ms probe interval, so the time includes the window in
// which an early replica has seen a later one down.
func bootFleet(tp *tap) (*fleet, error) {
	addrs, err := reserveAddrs(replicas + 1)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{cancel: cancel, front: "http://" + addrs[replicas], tap: tp}
	for _, a := range addrs[:replicas] {
		f.urls = append(f.urls, "http://"+a)
	}
	start := time.Now()
	serveOn := func(addr string, h http.Handler) error {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: h}
		f.https = append(f.https, hs)
		go hs.Serve(ln)
		return nil
	}
	for i, url := range f.urls {
		var lres store.ResultStore = store.NewResultLRU(resultEntries)
		var lrev store.RevisionStore = store.NewRevisionLRU(revisionEntries)
		if tp != nil {
			lres, lrev = tp.localResults(i, lres), tp.localRevisions(i, lrev)
		}
		rep := cluster.NewReplica(cluster.ReplicaConfig{
			Self: url, Members: f.urls, LocalResults: lres, LocalRevisions: lrev,
		})
		rep.Start(ctx)
		cfg := serve.Config{
			Workers: 1, Results: rep.Results, Revisions: rep.Revisions, Placement: rep.Ring,
			SelfURL: url, ClusterInfo: rep.Info, RegisterMetrics: rep.RegisterMetrics,
		}
		if tp != nil {
			cfg.Results = tp.peerResults(i, rep.Results, rep.Ring)
		}
		srv := serve.New(cfg)
		var h http.Handler = srv
		if tp != nil {
			h = tp.replicaHandler(i, srv)
		}
		f.srvs = append(f.srvs, srv)
		f.reps = append(f.reps, rep)
		if err := serveOn(addrs[i], h); err != nil {
			f.close()
			return nil, err
		}
		// A replica process is up once it has listened and probed its
		// members; the next one starts after that, as a second psdpd
		// process started after the first would.
		for !probedAll(rep.Prober.Snapshot()) {
			if time.Since(start) > bootTimeout {
				f.close()
				return nil, errors.New("serve-mix: replica did not finish its first probe round")
			}
			time.Sleep(time.Millisecond)
		}
	}
	fcfg := cluster.FrontConfig{Members: f.urls, DefaultEngine: core.EngineMMW}
	if tp != nil {
		fcfg.ProxyClient = tp.proxyClient()
	}
	front := cluster.NewFront(fcfg)
	front.Start(ctx)
	var fh http.Handler = front
	if tp != nil {
		fh = tp.frontHandler(front)
	}
	if err := serveOn(addrs[replicas], fh); err != nil {
		f.close()
		return nil, err
	}
	poll := &http.Client{Timeout: time.Second}
	for !f.converged(poll) {
		if time.Since(start) > bootTimeout {
			f.close()
			return nil, errors.New("serve-mix: cluster did not converge")
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.bootDur = time.Since(start)
	poll.CloseIdleConnections()
	f.ring = placement.NewRing("", f.urls)
	return f, nil
}

// probedAll reports whether a prober has probed every member once.
func probedAll(ms []cluster.MemberStatus) bool {
	for _, m := range ms {
		if m.LastProbe == "" {
			return false
		}
	}
	return true
}

// converged reports whether every replica and the front have probed
// every member and found it healthy. Probers start out assuming every
// member healthy, so a member counts only once probed.
func (f *fleet) converged(poll *http.Client) bool {
	allUp := func(ms []cluster.MemberStatus) bool {
		if len(ms) != replicas || !probedAll(ms) {
			return false
		}
		for _, m := range ms {
			if !m.Healthy {
				return false
			}
		}
		return true
	}
	for _, r := range f.reps {
		if !allUp(r.Prober.Snapshot()) {
			return false
		}
	}
	resp, err := poll.Get(f.front + "/statsz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var st cluster.FrontStats
	return json.NewDecoder(resp.Body).Decode(&st) == nil && allUp(st.Members)
}

// close stops the fleet and waits for its listeners to close.
func (f *fleet) close() {
	f.cancel()
	for _, h := range f.https {
		h.Close()
	}
	for _, s := range f.srvs {
		s.Close()
	}
}

// target is where a request goes: the front, or for a peer repeat the
// replica that does not own its digest.
func (f *fleet) target(r *sreq) string {
	if r.class != "peer" {
		return f.front
	}
	owner, _ := f.ring.OwnerName(r.key)
	for _, u := range f.urls {
		if u != owner {
			return u
		}
	}
	return f.front
}

// sres is one request's outcome.
type sres struct {
	client, idx int
	status      int
	cache       string
	body        []byte
	iters       int
	dur         time.Duration
	err         error
}

type serveWindow struct {
	res     []sres
	elapsed time.Duration
	cpu     time.Duration
	mem     memDelta
}

// window drives both clients for d.
func (w *serveWorkload) window(f *fleet, streams []*stream, d time.Duration) *serveWindow {
	out := &serveWindow{}
	per := make([][]sres, clients)
	var wg sync.WaitGroup
	mem0 := readMem()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr, Timeout: reqTimeout}
			for i := 0; time.Now().Before(deadline); i++ {
				r, err := streams[c].at(i)
				if err != nil {
					per[c] = append(per[c], sres{client: c, idx: i, err: err})
					return
				}
				per[c] = append(per[c], f.send(hc, c, i, r, f.target(r)+r.path))
			}
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	out.cpu = cpuTime() - cpu0
	out.mem = readMem().sub(mem0)
	for _, p := range per {
		out.res = append(out.res, p...)
	}
	return out
}

// send performs one request and reads its whole body.
func (f *fleet) send(hc *http.Client, c, i int, r *sreq, url string) sres {
	res := sres{client: c, idx: i}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(r.body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	op := opID(c, i)
	var root, s0 int64
	if f.tap != nil {
		root = f.tap.tr.NewID()
		f.tap.begin(op, root, r.key, req)
		s0 = f.tap.tr.Now()
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err == nil {
		res.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		res.status = resp.StatusCode
		res.cache = resp.Header.Get("X-Psdpd-Cache")
		res.iters, _ = strconv.Atoi(resp.Header.Get("X-Psdpd-Iterations"))
	}
	res.dur = time.Since(t0)
	if f.tap != nil {
		f.tap.tr.Add(Span{ID: root, Op: op, Name: rootSpan, Tag: r.class, Start: s0, End: f.tap.tr.Now()})
		f.tap.end(r.key)
	}
	res.err = err
	res.body = bytes.TrimSuffix(res.body, []byte("\n"))
	return res
}

func opID(c, i int) int64 { return int64(c)<<32 | int64(i) }

// serveChecked is the verdict on a window.
type serveChecked struct {
	checked
	lat    []float64
	verify []time.Duration
}

// check verifies every response after the window: each cold answer
// against the request's own instance, each warm delta answer against
// the materialized instance, and each repeat byte for byte against the
// cold answer for the same digest.
func (w *serveWorkload) check(streams []*stream, win *serveWindow) *serveChecked {
	c := &serveChecked{}
	c.ok = make([]bool, len(win.res))
	cold := make([]map[int][]byte, clients)
	for i := range cold {
		cold[i] = map[int][]byte{}
	}
	for k, res := range win.res {
		r := streams[res.client].reqs[res.idx]
		tag := fmt.Sprintf("client %d request %d (%s)", res.client, res.idx, r.class)
		switch {
		case res.err != nil:
			c.fail("%s: %v", tag, res.err)
			continue
		case res.status != http.StatusOK:
			c.fail("%s: status %d: %.200s", tag, res.status, res.body)
			continue
		}
		if r.cold() {
			if res.cache != "miss" {
				c.fail("%s: cache %q, want miss", tag, res.cache)
				continue
			}
			ratio, v, err := verifyServed(r, res.body)
			if err != nil {
				c.fail("%s: %v", tag, err)
				continue
			}
			if ratio > 0 {
				c.ratios = append(c.ratios, ratio)
			}
			c.verify = append(c.verify, v)
			cold[res.client][res.idx] = res.body
		} else {
			want, ok := cold[res.client][r.ref]
			if res.cache != "hit" || !ok || !bytes.Equal(want, res.body) {
				c.fail("%s: cache %q, or body differs from the cold answer for its digest", tag, res.cache)
				continue
			}
			if ratio := bracketOf(res.body); ratio > 0 {
				c.ratios = append(c.ratios, ratio)
			}
		}
		c.ok[k] = true
		c.lat = append(c.lat, ms(res.dur))
	}
	return c
}

// bracketOf returns Upper/Lower of a decision or maximize body, or 0.
func bracketOf(body []byte) float64 {
	var b struct {
		Lower, Upper *serve.Num
	}
	if json.Unmarshal(body, &b) != nil || b.Lower == nil || b.Upper == nil || *b.Lower <= 0 {
		return 0
	}
	return float64(*b.Upper) / float64(*b.Lower)
}

// verifyServed re-checks a cold or warm answer against the instance
// the request carried (for a delta, the base with the delta applied).
func verifyServed(r *sreq, body []byte) (float64, time.Duration, error) {
	inst := r.wire.Instance
	if r.class == "delta" {
		var err error
		if inst, err = instio.ApplyDelta(r.base, inst); err != nil {
			return 0, 0, err
		}
	}
	eps := r.wire.Eps
	switch r.class {
	case "mixed":
		var resp serve.MixedResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return 0, 0, err
		}
		if resp.Status != "feasible" {
			return 0, 0, fmt.Errorf("mixed status %q", resp.Status)
		}
		p, err := instio.BuildMixed(inst)
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		err = checkMixed(p, eps, resp.X)
		return 0, time.Since(t0), err
	case "maximize":
		var resp serve.MaximizeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return 0, 0, err
		}
		set, err := instio.Build(inst)
		if err != nil {
			return 0, 0, err
		}
		lo, hi := float64(resp.Lower), float64(resp.Upper)
		if !(lo > 0 && lo <= hi && hi/lo-1 <= eps) {
			return 0, 0, fmt.Errorf("bracket [%g, %g] invalid at eps %g", lo, hi, eps)
		}
		v, err := verifyWitness(set, resp.X)
		return hi / lo, v, err
	default:
		var resp serve.DecisionResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return 0, 0, err
		}
		set, err := instio.Build(inst)
		if err != nil {
			return 0, 0, err
		}
		lo, hi := float64(resp.Lower), float64(resp.Upper)
		if !(lo > 0 && lo <= hi) {
			return 0, 0, fmt.Errorf("bracket [%g, %g] invalid", lo, hi)
		}
		var v time.Duration
		if resp.Outcome == core.OutcomeDual.String() {
			v, err = verifyWitness(set.WithScale(r.wire.Scale), resp.X)
		}
		return hi / lo, v, err
	}
}

// run executes serve-mix.
func (w *serveWorkload) run(cfg runConfig) (*report, error) {
	streams, err := w.streams(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	var boots []float64
	var f *fleet
	for i := 0; i < setupReps; i++ {
		if f != nil {
			f.close()
		}
		if f, err = bootFleet(nil); err != nil {
			return nil, err
		}
		boots = append(boots, f.bootDur.Seconds())
	}
	rep := newReport()
	rep.setupS = median(boots)
	if !cfg.trace {
		defer f.close()
		win := w.window(f, streams, secs(cfg.seconds))
		c := w.check(streams, win)
		rep.addEndToEnd(c.lat, win.elapsed, win.cpu, len(win.res), &c.checked)
		rep.noteGrown(streams)
		return rep, nil
	}
	// Traced run: the first half untraced on this fleet, then the same
	// stream on a fresh traced fleet, so both halves see the same cache
	// states.
	base := w.window(f, streams, secs(cfg.seconds/2))
	f.close()
	cb := w.check(streams, base)
	tp := newTap(newTracer())
	tf, err := bootFleet(tp)
	if err != nil {
		return nil, err
	}
	defer tf.close()
	before := scrape(tf)
	win := w.window(tf, streams, secs(cfg.seconds/2))
	after := scrape(tf)
	c := w.check(streams, win)
	rep.attempted = len(base.res) + len(win.res)
	rep.failed = cb.failed + c.failed
	rep.reasons = append(cb.reasons, c.reasons...)
	rep.noteGrown(streams)
	spans, err := writeAndReload(tp.tr, cfg.spansPath)
	if err != nil {
		return nil, err
	}
	w.layerMetrics(rep, tf, streams, win, c, before, after, spans)
	if err := probeKernels(rep, cfg.seed); err != nil {
		return nil, err
	}
	rep.traceOverhead(median(cb.lat), median(c.lat))
	return rep, nil
}

// noteGrown says when a client got through the stream built ahead of
// the window, so that the cost of growing it fell inside the window.
func (r *report) noteGrown(streams []*stream) {
	for c, s := range streams {
		if s.grown > 0 {
			r.notes = append(r.notes, fmt.Sprintf("client %d: %d request patterns built during the window", c, s.grown))
		}
	}
}

// snapshot is the fleet's counters at one instant.
type snapshot struct {
	metrics map[string]float64 // summed over replicas
	stats   serve.StatsResponse
	fetchA  int64
	fetchH  int64
	front   cluster.FrontStats
}

// scrape reads /metrics of every replica, their stats and peer-fetch
// counters, and the front's /statsz.
func scrape(f *fleet) snapshot {
	s := snapshot{metrics: map[string]float64{}}
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	for i, u := range f.urls {
		if resp, err := hc.Get(u + "/metrics"); err == nil {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			for k, v := range parseMetrics(string(b)) {
				s.metrics[k] += v
			}
		}
		st := f.srvs[i].Stats()
		s.stats.CacheHits += st.CacheHits
		s.stats.DedupShared += st.DedupShared
		s.stats.Rejected += st.Rejected
		s.stats.WarmStarts += st.WarmStarts
		s.stats.ColdFallbacks += st.ColdFallbacks
		s.stats.DeltaRequests += st.DeltaRequests
		a, h, _, _ := f.reps[i].Results.FetchCounters()
		s.fetchA += a
		s.fetchH += h
	}
	if resp, err := hc.Get(f.front + "/statsz"); err == nil {
		json.NewDecoder(resp.Body).Decode(&s.front)
		resp.Body.Close()
	}
	return s
}

// parseMetrics reads Prometheus text exposition into series → value,
// keyed by the series as printed (name plus labels).
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] += v
		}
	}
	return out
}

// series sums the series of the named metric whose labels contain
// every given label pair.
func (s snapshot) series(name string, labels ...string) float64 {
	t := 0.0
	for k, v := range s.metrics {
		base, lbl, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(lbl, l)
		}
		if ok {
			t += v
		}
	}
	return t
}

// layerMetrics derives serve-mix's per-layer metrics.
func (w *serveWorkload) layerMetrics(rep *report, f *fleet, streams []*stream, win *serveWindow, c *serveChecked,
	before, after snapshot, spans []Span) {
	d := func(name string, labels ...string) float64 {
		return after.series(name, labels...) - before.series(name, labels...)
	}
	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	// Solver layers, from the verified cold decision, maximize and
	// delta answers and the replicas' phase counters; the request
	// path's own layers timed here on the bodies the clients sent.
	var coreOps, iters, calls, mixOps, mixIters float64
	var fracR stat
	var decode, build, digest, applyDelta, owner stat
	var hits, oks float64
	for k, res := range win.res {
		if !c.ok[k] {
			continue
		}
		oks++
		if res.cache == "hit" {
			hits++
		}
		r := streams[res.client].reqs[res.idx]
		if !r.cold() {
			continue
		}
		if r.class == "mixed" {
			mixOps++
			mixIters += float64(res.iters)
		} else {
			nc := 1.0
			if r.class == "maximize" {
				var mr serve.MaximizeResponse
				if json.Unmarshal(res.body, &mr) == nil {
					nc = float64(mr.DecisionCalls)
				}
			}
			coreOps++
			iters += float64(res.iters)
			calls += nc
			if set, err := instio.Build(r.wire.Instance); err == nil && r.class != "delta" {
				if prm, err := core.ParamsFor(set.N(), set.Dim(), r.wire.Eps); err == nil {
					fracR.add(float64(res.iters) / nc / float64(prm.R))
				}
			}
		}
		var req serve.Request
		var err error
		decode.time(func() {
			dec := json.NewDecoder(bytes.NewReader(r.body))
			dec.DisallowUnknownFields()
			err = dec.Decode(&req)
		})
		switch {
		case err != nil:
		case r.class == "delta":
			applyDelta.time(func() { _, _ = instio.ApplyDelta(r.base, req.Instance) })
		default:
			build.time(func() {
				if r.class == "mixed" {
					_, _ = instio.BuildMixed(req.Instance)
				} else {
					_, _ = instio.Build(req.Instance)
				}
			})
			var key store.Key
			digest.time(func() { key, _ = serve.ContentDigest(strings.TrimPrefix(r.path, "/v1/"), &req, core.EngineMMW) })
			owner.time(func() { _, _ = f.ring.OwnerName(key) })
		}
	}
	solveCore := d("psdpd_solve_seconds_sum", `kind="decision"`) + d("psdpd_solve_seconds_sum", `kind="maximize"`)
	oracle := d("psdpd_solver_phase_seconds_total", `phase="oracle"`)
	expmS := d("psdpd_solver_phase_seconds_total", `phase="expm"`)
	update := d("psdpd_solver_phase_seconds_total", `phase="update"`)
	book := d("psdpd_solver_phase_seconds_total", `phase="bookkeep"`)
	rep.set("core.iterations", per(iters, coreOps), "count")
	rep.set("core.iter_frac_R", fracR.mean(), "ratio")
	rep.set("core.decision_calls", per(calls, coreOps), "count")
	rep.set("core.oracle_ms", per(oracle*1e3, coreOps), "ms")
	rep.set("core.expm_ms", per(expmS*1e3, coreOps), "ms")
	rep.set("core.update_ms", per(update*1e3, coreOps), "ms")
	rep.set("core.bookkeep_ms", per(book*1e3, coreOps), "ms")
	rep.set("core.other_ms", per((solveCore-oracle-update-book)*1e3, coreOps), "ms")
	rep.set("core.ms_per_iter", per(solveCore*1e3, iters), "ms")
	var vsum time.Duration
	for _, v := range c.verify {
		vsum += v
	}
	rep.set("core.verify_ms", per(ms(vsum), float64(len(c.verify))), "ms")
	rep.set("mixed.iterations", per(mixIters, mixOps), "count")
	rep.set("mixed.solve_ms", per(d("psdpd_solve_seconds_sum", `kind="mixed"`)*1e3,
		d("psdpd_solve_seconds_count", `kind="mixed"`)), "ms")

	n := float64(len(win.res))
	rep.set("work.misses_per_op", per(d("psdpd_workspace_misses"), n), "count")
	rep.runtimeMetrics(win.mem, len(win.res))

	rep.set("instio.decode_ms", decode.mean()/1e6, "ms")
	rep.set("instio.build_ms", build.mean()/1e6, "ms")
	rep.set("instio.apply_delta_ms", applyDelta.mean()/1e6, "ms")
	rep.set("serve.digest_ms", digest.mean()/1e6, "ms")
	rep.set("placement.owner_ns", owner.mean(), "ns")

	sp := byName(spans)
	miss, hit, warm := sp["serve.handler/miss"], sp["serve.handler/hit"], sp["serve.handler/warm"]
	rep.set("serve.handler_miss_ms", miss.meanMS(), "ms")
	rep.set("serve.handler_hit_ms", hit.meanMS(), "ms")
	rep.set("serve.handler_warm_ms", warm.meanMS(), "ms")
	qsum, qn := d("psdpd_queue_wait_seconds_sum"), d("psdpd_queue_wait_seconds_count")
	ssum, sn := d("psdpd_solve_seconds_sum"), d("psdpd_solve_seconds_count")
	rep.set("serve.queue_wait_ms", per(qsum*1e3, qn), "ms")
	rep.set("serve.solve_ms", per(ssum*1e3, sn), "ms")
	solved := float64(miss.n + warm.n)
	rep.set("serve.path_ms", per(float64(miss.total+warm.total)/1e6-(qsum+ssum)*1e3, solved), "ms")
	rep.set("serve.hit_ratio", per(hits, oks), "ratio")
	rep.set("serve.warm_ratio", per(float64(after.stats.WarmStarts-before.stats.WarmStarts),
		float64(after.stats.DeltaRequests-before.stats.DeltaRequests)), "ratio")
	rep.set("serve.cold_fallbacks", float64(after.stats.ColdFallbacks-before.stats.ColdFallbacks), "count")
	rep.set("serve.shared", float64(after.stats.DedupShared-before.stats.DedupShared), "count")
	rep.set("serve.rejected", float64(after.stats.Rejected-before.stats.Rejected+after.front.Rejected-before.front.Rejected), "count")

	rep.set("store.result_get_us", sp["store.result_get"].meanMS()*1e3, "us")
	rep.set("store.result_put_us", sp["store.result_put"].meanMS()*1e3, "us")
	rep.set("store.revision_get_us", sp["store.revision_get"].meanMS()*1e3, "us")
	rep.set("store.revision_put_us", sp["store.revision_put"].meanMS()*1e3, "us")
	rep.set("store.result_hit_ratio", f.tap.resultHitRatio(), "ratio")

	rep.set("cluster.front_self_ms", sp["cluster.front"].meanSelfMS(), "ms")
	rep.set("cluster.peer_fetch_ms", sp["cluster.peer_get/fetch"].meanSelfMS(), "ms")
	rep.set("cluster.peer_fetch_hit_ratio", per(float64(after.fetchH-before.fetchH), float64(after.fetchA-before.fetchA)), "ratio")
	reroutes := 0.0
	for _, p := range after.front.PerPeer {
		if m, ok := p.(map[string]any); ok {
			if e, ok := m["errors"].(float64); ok {
				reroutes += e
			}
		}
	}
	for _, p := range before.front.PerPeer {
		if m, ok := p.(map[string]any); ok {
			if e, ok := m["errors"].(float64); ok {
				reroutes -= e
			}
		}
	}
	rep.set("cluster.reroutes", reroutes, "count")
	rep.set("cluster.converge_s", f.bootDur.Seconds(), "s")
	rep.spanMetrics(spans)
}
