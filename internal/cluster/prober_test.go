package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Membership is health-gated, not static: dead or not-ready members
// are demoted (by probe or by transport-error fast path) and rejoin at
// the next successful probe, with onChange firing on every transition.
func TestProberHealthGating(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" && ready.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	var mu sync.Mutex
	var last []string
	changes := 0
	p := NewProber([]string{live.URL, deadURL}, time.Hour, nil, func(h []string) {
		mu.Lock()
		last = append([]string(nil), h...)
		changes++
		mu.Unlock()
	})

	// Boot state: the full static list is healthy, announced once.
	if got := p.Healthy(); len(got) != 2 {
		t.Fatalf("boot healthy = %v, want both members", got)
	}
	mu.Lock()
	if changes != 1 || len(last) != 2 {
		t.Fatalf("boot onChange fired %d times with %v", changes, last)
	}
	mu.Unlock()

	// First probe drops the dead member.
	p.ProbeNow(context.Background())
	if got := p.Healthy(); len(got) != 1 || got[0] != live.URL {
		t.Fatalf("after probe: healthy = %v, want [%s]", got, live.URL)
	}
	mu.Lock()
	if len(last) != 1 || last[0] != live.URL {
		t.Fatalf("onChange saw %v, want [%s]", last, live.URL)
	}
	mu.Unlock()

	// Transport-error fast path demotes without waiting for a probe.
	p.MarkUnhealthy(live.URL)
	if got := p.Healthy(); len(got) != 0 {
		t.Fatalf("after MarkUnhealthy: healthy = %v, want none", got)
	}

	// The next successful probe re-promotes.
	p.ProbeNow(context.Background())
	if got := p.Healthy(); len(got) != 1 || got[0] != live.URL {
		t.Fatalf("after recovery probe: healthy = %v, want [%s]", got, live.URL)
	}

	// A 503 /readyz (e.g. a draining replica) demotes exactly like a
	// dead one.
	ready.Store(false)
	p.ProbeNow(context.Background())
	if got := p.Healthy(); len(got) != 0 {
		t.Fatalf("after readyz 503: healthy = %v, want none", got)
	}

	snap := p.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d members, want 2", len(snap))
	}
	for _, m := range snap {
		if m.Healthy {
			t.Fatalf("snapshot member %s healthy, want all demoted", m.URL)
		}
		if m.LastError == "" || m.LastProbe == "" {
			t.Fatalf("snapshot member %s missing probe detail: %+v", m.URL, m)
		}
	}

	// MarkUnhealthy on an already-unhealthy or unknown member must not
	// re-fire onChange.
	mu.Lock()
	before := changes
	mu.Unlock()
	p.MarkUnhealthy(live.URL)
	p.MarkUnhealthy("http://nobody.invalid")
	mu.Lock()
	if changes != before {
		t.Fatalf("redundant MarkUnhealthy fired onChange (%d -> %d)", before, changes)
	}
	mu.Unlock()
}

// fakeTimer stands in for the prober loop's time.After: each call
// hands the requested wait to the test and returns a channel the test
// fires by hand, so rounds run without the wall clock.
type fakeTimer struct {
	waits chan time.Duration
	fire  chan time.Time
	done  chan struct{}
}

// startFake runs p's loop on a fake timer until the test ends.
func startFake(t *testing.T, p *Prober) *fakeTimer {
	ft := &fakeTimer{waits: make(chan time.Duration), fire: make(chan time.Time), done: make(chan struct{})}
	p.after = func(d time.Duration) <-chan time.Time {
		select {
		case ft.waits <- d:
		case <-ft.done:
		}
		return ft.fire
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		close(ft.done)
	})
	p.Start(ctx)
	return ft
}

// next returns the wait the loop asked for after its latest round.
func (ft *fakeTimer) next(t *testing.T) time.Duration {
	t.Helper()
	select {
	case d := <-ft.waits:
		return d
	case <-time.After(10 * time.Second):
		t.Fatal("probe loop did not finish a round in 10s")
		return 0
	}
}

// flipServer answers /readyz 200 while up holds, 503 otherwise.
func flipServer(t *testing.T, up *atomic.Bool) string {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if up.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// While a member is down, rounds run on a backoff that starts at
// interval/64 and doubles up to the interval; once every member is
// healthy the cadence is the interval again, and the next failure
// restarts the backoff from the floor.
func TestProberBackoffDoublesToIntervalAndResets(t *testing.T) {
	var liveUp, flakyUp atomic.Bool
	liveUp.Store(true)
	live, flaky := flipServer(t, &liveUp), flipServer(t, &flakyUp)
	p := NewProber([]string{live, flaky}, 640*time.Millisecond, nil, nil)
	ft := startFake(t, p)

	const ms = time.Millisecond
	for i, want := range []time.Duration{10 * ms, 20 * ms, 40 * ms, 80 * ms, 160 * ms, 320 * ms, 640 * ms, 640 * ms} {
		if i > 0 {
			ft.fire <- time.Time{}
		}
		if got := ft.next(t); got != want {
			t.Fatalf("backoff wait %d = %v, want %v", i, got, want)
		}
		if p.Converged() {
			t.Fatal("converged with a member down")
		}
	}

	flakyUp.Store(true)
	ft.fire <- time.Time{}
	if got := ft.next(t); got != 640*ms {
		t.Fatalf("wait once all members are healthy = %v, want the interval", got)
	}
	if !p.Converged() {
		t.Fatal("not converged once all members are healthy")
	}

	flakyUp.Store(false)
	ft.fire <- time.Time{}
	if got := ft.next(t); got != 10*ms {
		t.Fatalf("wait after a new failure = %v, want the 10ms floor again", got)
	}

	// The floor never drops below 1ms.
	q := NewProber([]string{flaky}, 10*ms, nil, nil)
	if got := startFake(t, q).next(t); got != ms {
		t.Fatalf("floor for a 10ms interval = %v, want 1ms", got)
	}
}

// A member that comes up after the first round is promoted on the next
// backoff round, not one (hour-long) interval later.
func TestProberPromotesLateMemberOnBackoff(t *testing.T) {
	var selfUp, lateUp atomic.Bool
	selfUp.Store(true)
	self, late := flipServer(t, &selfUp), flipServer(t, &lateUp)
	var mu sync.Mutex
	var ring []string
	p := NewProber([]string{self, late}, time.Hour, nil, func(h []string) {
		mu.Lock()
		ring = append([]string(nil), h...)
		mu.Unlock()
	})
	ft := startFake(t, p)

	if got := ft.next(t); got != time.Hour/64 {
		t.Fatalf("wait after a round with a member down = %v, want %v", got, time.Hour/64)
	}
	if got := p.Healthy(); len(got) != 1 {
		t.Fatalf("after round 1: healthy = %v, want only the live member", got)
	}
	lateUp.Store(true)
	ft.fire <- time.Time{}
	if got := ft.next(t); got != time.Hour {
		t.Fatalf("wait after the late member joined = %v, want the interval", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ring) != 2 || !p.Converged() {
		t.Fatalf("after the backoff round: ring %v, converged %v; want both members, converged", ring, p.Converged())
	}
}

// MarkUnhealthy wakes the loop: the demoted member is re-probed at once
// rather than after the rest of the interval, and the backoff starts
// from its floor.
func TestMarkUnhealthyWakesProber(t *testing.T) {
	var aUp, bUp atomic.Bool
	aUp.Store(true)
	bUp.Store(true)
	a, b := flipServer(t, &aUp), flipServer(t, &bUp)
	p := NewProber([]string{a, b}, time.Hour, nil, nil)
	ft := startFake(t, p)
	if got := ft.next(t); got != time.Hour {
		t.Fatalf("wait with every member healthy = %v, want the interval", got)
	}

	// b dies; a transport error reports it. The hour-long timer never
	// fires, yet a round runs and confirms b down.
	bUp.Store(false)
	p.MarkUnhealthy(b)
	if got := ft.next(t); got != time.Hour/64 {
		t.Fatalf("wait after the woken round = %v, want the floor %v", got, time.Hour/64)
	}
	if snap := p.Snapshot(); snap[1].Healthy || snap[1].LastError == markedUnhealthy {
		t.Fatalf("woken round did not probe b: %+v", snap[1])
	}

	floor := time.Hour / 64
	for _, want := range []time.Duration{2 * floor, 4 * floor} {
		ft.fire <- time.Time{}
		if got := ft.next(t); got != want {
			t.Fatalf("backoff wait = %v, want %v", got, want)
		}
	}

	// A second demotion mid-backoff wakes the loop again and restarts
	// the backoff from the floor; a, which still answers /readyz,
	// rejoins on that woken round.
	p.MarkUnhealthy(a)
	if got := ft.next(t); got != floor {
		t.Fatalf("wait after the second woken round = %v, want the floor %v", got, floor)
	}
	if got := p.Healthy(); len(got) != 1 || got[0] != a {
		t.Fatalf("after the second woken round: healthy = %v, want [%s]", got, a)
	}

	bUp.Store(true)
	ft.fire <- time.Time{}
	if got := ft.next(t); got != time.Hour {
		t.Fatalf("wait once b is back = %v, want the interval", got)
	}
	if !p.Converged() {
		t.Fatal("round found every member healthy but Converged is false")
	}
}

// Converged is false until a round has observed every member healthy,
// false again after MarkUnhealthy or a failed round, and true after the
// next all-healthy round.
func TestProberConvergedFlipsBothWays(t *testing.T) {
	var aUp, bUp atomic.Bool
	aUp.Store(true)
	bUp.Store(true)
	a, b := flipServer(t, &aUp), flipServer(t, &bUp)
	p := NewProber([]string{a, b}, time.Hour, nil, nil)
	ctx := context.Background()

	steps := []struct {
		name string
		do   func()
		want bool
	}{
		{"boot, before any round", func() {}, false},
		{"all-healthy round", func() { p.ProbeNow(ctx) }, true},
		{"MarkUnhealthy", func() { p.MarkUnhealthy(b) }, false},
		{"all-healthy round after MarkUnhealthy", func() { p.ProbeNow(ctx) }, true},
		{"round with a member down", func() { aUp.Store(false); p.ProbeNow(ctx) }, false},
		{"round after it recovers", func() { aUp.Store(true); p.ProbeNow(ctx) }, true},
	}
	for _, s := range steps {
		s.do()
		if got := p.Converged(); got != s.want {
			t.Fatalf("%s: Converged = %v, want %v", s.name, got, s.want)
		}
	}
}

// Converged waits for delivery: while onChange is still applying an
// all-healthy round, the prober does not report converged, so a caller
// gated on Converged never routes on the previous ring.
func TestProberConvergedWaitsForDelivery(t *testing.T) {
	var aUp, bUp atomic.Bool
	aUp.Store(true)
	a, b := flipServer(t, &aUp), flipServer(t, &bUp)
	var armed atomic.Bool
	entered, release := make(chan []string), make(chan struct{})
	p := NewProber([]string{a, b}, time.Hour, nil, func(h []string) {
		if armed.Load() {
			entered <- h
			<-release
		}
	})
	ctx := context.Background()
	p.ProbeNow(ctx) // b is down: delivered at once

	armed.Store(true)
	bUp.Store(true)
	done := make(chan struct{})
	go func() {
		p.ProbeNow(ctx)
		close(done)
	}()
	select {
	case h := <-entered:
		if len(h) != 2 {
			t.Fatalf("delivered %v, want both members", h)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("round did not deliver in 10s")
	}
	if p.Converged() {
		t.Fatal("Converged before onChange returned")
	}
	close(release)
	<-done
	if !p.Converged() {
		t.Fatal("not converged after the all-healthy round was delivered")
	}
}

// Deliveries never overlap or reorder: with rounds and MarkUnhealthy
// racing, the last list onChange received is the final healthy set.
func TestProberDeliveriesEndOnLatestSet(t *testing.T) {
	up := new(atomic.Bool)
	up.Store(true)
	members := []string{flipServer(t, up), flipServer(t, up), flipServer(t, up)}
	var calls atomic.Int32
	var mu sync.Mutex
	var last []string
	p := NewProber(members, time.Hour, nil, func(h []string) {
		if calls.Add(1) != 1 {
			t.Error("overlapping onChange calls")
		}
		runtime.Gosched() // give a second deliverer the chance to overlap
		mu.Lock()
		last = h
		mu.Unlock()
		calls.Add(-1)
	})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			p.MarkUnhealthy(members[i%len(members)])
		}()
		go func() {
			defer wg.Done()
			p.ProbeNow(context.Background())
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if got := p.Healthy(); !slices.Equal(last, got) {
		t.Fatalf("last delivered %v, prober holds %v", last, got)
	}
}
