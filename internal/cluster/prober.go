package cluster

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Prober health-gates a static member list: every member starts
// healthy (static membership is the boot state), a probe round (GET
// /readyz on every member) demotes members that answer non-200 or fail
// transport, and MarkUnhealthy demotes immediately when a peer fetch
// or proxied request hits a transport error — a later round
// re-promotes the member once /readyz answers 200 again.
//
// Rounds run every interval while every member is healthy. While any
// member is down they run on a doubling backoff instead, from
// interval/64 (at least 1ms) up to the interval, so a member that was
// not yet listening at boot, or came back, rejoins within milliseconds.
// MarkUnhealthy wakes the loop to start that backoff at once.
//
// Whenever the healthy set changes, onChange receives the new sorted
// list. Callers feed it to placement.Ring.Update, which is the whole
// membership protocol: placement is a pure function of the healthy
// list, so every node that observes the same list agrees on ownership.
type Prober struct {
	members  []string
	interval time.Duration
	client   *http.Client
	onChange func(healthy []string)
	// after is the loop's timer (time.After outside tests).
	after func(time.Duration) <-chan time.Time
	// wake carries MarkUnhealthy's signal to the loop (buffered 1,
	// sent without blocking).
	wake chan struct{}

	mu        sync.Mutex
	healthy   map[string]bool
	lastProbe map[string]string
	lastErr   map[string]string
	converged bool
	// pending marks a healthy-set transition onChange has not received
	// yet; publishing is set while one goroutine delivers (see publish).
	pending, publishing bool
}

// NewProber builds a prober over members (all initially healthy).
// interval <= 0 defaults to 500ms; client nil defaults to a 2s-timeout
// client. onChange, if non-nil, fires once immediately with the full
// list and then on every healthy-set transition; calls never overlap,
// and the last one carries the latest list.
func NewProber(members []string, interval time.Duration, client *http.Client, onChange func([]string)) *Prober {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	if client == nil {
		client = defaultClient(2 * time.Second)
	}
	p := &Prober{
		members:   append([]string(nil), members...),
		interval:  interval,
		client:    client,
		onChange:  onChange,
		after:     time.After,
		wake:      make(chan struct{}, 1),
		healthy:   make(map[string]bool, len(members)),
		lastProbe: make(map[string]string, len(members)),
		lastErr:   make(map[string]string, len(members)),
	}
	for _, m := range p.members {
		p.healthy[m] = true
	}
	if onChange != nil {
		onChange(p.Healthy())
	}
	return p
}

// Start runs the probe loop until ctx is cancelled. It probes once
// immediately, then every interval while all members are healthy, and
// on the doubling backoff while any member is down.
func (p *Prober) Start(ctx context.Context) {
	go func() {
		floor := max(p.interval/64, time.Millisecond)
		backoff := floor
		for {
			p.ProbeNow(ctx)
			wait := p.interval
			if p.Converged() {
				backoff = floor
			} else {
				wait, backoff = backoff, min(2*backoff, p.interval)
			}
			select {
			case <-ctx.Done():
				return
			case <-p.after(wait):
			case <-p.wake:
				backoff = floor
			}
		}
	}()
}

// ProbeNow probes every member once, concurrently, and applies the
// results as one transition.
func (p *Prober) ProbeNow(ctx context.Context) {
	type outcome struct {
		member string
		ok     bool
		errMsg string
	}
	results := make(chan outcome, len(p.members))
	for _, m := range p.members {
		go func(m string) {
			ok, errMsg := p.probeOne(ctx, m)
			results <- outcome{member: m, ok: ok, errMsg: errMsg}
		}(m)
	}
	now := nowRFC3339()
	round := make([]outcome, len(p.members))
	for i := range round {
		round[i] = <-results
	}
	p.mu.Lock()
	p.converged = true
	for _, o := range round {
		p.lastProbe[o.member] = now
		p.lastErr[o.member] = o.errMsg
		if p.healthy[o.member] != o.ok {
			p.healthy[o.member] = o.ok
			p.pending = true
		}
		p.converged = p.converged && o.ok
	}
	p.mu.Unlock()
	p.publish()
}

func (p *Prober) probeOne(ctx context.Context, member string) (bool, string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, member+"/readyz", nil)
	if err != nil {
		return false, err.Error()
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false, err.Error()
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, resp.Status
	}
	return true, ""
}

// markedUnhealthy is a member's LastError after MarkUnhealthy, until a
// probe round overwrites it.
const markedUnhealthy = "marked unhealthy after transport error"

// MarkUnhealthy demotes member immediately (transport-error fast
// path) and wakes the probe loop, which probes at once and then backs
// off from the floor; the member rejoins at the next successful round.
func (p *Prober) MarkUnhealthy(member string) {
	p.mu.Lock()
	if !p.healthy[member] {
		// Unknown, or already down: the loop is already backing off.
		p.mu.Unlock()
		return
	}
	p.healthy[member] = false
	p.lastErr[member] = markedUnhealthy
	p.converged = false
	p.pending = true
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default:
	}
	p.publish()
}

// publish hands the healthy set to onChange after a transition. One
// goroutine delivers at a time, outside p.mu; a transition made while
// it delivers sets pending again, and it delivers once more, so
// deliveries never reorder and the last one carries the latest set.
func (p *Prober) publish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.publishing {
		return
	}
	p.publishing = true
	for p.pending {
		p.pending = false
		healthy := p.healthyLocked()
		p.mu.Unlock()
		if p.onChange != nil {
			p.onChange(healthy)
		}
		p.mu.Lock()
	}
	p.publishing = false
}

// Converged reports whether the last completed probe round found every
// member healthy, no MarkUnhealthy has demoted one since, and onChange
// has received that set: once it is true, the ring holds every member.
// It is false before the first round: the all-healthy boot state is
// assumed, not observed.
func (p *Prober) Converged() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.converged && !p.pending && !p.publishing
}

// Healthy returns the sorted healthy member list.
func (p *Prober) Healthy() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthyLocked()
}

func (p *Prober) healthyLocked() []string {
	out := make([]string, 0, len(p.members))
	for _, m := range p.members {
		if p.healthy[m] {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot returns every member's status in member-list order.
func (p *Prober) Snapshot() []MemberStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]MemberStatus, len(p.members))
	for i, m := range p.members {
		out[i] = MemberStatus{
			URL:       m,
			Healthy:   p.healthy[m],
			LastProbe: p.lastProbe[m],
			LastError: p.lastErr[m],
		}
	}
	return out
}
