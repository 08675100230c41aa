package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one op share Op; Parent is the span that caused
// this one (0 for a root). Start and End are nanoseconds since the
// tracer's epoch.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// rootSpan names the span that covers one whole op as its caller sees
// it: one library call, or one HTTP request from send until the last
// body byte is read.
const rootSpan = "op"

// noOp marks a span not tied to any op (background work, or a store
// call whose op could not be identified).
const noOp = -1

// Tracer keeps spans in memory; Write puts them in a file when the run
// ends. It is safe for concurrent use.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Now is the tracer clock.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// NewID reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *Tracer) NewID() int64 { return t.ids.Add(1) }

// Add records a finished span.
func (t *Tracer) Add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Write stores the spans as JSON lines at path.
func (t *Tracer) Write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans loads a span file written by Tracer.Write.
func readSpans(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s Span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// covered is the length of the part of [lo, hi) that the union of ivs
// covers. ivs is reordered.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfTimes maps each span ID to its self time: its duration minus the
// part of its interval that its direct children cover.
func selfTimes(spans []Span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// unattributed sums, over every root span, the part of its interval
// that no other span of the same op covers, and the roots' total
// duration. Their ratio is the share of op wall time no layer claims.
func unattributed(spans []Span) (uncovered, total int64) {
	byOp := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Name != rootSpan && s.Op != noOp {
			byOp[s.Op] = append(byOp[s.Op], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range spans {
		if s.Name != rootSpan {
			continue
		}
		total += s.dur()
		uncovered += s.dur() - covered(byOp[s.Op], s.Start, s.End)
	}
	return uncovered, total
}

// spanStats aggregates spans by name (and tag, when set): count, total
// duration and total self time, in nanoseconds.
type spanStats struct {
	n           int
	total, self int64
}

func (s spanStats) meanMS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.total) / float64(s.n) / 1e6
}

func (s spanStats) meanSelfMS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.self) / float64(s.n) / 1e6
}

// byName groups spans under "name" and "name/tag".
func byName(spans []Span) map[string]spanStats {
	self := selfTimes(spans)
	out := make(map[string]spanStats)
	add := func(k string, s Span) {
		st := out[k]
		st.n++
		st.total += s.dur()
		st.self += self[s.ID]
		out[k] = st
	}
	for _, s := range spans {
		add(s.Name, s)
		if s.Tag != "" {
			add(s.Name+"/"+s.Tag, s)
		}
	}
	return out
}
