package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed region the benchmark records around a call into a
// layer of the program. Spans of one request share an ID: the job ID,
// or tenant plus campaign index for the service.
type span struct {
	Seq    int    `json:"seq"`
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent"` // Seq of the enclosing span; -1 at top level
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the union of the children's intervals
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay only a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span that ends with close; it returns the span's Seq for
// use as a parent.
func (t *tracer) open(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	seq := len(t.spans)
	t.spans = append(t.spans, span{Seq: seq, Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return seq
}

func (t *tracer) close(seq int) {
	if t == nil || seq < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[seq].End = now
	t.mu.Unlock()
}

// add records a span whose start and end are already known and returns
// its Seq.
func (t *tracer) add(name, id string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	seq := len(t.spans)
	t.spans = append(t.spans, span{Seq: seq, Name: name, ID: id, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return seq
}

// durations returns the durations in milliseconds of the spans named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// finish fills in every span's self time and returns the spans. Call it
// once the run has ended.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, children[s.Seq])
	}
	return t.spans
}

// covered is the length of the union of the children's intervals,
// clipped to [start, end].
func covered(start, end int64, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur := start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path string, spans []span) error {
	blob, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// printSpanSummary prints, per span name, the span count and the summed
// total and self times: where the traced run's time went.
func printSpanSummary(w io.Writer, spans []span) {
	type agg struct {
		n           int
		total, self int64
	}
	byName := map[string]*agg{}
	var names []string
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.Self
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-24s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, name := range names {
		a := byName[name]
		fmt.Fprintf(w, "%-24s %8d %12.1f %12.1f\n", name, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
