package main

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; a
// root span has Parent 0. Times are nanoseconds since the tracer
// started. The layer is the name's prefix before the first dot.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op that allocates nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// id reserves a span ID, so that children can name a parent that is
// recorded after them.
func (t *tracer) id() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a reserved ID.
func (t *tracer) add(id, parent, op int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// record reserves an ID and records a finished span in one step.
func (t *tracer) record(parent, op int, name string, start, end time.Time) {
	t.add(t.id(), parent, op, name, start, end)
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// named returns the durations in milliseconds of the spans called name.
func named(spans []span, name string) []float64 {
	var ms []float64
	for _, s := range spans {
		if s.Name == name {
			ms = append(ms, float64(s.dur())/1e6)
		}
	}
	return ms
}

// selfTimes returns each layer's self time: the sum over its spans of
// the span's duration minus the part of it its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.layer()] += s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	sort.Slice(children, func(a, b int) bool { return children[a].Start < children[b].Start })
	var total, cur int64
	cur = parent.Start
	for _, c := range children {
		lo, hi := max(c.Start, cur), min(c.End, parent.End)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return time.Duration(total)
}

// opShares reports each layer's self time inside op trees as a share of
// the summed duration of the root spans named root.
func opShares(spans []span, root string) map[string]float64 {
	var opIDs = map[int]bool{}
	var total time.Duration
	for _, s := range spans {
		if s.Name == root && s.Parent == 0 {
			opIDs[s.Op] = true
			total += s.dur()
		}
	}
	var inOps []span
	for _, s := range spans {
		if opIDs[s.Op] {
			inOps = append(inOps, s)
		}
	}
	shares := map[string]float64{}
	if total <= 0 {
		return shares
	}
	for l, d := range selfTimes(inOps) {
		shares[l] = float64(d) / float64(total)
	}
	return shares
}

func writeSpans(path string, spans []span) error {
	if path == "" {
		return nil
	}
	js, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return writeFile(path, js)
}
