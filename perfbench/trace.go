package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed public call of the traced replay.
type span struct {
	ID      int    `json:"id"`
	Op      int    `json:"op"`     // index of the op in the seeded sequence
	Parent  int    `json:"parent"` // -1 for an op's root span
	Name    string `json:"name"`   // "<layer>.<call>", or "op.<kind>" for a root
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Probe marks a re-measurement of an inner layer, made beside the
	// outer call on the same input; its time is carved out of its parent.
	Probe bool `json:"probe,omitempty"`
	// Overlap marks a call that ran beside the op's critical path (the
	// analysis that overlaps execution under the warn policy).
	Overlap bool   `json:"overlap,omitempty"`
	Outcome string `json:"outcome,omitempty"` // cache outcome of progcache calls
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory; a disabled recorder records nothing and
// costs one branch per call, which is the untraced side of the overhead
// comparison.
type recorder struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool, t0 time.Time) *recorder { return &recorder{on: on, t0: t0} }

func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// begin opens a span and returns its ID (-1 when recording is off).
func (r *recorder) begin(op, parent int, name string) int {
	if !r.on {
		return -1
	}
	start := r.ns(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Op: op, Parent: parent, Name: name, StartNS: start, EndNS: start})
	return id
}

func (r *recorder) end(id int) {
	if id < 0 {
		return
	}
	end := r.ns(time.Now())
	r.mu.Lock()
	r.spans[id].EndNS = end
	r.mu.Unlock()
}

func (r *recorder) set(id int, f func(*span)) {
	if id < 0 {
		return
	}
	r.mu.Lock()
	f(&r.spans[id])
	r.mu.Unlock()
}

// add records a span whose times were taken elsewhere.
func (r *recorder) add(s span) int {
	if !r.on {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	return s.ID
}

// probe runs fn as a re-measurement of an inner layer of span parent;
// with recording off fn does not run at all.
func (r *recorder) probe(op, parent int, name string, fn func()) {
	if !r.on || parent < 0 {
		return
	}
	start := time.Now()
	fn()
	end := time.Now()
	r.add(span{Op: op, Parent: parent, Name: name, StartNS: r.ns(start), EndNS: r.ns(end), Probe: true})
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanIndex answers the self-time questions over a finished recording.
type spanIndex struct {
	spans    []span
	children map[int][]int
	byOp     map[int][]int // root spans' direct children per op
	roots    map[int]int   // op -> root span ID
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: map[int][]int{}, byOp: map[int][]int{}, roots: map[int]int{}}
	for _, s := range spans {
		if s.Parent < 0 {
			ix.roots[s.Op] = s.ID
			continue
		}
		ix.children[s.Parent] = append(ix.children[s.Parent], s.ID)
	}
	for op, root := range ix.roots {
		ix.byOp[op] = ix.children[root]
	}
	return ix
}

// self is a span's duration less the probes beside it (its inner layers).
func (ix *spanIndex) self(id int) time.Duration {
	d := ix.spans[id].dur()
	for _, c := range ix.children[id] {
		if ix.spans[c].Probe {
			d -= ix.spans[c].dur()
		}
	}
	if d < 0 {
		d = 0
	}
	return d
}

// layerShares splits one op's blocking time by layer: every direct child
// of the root not marked Overlap contributes its self time to its layer
// and each of its probes to the probe's layer.
func (ix *spanIndex) layerShares(op int) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, id := range ix.byOp[op] {
		s := ix.spans[id]
		if s.Overlap {
			continue
		}
		out[s.layer()] += ix.self(id)
		for _, c := range ix.children[id] {
			if p := ix.spans[c]; p.Probe {
				out[p.layer()] += p.dur()
			}
		}
	}
	return out
}

// callTimes returns the self times, in ms, of every span named name
// (and, when outcome is non-empty, with that cache outcome).
func (ix *spanIndex) callTimes(name, outcome string) []float64 {
	var out []float64
	for _, s := range ix.spans {
		if s.Name == name && (outcome == "" || s.Outcome == outcome) {
			out = append(out, ms(ix.self(s.ID)))
		}
	}
	return out
}

func (ix *spanIndex) ops() []int {
	out := make([]int, 0, len(ix.roots))
	for op := range ix.roots {
		out = append(out, op)
	}
	sort.Ints(out)
	return out
}
