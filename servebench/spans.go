package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one client job or
// one in-process phase share Trace, the ID of their root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// finish closes span id, opened by begin at start, as a child of parent
// (0 = a root) in trace.
func (t *tracer) finish(id int64, name string, parent, trace int64, start time.Time) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end)})
	t.mu.Unlock()
}

// record adds a finished leaf span that began at start and lasted d.
func (t *tracer) record(name string, parent, trace int64, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: t.ids.Add(1), Parent: parent, Trace: trace, Name: name,
		Start: s, End: s + int64(d)})
	t.mu.Unlock()
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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

// spanSummary is the count, total and self time of every span name. Self
// time is a span's duration minus the part of it its children cover.
type spanSummary struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

func (t *tracer) summary() []spanSummary {
	children := map[int64][]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*spanSummary{}
	for i := range t.spans {
		s := &t.spans[i]
		sum := by[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			by[s.Name] = sum
		}
		sum.Count++
		sum.Total += time.Duration(s.End - s.Start)
		sum.Self += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
	}
	out := make([]spanSummary, 0, len(by))
	for _, s := range by {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(p *span, kids []*span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = -1 << 62
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return time.Duration(total)
}
