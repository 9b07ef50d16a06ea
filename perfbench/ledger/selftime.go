package ledger

import (
	"sort"
	"time"

	"lrcex/internal/trace"
)

// Interval is a half-open time interval [Start, End) in nanoseconds.
type Interval struct{ Start, End int64 }

// Len returns the interval's length, 0 when it is empty or inverted.
func (iv Interval) Len() int64 {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End - iv.Start
}

// UnionLength returns the total length covered by the intervals, counting
// overlapping stretches once.
func UnionLength(ivs []Interval) int64 {
	s := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.Len() > 0 {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total int64
	var cur Interval
	for i, iv := range s {
		switch {
		case i == 0:
			cur = iv
		case iv.Start <= cur.End:
			if iv.End > cur.End {
				cur.End = iv.End
			}
		default:
			total += cur.Len()
			cur = iv
		}
	}
	if len(s) > 0 {
		total += cur.Len()
	}
	return total
}

// SelfTime returns the part of parent that no child covers: its length minus
// the union of the children clipped to it. Concurrent children (the
// per-conflict searches under one FindAll) overlap, so summing their
// durations would overstate the covered part and can even exceed the parent.
func SelfTime(parent Interval, children []Interval) int64 {
	clipped := make([]Interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		clipped = append(clipped, c)
	}
	return parent.Len() - UnionLength(clipped)
}

// SpanSet indexes the spans of exported traces for per-layer accounting.
type SpanSet struct {
	Spans    []trace.SpanJSON
	children map[string][]int
}

// NewSpanSet indexes spans from any number of exported traces. Span IDs are
// unique within a trace only, so each is qualified by its trace ID.
func NewSpanSet(traces []trace.TraceJSON) *SpanSet {
	ss := &SpanSet{children: map[string][]int{}}
	for _, t := range traces {
		for _, s := range t.Spans {
			s.ID = t.TraceID + "/" + s.ID
			if s.Parent != "" {
				s.Parent = t.TraceID + "/" + s.Parent
				ss.children[s.Parent] = append(ss.children[s.Parent], len(ss.Spans))
			}
			ss.Spans = append(ss.Spans, s)
		}
	}
	return ss
}

// SpanInterval returns a span's wall-clock interval.
func SpanInterval(s trace.SpanJSON) Interval {
	return Interval{Start: s.StartNS, End: s.StartNS + int64(s.DurUS*float64(time.Microsecond/time.Nanosecond))}
}

// Children returns the direct children of the span with the given
// (qualified) ID.
func (ss *SpanSet) Children(id string) []trace.SpanJSON {
	idx := ss.children[id]
	out := make([]trace.SpanJSON, len(idx))
	for i, k := range idx {
		out[i] = ss.Spans[k]
	}
	return out
}

// Self returns a span's self time in milliseconds: its duration minus the
// union of its direct children's intervals.
func (ss *SpanSet) Self(s trace.SpanJSON) float64 {
	kids := ss.Children(s.ID)
	ivs := make([]Interval, len(kids))
	for i, k := range kids {
		ivs[i] = SpanInterval(k)
	}
	return float64(SelfTime(SpanInterval(s), ivs)) / 1e6
}

// Named returns every span with the given name.
func (ss *SpanSet) Named(name string) []trace.SpanJSON {
	var out []trace.SpanJSON
	for _, s := range ss.Spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// DurationsMS returns the durations of the named spans in milliseconds.
func (ss *SpanSet) DurationsMS(name string) []float64 {
	var out []float64
	for _, s := range ss.Named(name) {
		out = append(out, s.DurUS/1000)
	}
	return out
}

// NumAttr returns a numeric span attribute (0 when absent or not a number).
func NumAttr(s trace.SpanJSON, key string) float64 {
	for _, a := range s.Attrs {
		if a.Key != key {
			continue
		}
		switch v := a.Val.(type) {
		case float64:
			return v
		case int:
			return float64(v)
		case int64:
			return float64(v)
		}
	}
	return 0
}
