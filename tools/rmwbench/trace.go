package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans are recorded by the
// benchmark's own code around the facade calls it makes; Parent links a
// span to the one that caused it and Request groups the spans of one
// client request or repetition.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Request int64  `json:"request,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs call the same code at the cost of a
// nil check per call site. It is safe for concurrent use.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is a span that has started and not yet ended.
type active struct {
	t *tracer
	s span
}

// start opens a span named name under parent (nil for a root span) for
// the given request.
func (t *tracer) start(name string, parent *active, request int64) *active {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := span{ID: id, Request: request, Name: name, StartNS: int64(time.Since(t.t0))}
	if parent != nil {
		s.Parent = parent.s.ID
	}
	return &active{t: t, s: s}
}

// end closes the span and records it.
func (a *active) end() {
	if a == nil {
		return
	}
	a.s.EndNS = int64(time.Since(a.t.t0))
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNS != out[j].StartNS {
			return out[i].StartNS < out[j].StartNS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// writtenSpan is a span as the spans file stores it, with its self time.
type writtenSpan struct {
	span
	SelfNS int64 `json:"self_ns"`
}

// write stores the spans of one run as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	spans := t.snapshot()
	self := selfTimes(spans)
	out := make([]writtenSpan, len(spans))
	for i, s := range spans {
		out[i] = writtenSpan{s, int64(self[s.ID])}
	}
	data, err := json.MarshalIndent(struct {
		Workload string        `json:"workload"`
		Seed     int64         `json:"seed"`
		Spans    []writtenSpan `json:"spans"`
	}{workload, seed, out}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
// Children may nest, overlap or run concurrently; each child interval is
// clipped to its parent's before the union is taken.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return time.Duration(total)
}

// nameTotal is the spans of one name added up.
type nameTotal struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// totalsByName adds up the spans' durations and self times by span name,
// largest self time first: where a traced run's time went.
func totalsByName(spans []span) []nameTotal {
	self := selfTimes(spans)
	index := map[string]int{}
	var out []nameTotal
	for _, s := range spans {
		i, ok := index[s.Name]
		if !ok {
			i = len(out)
			index[s.Name] = i
			out = append(out, nameTotal{Name: s.Name})
		}
		out[i].Count++
		out[i].Total += s.dur()
		out[i].Self += self[s.ID]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}
