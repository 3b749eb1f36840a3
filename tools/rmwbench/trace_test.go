package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// sp builds a span over [start, end) in nanoseconds.
func sp(id, parent, start, end int64) span {
	return span{ID: id, Parent: parent, Name: "s", StartNS: start, EndNS: end}
}

func TestSelfTimes(t *testing.T) {
	for _, c := range []struct {
		name  string
		spans []span
		want  map[int64]time.Duration
	}{
		{
			name:  "no children",
			spans: []span{sp(1, 0, 0, 100)},
			want:  map[int64]time.Duration{1: 100},
		},
		{
			name:  "nested: a grandchild counts for its parent only",
			spans: []span{sp(1, 0, 0, 100), sp(2, 1, 10, 60), sp(3, 2, 20, 40)},
			want:  map[int64]time.Duration{1: 50, 2: 30, 3: 20},
		},
		{
			name:  "overlapping children are counted once",
			spans: []span{sp(1, 0, 0, 100), sp(2, 1, 10, 50), sp(3, 1, 30, 70)},
			want:  map[int64]time.Duration{1: 40, 2: 40, 3: 40},
		},
		{
			name:  "a child inside another child",
			spans: []span{sp(1, 0, 0, 100), sp(2, 1, 10, 90), sp(3, 1, 20, 30)},
			want:  map[int64]time.Duration{1: 20, 2: 80, 3: 10},
		},
		{
			name:  "concurrent children covering the whole parent",
			spans: []span{sp(1, 0, 0, 100), sp(2, 1, 0, 100), sp(3, 1, 0, 100)},
			want:  map[int64]time.Duration{1: 0, 2: 100, 3: 100},
		},
		{
			name:  "children are clipped to the parent",
			spans: []span{sp(1, 0, 10, 100), sp(2, 1, 0, 30), sp(3, 1, 90, 150)},
			want:  map[int64]time.Duration{1: 60, 2: 30, 3: 60},
		},
		{
			name:  "disjoint children",
			spans: []span{sp(1, 0, 0, 100), sp(2, 1, 0, 10), sp(3, 1, 50, 60)},
			want:  map[int64]time.Duration{1: 80, 2: 10, 3: 10},
		},
	} {
		got := selfTimes(c.spans)
		for id, want := range c.want {
			if got[id] != want {
				t.Errorf("%s: self time of %d = %v, want %v", c.name, id, got[id], want)
			}
		}
	}
}

// TestTracerConcurrentChildren records children of one parent from many
// goroutines at once and checks every span is kept, linked and timed.
func TestTracerConcurrentChildren(t *testing.T) {
	tr := newTracer()
	root := tr.start("root", nil, 7)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := tr.start("child", root, 7)
				tr.start("grandchild", c, 7).end()
				c.end()
			}
		}()
	}
	wg.Wait()
	root.end()

	spans := tr.snapshot()
	if len(spans) != 1+8*50*2 {
		t.Fatalf("%d spans, want %d", len(spans), 1+8*50*2)
	}
	ids := map[int64]span{}
	for _, s := range spans {
		if _, dup := ids[s.ID]; dup {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		ids[s.ID] = s
	}
	self := selfTimes(spans)
	for _, s := range spans {
		if s.EndNS < s.StartNS || s.Request != 7 {
			t.Errorf("span %+v", s)
		}
		if s.Name == "root" {
			continue
		}
		p, ok := ids[s.Parent]
		if !ok || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("span %+v is not inside its parent %+v", s, p)
		}
		if self[s.ID] < 0 || self[s.ID] > s.dur() {
			t.Errorf("self time %v of %+v", self[s.ID], s)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	a := tr.start("x", nil, 1)
	tr.start("y", a, 1).end()
	a.end()
	if tr.snapshot() != nil {
		t.Error("nil tracer returned spans")
	}
}

func TestTracerWrite(t *testing.T) {
	tr := newTracer()
	tr.start("a", nil, 1).end()
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path, "sweep-cold", 3); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string
		Seed     int64
		Spans    []span
	}
	if err := json.Unmarshal(data, &doc); err != nil || doc.Workload != "sweep-cold" || doc.Seed != 3 || len(doc.Spans) != 1 || doc.Spans[0].Name != "a" {
		t.Errorf("spans file %s: %v", data, err)
	}
}
