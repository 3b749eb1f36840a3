package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/engine"
)

// jobEvent is one entry of a job's event stream: a compact JSON summary
// of an engine Event (or the terminal "done" marker), sequence-numbered
// so SSE clients can resume.
type jobEvent struct {
	Seq      int    `json:"seq"`
	Kind     string `json:"kind"` // "sim" | "litmus" | "coord" | "done"
	Unit     string `json:"unit,omitempty"`
	Trace    string `json:"trace,omitempty"`
	Type     string `json:"type,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Test     string `json:"test,omitempty"`
	Holds    *bool  `json:"holds,omitempty"`
	Coord    string `json:"coord,omitempty"` // coordination transition kind
	Attempt  int    `json:"attempt,omitempty"`
	Reason   string `json:"reason,omitempty"`
	State    string `json:"state,omitempty"` // terminal event: "done" | "failed"
	Error    string `json:"error,omitempty"`
}

// summarizeEvent converts an engine event into its stream entry.
func summarizeEvent(ev engine.Event) (jobEvent, bool) {
	switch {
	case ev.Sim != nil:
		return jobEvent{
			Kind:     "sim",
			Unit:     string(ev.Sim.Unit),
			Trace:    ev.Sim.Trace,
			Type:     ev.Sim.Type.String(),
			CacheHit: ev.Sim.CacheHit,
		}, true
	case ev.Litmus != nil:
		holds := ev.Litmus.Holds
		je := jobEvent{
			Kind:  "litmus",
			Unit:  ev.Litmus.Unit,
			Type:  ev.Litmus.Atomicity.String(),
			Holds: &holds,
		}
		if ev.Litmus.Test != nil {
			je.Test = ev.Litmus.Test.Name
		}
		return je, true
	case ev.DeadLetter != nil:
		d := ev.DeadLetter
		return jobEvent{
			Kind:    "coord",
			Coord:   "dead-letter",
			Unit:    d.Unit,
			Attempt: d.Attempts,
			Reason:  d.Reasons[len(d.Reasons)-1],
		}, true
	}
	return jobEvent{}, false
}

// eventLog is one job's append-only event buffer: appends stamp sequence
// numbers and wake blocked readers; close appends the terminal event.
// Readers replay from any index and then follow live.
type eventLog struct {
	mu      sync.Mutex
	entries []jobEvent
	wake    chan struct{} // closed and replaced on every append
	closed  bool
}

func newEventLog() *eventLog {
	return &eventLog{wake: make(chan struct{})}
}

// append adds one entry (no-op after close).
func (l *eventLog) append(ev jobEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	ev.Seq = len(l.entries)
	l.entries = append(l.entries, ev)
	close(l.wake)
	l.wake = make(chan struct{})
}

// close appends the terminal entry and marks the log complete.
func (l *eventLog) close(final jobEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	final.Seq = len(l.entries)
	l.entries = append(l.entries, final)
	l.closed = true
	close(l.wake)
	l.wake = make(chan struct{})
}

// size returns the number of entries logged so far.
func (l *eventLog) size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// from returns the entries at index i and beyond, whether the log is
// complete, and a channel that wakes when more arrive.
func (l *eventLog) from(i int) ([]jobEvent, bool, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var tail []jobEvent
	if i < len(l.entries) {
		tail = append(tail, l.entries[i:]...)
	}
	return tail, l.closed, l.wake
}

// handleJobEvents is GET /v1/jobs/{id}/events: the job's event stream as
// Server-Sent Events — every recorded event replayed from the start,
// then followed live until the terminal "done" event (or client
// disconnect). Each frame is `id: <seq>` + `event: <kind>` +
// `data: <json>`. A reconnecting client's Last-Event-ID resumes the
// stream after that ID; it must be an ID already logged for the job.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.lookupJob(id)
	if j == nil {
		jsonError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	next := 0
	if last := r.Header.Values("Last-Event-ID"); len(last) > 0 {
		seq, err := strconv.Atoi(last[0])
		if err != nil || seq < 0 || seq >= j.events.size() {
			jsonError(w, http.StatusBadRequest, "Last-Event-ID %q is not an event ID of job %q", last[0], id)
			return
		}
		next = seq + 1
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		jsonError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	for {
		events, closed, wake := j.events.from(next)
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
			next++
		}
		flusher.Flush()
		if closed && len(events) == 0 {
			return
		}
		if closed {
			continue // drain whatever arrived between from() and close
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}
