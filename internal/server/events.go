package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/engine"
)

// jobEvent is one frame of a job's event stream: the compact JSON
// summary of an engine Event (or the terminal "done" marker), rendered
// when the frame is written and sequence-numbered so SSE clients can
// resume.
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

// summarizeEvent renders an engine event as its stream frame, less the
// frame's sequence number.
func summarizeEvent(ev engine.Event) jobEvent {
	switch {
	case ev.Sim != nil:
		return jobEvent{
			Kind:     "sim",
			Unit:     string(ev.Sim.Unit),
			Trace:    ev.Sim.Trace,
			Type:     ev.Sim.Type.String(),
			CacheHit: ev.Sim.CacheHit,
		}
	case ev.Litmus != nil:
		holds := ev.Litmus.Holds
		je := jobEvent{
			Kind:  "litmus",
			Type:  ev.Litmus.Atomicity.String(),
			Holds: &holds,
		}
		if ev.Litmus.Test != nil {
			je.Test = ev.Litmus.Test.Name
		}
		return je
	default:
		d := ev.DeadLetter
		return jobEvent{
			Kind:    "coord",
			Coord:   "dead-letter",
			Unit:    d.Unit,
			Attempt: d.Attempts,
			Reason:  d.Reasons[len(d.Reasons)-1],
		}
	}
}

// eventLog is one job's append-only event log: the engine's records in
// arrival order, then the terminal "done" entry once the job has
// finished. The records point into the job's own results, which the
// engine never writes after streaming them, so the log holds no copy of
// its own; frames are rendered as they are written. Appends wake blocked
// readers; readers replay from any index and then follow live.
type eventLog struct {
	mu      sync.Mutex
	entries []engine.Event
	wake    chan struct{} // closed and replaced on every append; nil once closed
	// state and err are the terminal entry's, set when the log closes.
	state, err string
}

// newEventLog returns an empty log with room for n records.
func newEventLog(n int) *eventLog {
	return &eventLog{entries: make([]engine.Event, 0, n), wake: make(chan struct{})}
}

// append adds one record (no-op after close).
func (l *eventLog) append(ev engine.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wake == nil {
		return
	}
	l.entries = append(l.entries, ev)
	close(l.wake)
	l.wake = make(chan struct{})
}

// close records the terminal entry, the job's final state and error
// message, and marks the log complete.
func (l *eventLog) close(state, err string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wake == nil {
		return
	}
	l.state, l.err = state, err
	close(l.wake)
	l.wake = nil
}

// size returns the number of entries logged so far, the terminal one
// included.
func (l *eventLog) size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wake == nil {
		return len(l.entries) + 1
	}
	return len(l.entries)
}

// from returns the records at index i and beyond, the terminal frame when
// the log is closed and i does not pass it (nil otherwise), and a channel
// that wakes when more arrive, nil once the log is closed.
func (l *eventLog) from(i int) ([]engine.Event, *jobEvent, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.entries)
	var tail []engine.Event
	if i < n {
		// Logged records are never rewritten, so the tail is read outside
		// the lock; its capacity ends at n, so no later append reaches it.
		tail = l.entries[i:n:n]
	}
	var final *jobEvent
	if l.wake == nil && i <= n {
		final = &jobEvent{Seq: n, Kind: "done", State: l.state, Error: l.err}
	}
	return tail, final, l.wake
}

// writeFrame writes one SSE frame: `id: <seq>`, `event: <kind>` and
// `data: <json>`.
func writeFrame(w io.Writer, ev jobEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
	return err
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
		events, final, wake := j.events.from(next)
		for _, ev := range events {
			je := summarizeEvent(ev)
			je.Seq = next
			if writeFrame(w, je) != nil {
				return
			}
			next++
		}
		if final != nil && writeFrame(w, *final) != nil {
			return
		}
		flusher.Flush()
		if wake == nil {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}
