package dserve

import "sync"

// Event types and the terminal states they carry. A job's event stream is
// an append-only log: state transitions (queued → running → done|failed)
// interleaved with one event per completed analysis stage, each carrying
// the monotone stages_done/stages_total progress pair. A gateway job is a
// dserve job, so every rider of it reads this one log.
const (
	// EventState marks a job state transition; State holds the new state
	// and Terminal marks the log complete.
	EventState = "state"
	// EventStage marks one completed plan node; Stage names it and Hit
	// reports whether a memo tier served it.
	EventStage = "stage"
)

// JobEvent is one entry of a job's live progress stream, delivered over
// GET /v1/jobs/{id}/events as SSE data lines or long-poll batches.
type JobEvent struct {
	// Seq is the event's position in the job's log, starting at 0; clients
	// resume long-polls with ?after=<last seq>.
	Seq  int    `json:"seq"`
	Type string `json:"type"`
	// State is set on EventState events.
	State string `json:"state,omitempty"`
	// Error carries a failed job's message on its terminal event.
	Error string `json:"error,omitempty"`
	// Stage, Hit, StagesDone, and StagesTotal are set on EventStage events.
	// StagesDone never decreases; StagesTotal is fixed once the batch's
	// stage graph is planned.
	Stage       string `json:"stage,omitempty"`
	Hit         bool   `json:"hit,omitempty"`
	StagesDone  int    `json:"stages_done,omitempty"`
	StagesTotal int    `json:"stages_total,omitempty"`
	// Terminal marks the stream's final event; no events follow it.
	Terminal bool `json:"terminal,omitempty"`
}

// EventLog is an append-only, terminally-closed event sequence with
// change notification — the storage behind one job's progress stream.
// Appends assign sequence numbers; readers poll After and block on the
// returned channel. Safe for concurrent use.
type EventLog struct {
	mu      sync.Mutex
	events  []JobEvent
	done    bool
	changed chan struct{}
}

// NewEventLog returns an empty open log.
func NewEventLog() *EventLog {
	return &EventLog{changed: make(chan struct{})}
}

// Append adds the event (assigning its Seq) and wakes every waiter. Events
// appended after a terminal one are dropped — the stream is over.
func (l *EventLog) Append(e JobEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done {
		return
	}
	e.Seq = len(l.events)
	l.events = append(l.events, e)
	if e.Terminal {
		l.done = true
	}
	close(l.changed)
	l.changed = make(chan struct{})
}

// After returns every event with Seq > after, whether the log is
// terminally closed, and a channel that closes on the next append. A
// reader with no fresh events selects on the channel (against its own
// cancellation) and calls After again.
func (l *EventLog) After(after int) ([]JobEvent, bool, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := after + 1
	if n < 0 {
		n = 0
	}
	var out []JobEvent
	if n < len(l.events) {
		out = append(out, l.events[n:]...)
	}
	return out, l.done, l.changed
}

// Len returns the number of events appended so far.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}
