package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Scheduler event types. These are deliberately short dotted names in
// their own namespace (not counter names): an event is one discrete
// decision or fault with a timestamp and a cause, where a counter is
// only a running total.
const (
	// EvHeartbeatExpired: the failure detector declared a tracker dead —
	// its last heartbeat is older than the expiry window.
	EvHeartbeatExpired = "heartbeat.expired"
	// EvTrackerDecommissioned: the scheduler fenced the dead tracker off
	// (attempts cancelled, responder shut down).
	EvTrackerDecommissioned = "tracker.decommissioned"
	// EvTrackerRevived: a killed or decommissioned tracker rejoined.
	EvTrackerRevived = "tracker.revived"
	// EvOutputRehosted: a dead node's completed map output was
	// re-executed and is now served by a new host.
	EvOutputRehosted = "output.rehosted"
	// EvSpeculationLaunched: a backup attempt started for a straggler.
	EvSpeculationLaunched = "speculation.launched"
	// EvSpeculationWon: the backup attempt committed first.
	EvSpeculationWon = "speculation.won"
	// EvSpeculationLost: the backup attempt lost the commit race and its
	// output was discarded.
	EvSpeculationLost = "speculation.lost"
	// EvAttemptRetried: a failed or killed task attempt was requeued.
	EvAttemptRetried = "attempt.retried"
	// EvAttemptExhausted: a task ran out of attempts and failed the job.
	EvAttemptExhausted = "attempt.exhausted"
	// EvJobQueued: a submitted job found mapred.jobtracker.max.running
	// jobs already running and is waiting for admission.
	EvJobQueued = "job.queued"
	// EvJobAdmitted: the JobTracker admitted a job; its attempts now
	// compete for shared slots.
	EvJobAdmitted = "job.admitted"
	// EvJobCompleted: a job finished successfully and released its slot.
	EvJobCompleted = "job.completed"
	// EvJobFailed: a job failed or was cancelled; its partial output was
	// scrubbed and its admission slot released.
	EvJobFailed = "job.failed"
	// EvAttemptSpeculated: the straggler detector launched a speculative
	// backup attempt (the scheduler-side decision; the per-attempt race
	// outcome is reported by speculation.won / speculation.lost).
	EvAttemptSpeculated = "attempt.speculated"
)

// Event is one structured scheduler event: what happened, to which
// job/task, on which host, and why. Seq is a monotonically increasing
// log position (assigned by Append) so consumers can order and resume.
type Event struct {
	Seq   int64     `json:"seq"`
	At    time.Time `json:"at"`
	Type  string    `json:"type"`
	Job   string    `json:"job,omitempty"`
	Task  string    `json:"task,omitempty"`
	Host  string    `json:"host,omitempty"`
	Cause string    `json:"cause,omitempty"`
}

// String renders the event one-per-line, the /events text format.
func (e Event) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "#%d %s %s", e.Seq, e.At.Format("15:04:05.000"), e.Type)
	if e.Job != "" {
		fmt.Fprintf(&sb, " job=%s", e.Job)
	}
	if e.Task != "" {
		fmt.Fprintf(&sb, " task=%s", e.Task)
	}
	if e.Host != "" {
		fmt.Fprintf(&sb, " host=%s", e.Host)
	}
	if e.Cause != "" {
		fmt.Fprintf(&sb, " cause=%q", e.Cause)
	}
	return sb.String()
}

// EventLog is a bounded ring of scheduler events: appends are O(1), the
// newest cap events are retained, and older ones are counted as dropped
// rather than silently vanishing. All methods are safe for concurrent
// use and no-ops on a nil receiver — a nil *EventLog IS the disabled
// event log, mirroring the registry/profile discipline.
type EventLog struct {
	mu      sync.Mutex
	ring    []Event
	start   int // index of the oldest retained event
	count   int // retained events
	seq     int64
	dropped int64
}

// NewEventLog returns an event log retaining the newest cap events
// (minimum 1).
func NewEventLog(cap int) *EventLog {
	if cap < 1 {
		cap = 1
	}
	return &EventLog{ring: make([]Event, cap)}
}

// Append records an event, assigning its Seq and, when At is zero, the
// current time. Returns the assigned Seq (0 on a nil receiver).
func (l *EventLog) Append(e Event) int64 {
	if l == nil {
		return 0
	}
	if e.At.IsZero() {
		e.At = time.Now()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	if l.count == len(l.ring) {
		l.ring[l.start] = e
		l.start = (l.start + 1) % len(l.ring)
		l.dropped++
	} else {
		l.ring[(l.start+l.count)%len(l.ring)] = e
		l.count++
	}
	return e.Seq
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.count)
	for i := 0; i < l.count; i++ {
		out = append(out, l.ring[(l.start+i)%len(l.ring)])
	}
	return out
}

// Tail returns the newest n retained events, oldest first.
func (l *EventLog) Tail(n int) []Event {
	evs := l.Events()
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// TailSince returns up to max retained events with Seq > seq, oldest
// first — "what happened during this job" given the Seq at job start.
func (l *EventLog) TailSince(seq int64, max int) []Event {
	evs := l.Events()
	i := 0
	for i < len(evs) && evs[i].Seq <= seq {
		i++
	}
	evs = evs[i:]
	if max > 0 && len(evs) > max {
		evs = evs[len(evs)-max:]
	}
	return evs
}

// Seq returns the sequence number of the newest event (0 when empty).
func (l *EventLog) Seq() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Dropped returns how many events aged out of the ring.
func (l *EventLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// EventsSnapshot is the /events.json payload.
type EventsSnapshot struct {
	Events  []Event `json:"events"`
	Dropped int64   `json:"dropped"`
	Total   int64   `json:"total"`
}

// Snapshot copies out the retained events plus drop accounting.
func (l *EventLog) Snapshot() EventsSnapshot {
	if l == nil {
		return EventsSnapshot{Events: []Event{}}
	}
	evs := l.Events()
	l.mu.Lock()
	defer l.mu.Unlock()
	return EventsSnapshot{Events: evs, Dropped: l.dropped, Total: l.seq}
}

// WriteText renders the retained events one per line, oldest first.
func (l *EventLog) WriteText(w io.Writer) {
	snap := l.Snapshot()
	fmt.Fprintf(w, "scheduler events (%d retained of %d, %d dropped)\n",
		len(snap.Events), snap.Total, snap.Dropped)
	for _, e := range snap.Events {
		fmt.Fprintf(w, "%s\n", e)
	}
}

// FormatEvents renders events one per line — the job-failure dump.
func FormatEvents(evs []Event) string {
	var sb strings.Builder
	for _, e := range evs {
		sb.WriteString("  ")
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
