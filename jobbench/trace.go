package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
)

// The traced run times the job from outside the program: it wraps the
// seams mapred exposes to users (the job's InputFormat and Reducer, and a
// decorating ShuffleEngine) and records spans in memory.

// span is one timed interval. Spans of one job share Job; Parent is the
// ID of the span that caused it (0 for the job itself).
type span struct {
	ID, Parent int64
	Job, Name  string
	Start, End time.Time
}

// recorder keeps every span of a run in memory until the run ends.
type recorder struct {
	origin time.Time
	lastID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) newID() int64 { return r.lastID.Add(1) }

func (r *recorder) add(s span) {
	if s.ID == 0 {
		s.ID = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// write stores the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto), one process per job.
func (r *recorder) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  string         `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: s.Job, Tid: s.Parent,
			Ts:   float64(s.Start.Sub(r.origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "job": s.Job},
		})
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// jobTrace collects one traced job's seam timings.
type jobTrace struct {
	rec   *recorder
	job   string
	root  int64
	start time.Time

	mapReadNs     atomic.Int64 // inside InputFormat.Records and iterator Next
	mapFnNs       atomic.Int64 // between records: the Mapper, collect included
	reduceFnNs    atomic.Int64 // inside the Reducer less output writes, sampled
	fetchCallNs   atomic.Int64 // inside ReduceFetcher.Fetch
	fetchWaitNs   atomic.Int64 // inside the merged iterator's Next
	jobCompleteNs atomic.Int64 // inside TrackerServer.JobComplete

	mu          sync.Mutex
	firstInput  time.Time
	lastReady   time.Time
	firstRecord time.Time
	readyUs     []float64
	firstRecMs  []float64
	drainMs     []float64
	closeMs     []float64
}

func newJobTrace(rec *recorder, job string) *jobTrace {
	return &jobTrace{rec: rec, job: job, root: rec.newID()}
}

func (jt *jobTrace) span(parent int64, name string, start, end time.Time) {
	jt.rec.add(span{Parent: parent, Job: jt.job, Name: name, Start: start, End: end})
}

const reduceSample = 8

// wrap returns the job with its InputFormat and Reducer timed.
func (jt *jobTrace) wrap(job *mapred.Job) *mapred.Job {
	out := *job
	format := out.InputFormat
	if format == nil {
		format = mapred.RunInput{}
	}
	reducer := out.Reducer
	if reducer == nil {
		reducer = mapred.IdentityReducer
	}
	// The Mapper is timed from the input iterator (tracedRecords), which
	// runs on the map task's own goroutine and needs no shared counter.
	out.InputFormat = tracedInput{InputFormat: format, jt: jt}
	// Every reduceSample-th Reducer call is timed and stands for the
	// calls between; timing each would cost more than an identity
	// reducer does.
	var calls atomic.Int64
	out.Reducer = func(key []byte, values [][]byte, emit func(k, v []byte)) error {
		if calls.Add(1)%reduceSample != 0 {
			return reducer(key, values, emit)
		}
		var emitNs int64
		timedEmit := func(k, v []byte) {
			t := mono()
			emit(k, v)
			emitNs += mono() - t
		}
		t0 := mono()
		err := reducer(key, values, timedEmit)
		jt.reduceFnNs.Add(reduceSample * (mono() - t0 - emitNs))
		return err
	}
	return &out
}

type tracedInput struct {
	mapred.InputFormat
	jt *jobTrace
}

func (in tracedInput) Records(split []byte) (kv.Iterator, error) {
	t0 := time.Now()
	jt := in.jt
	jt.mu.Lock()
	if jt.firstInput.IsZero() {
		jt.firstInput = t0
	}
	jt.mu.Unlock()
	it, err := in.InputFormat.Records(split)
	if err != nil {
		return nil, err
	}
	return &tracedRecords{it: it, jt: jt, start: t0, readNs: int64(time.Since(t0))}, nil
}

// tracedRecords times one map task's input iteration: the time inside
// Next is input reading, and the time from Next handing out a record to
// the task asking for the next one is the Mapper with its collect calls.
// The totals land in the job when the iterator is exhausted.
type tracedRecords struct {
	it     kv.Iterator
	jt     *jobTrace
	start  time.Time
	readNs int64
	fnNs   int64
	last   int64 // mono() when Next last returned a record, 0 before
	done   bool
}

func (r *tracedRecords) Next() bool {
	t0 := mono()
	if r.last != 0 {
		r.fnNs += t0 - r.last
		r.last = 0
	}
	ok := r.it.Next()
	t1 := mono()
	r.readNs += t1 - t0
	if ok {
		r.last = t1
	} else if !r.done {
		r.done = true
		r.jt.mapReadNs.Add(r.readNs)
		r.jt.mapFnNs.Add(r.fnNs)
		r.jt.span(r.jt.root, "map input", r.start, time.Now())
	}
	return ok
}

func (r *tracedRecords) Record() kv.Record { return r.it.Record() }
func (r *tracedRecords) Err() error        { return r.it.Err() }

// tracedEngine decorates a shuffle engine. While a job trace is active
// it times the tracker servers' notifications and wraps every reduce
// fetcher; otherwise it only forwards.
type tracedEngine struct {
	mapred.ShuffleEngine
	active atomic.Pointer[jobTrace]
}

func (e *tracedEngine) StartTracker(tt *mapred.TaskTracker) (mapred.TrackerServer, error) {
	s, err := e.ShuffleEngine.StartTracker(tt)
	if err != nil {
		return nil, err
	}
	return &tracedServer{TrackerServer: s, e: e}, nil
}

func (e *tracedEngine) NewReduceFetcher(task mapred.ReduceTaskInfo) (mapred.ReduceFetcher, error) {
	created := time.Now()
	f, err := e.ShuffleEngine.NewReduceFetcher(task)
	jt := e.active.Load()
	if err != nil || jt == nil {
		return f, err
	}
	return &tracedFetcher{ReduceFetcher: f, jt: jt, id: jt.rec.newID(), created: created,
		name: fmt.Sprintf("fetcher r%d@%d", task.ReduceID, task.Attempt)}, nil
}

type tracedServer struct {
	mapred.TrackerServer
	e *tracedEngine
}

func (s *tracedServer) MapOutputReady(job mapred.JobInfo, mapID int) {
	jt := s.e.active.Load()
	if jt == nil {
		s.TrackerServer.MapOutputReady(job, mapID)
		return
	}
	t0 := time.Now()
	s.TrackerServer.MapOutputReady(job, mapID)
	t1 := time.Now()
	jt.mu.Lock()
	jt.readyUs = append(jt.readyUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
	if t1.After(jt.lastReady) {
		jt.lastReady = t1
	}
	jt.mu.Unlock()
	jt.span(jt.root, fmt.Sprintf("map output ready m%d", mapID), t0, t1)
}

func (s *tracedServer) JobComplete(job mapred.JobInfo) {
	jt := s.e.active.Load()
	if jt == nil {
		s.TrackerServer.JobComplete(job)
		return
	}
	t0 := time.Now()
	s.TrackerServer.JobComplete(job)
	t1 := time.Now()
	jt.jobCompleteNs.Add(int64(t1.Sub(t0)))
	jt.span(jt.root, "job complete", t0, t1)
}

// tracedFetcher times one reduce task's shuffle: the Fetch call, every
// Next on the merged stream, the first record, the drain and Close. Only
// the reduce task's goroutine touches it.
type tracedFetcher struct {
	mapred.ReduceFetcher
	jt      *jobTrace
	id      int64
	name    string
	created time.Time

	waitNs  int64
	first   time.Time
	drained time.Time
}

func (f *tracedFetcher) Fetch(ctx context.Context) (kv.Iterator, error) {
	t0 := time.Now()
	it, err := f.ReduceFetcher.Fetch(ctx)
	t1 := time.Now()
	f.jt.fetchCallNs.Add(int64(t1.Sub(t0)))
	f.jt.span(f.id, "fetch", t0, t1)
	if err != nil {
		return nil, err
	}
	return &tracedMerged{it: it, f: f}, nil
}

func (f *tracedFetcher) Close() error {
	t0 := time.Now()
	err := f.ReduceFetcher.Close()
	t1 := time.Now()
	jt := f.jt
	jt.fetchWaitNs.Add(f.waitNs)
	jt.span(f.id, "close", t0, t1)
	jt.rec.add(span{ID: f.id, Parent: jt.root, Job: jt.job, Name: f.name, Start: f.created, End: t1})
	if f.drained.IsZero() {
		return err // the reduce failed before draining; nothing to time
	}
	if f.first.IsZero() {
		f.first = f.drained // empty partition
	}
	jt.span(f.id, "first record", f.created, f.first)
	jt.span(f.id, "drain", f.first, f.drained)
	jt.mu.Lock()
	jt.firstRecMs = append(jt.firstRecMs, ms(f.first.Sub(f.created)))
	jt.drainMs = append(jt.drainMs, ms(f.drained.Sub(f.created)))
	jt.closeMs = append(jt.closeMs, ms(t1.Sub(t0)))
	if jt.firstRecord.IsZero() || f.first.Before(jt.firstRecord) {
		jt.firstRecord = f.first
	}
	jt.mu.Unlock()
	return err
}

type tracedMerged struct {
	it kv.Iterator
	f  *tracedFetcher
}

func (m *tracedMerged) Next() bool {
	t0 := mono()
	ok := m.it.Next()
	f := m.f
	f.waitNs += mono() - t0
	if ok && f.first.IsZero() {
		f.first = time.Now()
	}
	if !ok && f.drained.IsZero() {
		f.drained = time.Now()
	}
	return ok
}

func (m *tracedMerged) Record() kv.Record { return m.it.Record() }
func (m *tracedMerged) Err() error        { return m.it.Err() }

// epoch anchors mono: time.Since reads only the monotonic clock, half
// the cost of time.Now, which matters on per-record paths.
var epoch = time.Now()

// mono returns monotonic nanoseconds since epoch.
func mono() int64 { return int64(time.Since(epoch)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// median returns the middle value (mean of the middle two), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
