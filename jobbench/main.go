// Command jobbench is the end-to-end job benchmark: a closed loop with one
// client that runs one functional MapReduce job at a time (HDFS → map →
// sort/spill → shuffle → merge → reduce → HDFS) on an in-process 4-node
// cluster, validates every job's output, and prints one JSON result line.
//
//	jobbench --workload terasort --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: per-job medians of
// wall time, CPU time and heap allocation, input MB per second, the
// set-up time, and the share of jobs that passed. With --trace 1 it
// reports the per-layer metrics instead, from alternating traced and
// untraced jobs, and writes the traced jobs' spans to .bench_build/spans
// under the working directory. The workloads are listed in workload.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"rdmamr/internal/mapred"
	"rdmamr/pkg/rdmamr"
)

// setupReps is how many times an untraced run sets up (cluster, input,
// sampling, warm-up job); setup_s is their median and the first set-up
// serves the timed jobs.
const setupReps = 3

type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics.
var endToEnd = []metricDef{
	{"job_s", "s"},
	{"sort_mb_s", "MB/s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"allocs_k", "k"},
	{"setup_s", "s"},
	{"pass_ratio", "ratio"},
}

// perLayer are the --trace 1 metrics. Engine-specific ones read 0 on
// workloads whose engine does not do that work.
var perLayer = []metricDef{
	{"map.task_s", "s"}, {"map.read_s", "s"}, {"map.fn_s", "s"}, {"map.self_s", "s"},
	{"map.output_mb", "MB"}, {"map.spills", "count"},
	{"kv.sort_ns_per_rec", "ns"}, {"kv.sort_compares_per_rec", "count"}, {"kv.sort_b_per_rec", "B"},
	{"kv.writerun_mb_s", "MB/s"}, {"kv.merge_mb_s", "MB/s"},
	{"reduce.task_s", "s"}, {"reduce.fn_s", "s"}, {"reduce.self_s", "s"},
	{"sched.first_map_ms", "ms"}, {"sched.map_phase_ms", "ms"}, {"sched.tail_ms", "ms"},
	{"sched.local_ratio", "ratio"}, {"sched.attempts_failed", "count"},
	{"shuffle.fetch_call_s", "s"}, {"shuffle.wait_s", "s"}, {"shuffle.first_record_ms", "ms"},
	{"shuffle.drain_ms", "ms"}, {"shuffle.close_ms", "ms"}, {"shuffle.ready_us", "us"},
	{"shuffle.jobcomplete_ms", "ms"}, {"shuffle.overlap_ms", "ms"},
	{"core.bytes_per_packet", "B"}, {"core.cache_hit_ratio", "ratio"}, {"core.disk_reads", "count"},
	{"core.responder_busy_s", "s"}, {"core.zerocopy_hits", "count"}, {"core.fallbacks", "count"},
	{"core.slot_stalls", "count"}, {"core.conn_opened", "count"}, {"core.fault_events", "count"},
	{"http.requests", "count"}, {"http.bytes_per_packet", "B"},
	{"ucr.ctrl_rtt_us", "us"}, {"ucr.write_mb_s", "MB/s"}, {"ucr.read_mb_s", "MB/s"},
	{"mrpool.alloc_ns", "ns"}, {"mrpool.slab_allocs", "count"},
	{"hdfs.read_mb_s", "MB/s"}, {"hdfs.write_mb_s", "MB/s"},
	{"go.gc_cycles", "count"}, {"trace.overhead_ratio", "ratio"}, {"leak.goroutines", "count"},
	{"trace.map_coverage", "ratio"}, {"trace.reduce_coverage", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value; set fills the unit from defs.
type metrics map[string]metric

var units = func() map[string]string {
	u := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

func (m metrics) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("jobbench: undeclared metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string // directory for the traced run's span file
}

func main() {
	var (
		name  = flag.String("workload", "", "workload name")
		o     options
		trace = flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	)
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "seconds of timed jobs")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(2)
	}
	o.trace = *trace == 1
	o.spans = filepath.Join(".bench_build", "spans")
	res, err := measure(w, o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(1)
	}
}

// jobCost is what one job cost the process.
type jobCost struct {
	wall, cpu      time.Duration
	allocB, allocs uint64
	gcs            uint32
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timeJob runs one job from a collected heap and returns its cost.
func (b *bench) timeJob(job *mapred.Job) (*mapred.JobResult, jobCost, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	res, err := b.run(job)
	wall := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)
	return res, jobCost{wall: wall, cpu: c1 - c0, allocB: m1.TotalAlloc - m0.TotalAlloc,
		allocs: m1.Mallocs - m0.Mallocs, gcs: m1.NumGC - m0.NumGC}, err
}

// tally counts jobs and their failures. A job fails if it errors, its
// output does not validate, or it was not fault-free: any failed task
// attempt or any RDMA retry, reconnect, deadline, blacklist trip, lost
// notice or stray connection. Only the first two make the run's output
// incorrect: a job that was not fault-free still wrote validated output.
type tally struct {
	log               io.Writer
	attempted, failed int
	wrong             int // jobs that errored or whose output did not validate
}

func (t *tally) judge(b *bench, job *mapred.Job, res *mapred.JobResult, err error) bool {
	t.attempted++
	if err == nil {
		err = b.check(job)
	}
	if err != nil {
		t.wrong++
	} else {
		err = faultFree(res.Counters)
	}
	if err != nil {
		t.failed++
		fmt.Fprintf(t.log, "job %s FAILED: %v\n", job.Name, err)
		return false
	}
	return true
}

func (t *tally) result(m metrics) *result {
	return &result{Correct: t.wrong == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// leakCheck closes the cluster and reports the goroutines left beyond
// the count before any cluster started, once the count has stopped
// falling for 200 ms. Goroutines an earlier close leaked count again.
func leakCheck(b *bench, baseline int, log io.Writer) int {
	b.close()
	n, settled := runtime.NumGoroutine(), time.Now()
	for n > baseline && time.Since(settled) < 200*time.Millisecond {
		time.Sleep(10 * time.Millisecond)
		if now := runtime.NumGoroutine(); now < n {
			n, settled = now, time.Now()
		}
	}
	leak := max(n-baseline, 0)
	fmt.Fprintf(log, "leak.goroutines after cluster close: %d\n", leak)
	return leak
}

func measure(w workload, o options, log io.Writer) (*result, error) {
	if o.trace {
		return measureTraced(w, o, log)
	}
	return measureUntraced(w, o, log)
}

// setUp starts a cluster with the workload's input and runs the warm-up
// job, returning the bench and how long that took. parts, when set,
// spares recomputing the expected output of an earlier identical set-up.
func setUp(w workload, seed int64, engine mapred.ShuffleEngine, parts [][32]byte, t *tally) (*bench, time.Duration, error) {
	t0 := time.Now()
	b, err := newBench(w, seed, engine)
	if err != nil {
		return nil, 0, err
	}
	job := b.nextJob()
	res, err := b.run(job)
	took := time.Since(t0)
	if err == nil {
		b.maps = res.NumMaps
	}
	if parts != nil {
		b.parts = parts
	} else if err := b.expectParts(); err != nil {
		b.close()
		return nil, 0, err
	}
	t.judge(b, job, res, err)
	return b, took, nil
}

func engineFor(w workload) mapred.ShuffleEngine {
	e, err := rdmamr.EngineByName(w.engine)
	if err != nil {
		panic(err) // the workload table names only known engines
	}
	return e
}

// measureUntraced times jobs on the first set-up's cluster, then sets up
// setupReps-1 more times for setup_s alone. The jobs run first so that no
// closed cluster's leftovers share the heap with them.
func measureUntraced(w workload, o options, log io.Writer) (*result, error) {
	baseline := runtime.NumGoroutine()
	t := &tally{log: log}
	b, took, err := setUp(w, o.seed, engineFor(w), nil, t)
	if err != nil {
		return nil, err
	}
	setups := []float64{took.Seconds()}
	fmt.Fprintf(log, "%s: %d maps over %.1f MB of input, expected output digest %s\n", w.name, b.maps, float64(b.inBytes)/1e6, b.digest())

	var wall, cpu, allocMB, allocsK []float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		job := b.nextJob()
		res, cost, err := b.timeJob(job)
		if t.judge(b, job, res, err) {
			wall = append(wall, cost.wall.Seconds())
			cpu = append(cpu, cost.cpu.Seconds())
			allocMB = append(allocMB, float64(cost.allocB)/1e6)
			allocsK = append(allocsK, float64(cost.allocs)/1e3)
		}
	}
	leakCheck(b, baseline, log)
	for len(setups) < setupReps {
		nb, took, err := setUp(w, o.seed, engineFor(w), b.parts, t)
		if err != nil {
			return nil, err
		}
		leakCheck(nb, baseline, log)
		setups = append(setups, took.Seconds())
	}

	m := metrics{}
	jobS := median(wall)
	m.set("job_s", jobS)
	m.set("sort_mb_s", ratio(float64(b.inBytes)/1e6, jobS))
	m.set("cpu_s", median(cpu))
	m.set("alloc_mb", median(allocMB))
	m.set("allocs_k", median(allocsK))
	m.set("setup_s", median(setups))
	m.set("pass_ratio", float64(t.attempted-t.failed)/float64(t.attempted))
	fmt.Fprintf(log, "%s: %d timed jobs, median job %.3f s\n  job s %.3f\n  cpu s %.3f\n  setup s %.3f\n",
		w.name, len(wall), jobS, wall, cpu, setups)
	return t.result(m), nil
}

func measureTraced(w workload, o options, log io.Writer) (*result, error) {
	baseline := runtime.NumGoroutine()
	t := &tally{log: log}
	eng := &tracedEngine{ShuffleEngine: engineFor(w)}
	b, _, err := setUp(w, o.seed, eng, nil, t)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	samples := map[string][]float64{}
	var tracedWall, plainWall, plainGCs []float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		job := b.nextJob()
		if i%2 == 1 {
			res, cost, err := b.timeJob(job)
			if t.judge(b, job, res, err) {
				plainWall = append(plainWall, cost.wall.Seconds())
				plainGCs = append(plainGCs, float64(cost.gcs))
			}
			continue
		}
		jt := newJobTrace(rec, job.Name)
		eng.active.Store(jt)
		jt.start = time.Now()
		res, cost, err := b.timeJob(jt.wrap(job))
		end := time.Now()
		eng.active.Store(nil)
		rec.add(span{ID: jt.root, Job: jt.job, Name: "job", Start: jt.start, End: end})
		if t.judge(b, job, res, err) {
			tracedWall = append(tracedWall, cost.wall.Seconds())
			for k, v := range layerSample(jt, res, end) {
				samples[k] = append(samples[k], v)
			}
		}
	}

	// Every metric is emitted even when no traced job passed; the
	// transport probe's stay 0 on the HTTP engine.
	m := metrics{}
	for _, d := range perLayer {
		m.set(d.name, 0)
	}
	for k, vs := range samples {
		m.set(k, median(vs))
	}
	if err := b.probeKV(b.maps, m); err != nil {
		b.close()
		return nil, fmt.Errorf("kv probe: %w", err)
	}
	if err := b.probeHDFS(m); err != nil {
		b.close()
		return nil, fmt.Errorf("hdfs probe: %w", err)
	}
	m.set("leak.goroutines", float64(leakCheck(b, baseline, log)))
	if chunk := int(m["core.bytes_per_packet"].Value); w.rdma() && chunk > 0 {
		if err := probeTransport(chunk, m); err != nil {
			return nil, fmt.Errorf("transport probe: %w", err)
		}
	}
	m.set("go.gc_cycles", median(plainGCs))
	m.set("trace.overhead_ratio", ratio(median(tracedWall), median(plainWall)))

	path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	if err := rec.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(log, "%s: %d traced + %d untraced jobs, spans in %s\n", w.name, len(tracedWall), len(plainWall), path)
	fmt.Fprintf(log, "%s: trace covers %.1f%% of map.task_s and %.1f%% of reduce.task_s; overhead ratio %.3f\n",
		w.name, 100*m["trace.map_coverage"].Value, 100*m["trace.reduce_coverage"].Value, m["trace.overhead_ratio"].Value)
	return t.result(m), nil
}

// layerSample derives one traced job's per-layer values from its seam
// timings and its always-on counters and phase times.
func layerSample(jt *jobTrace, res *mapred.JobResult, end time.Time) map[string]float64 {
	c, p := res.Counters, res.Phases
	mapTask := p["map.task"].Seconds()
	mapRead, mapFn := secs(jt.mapReadNs.Load()), secs(jt.mapFnNs.Load())
	reduceTask := (p["reduce.shuffle"] + p["reduce.apply"]).Seconds()
	fetchCall, wait, reduceFn := secs(jt.fetchCallNs.Load()), secs(jt.fetchWaitNs.Load()), secs(jt.reduceFnNs.Load())
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return map[string]float64{
		"map.task_s":    mapTask,
		"map.read_s":    mapRead,
		"map.fn_s":      mapFn,
		"map.self_s":    mapTask - mapRead - mapFn,
		"map.output_mb": float64(c["map.output.bytes"]) / 1e6,
		"map.spills":    float64(c["map.spills"]),

		"reduce.task_s":         reduceTask,
		"reduce.fn_s":           reduceFn,
		"reduce.self_s":         reduceTask - fetchCall - wait - reduceFn,
		"trace.map_coverage":    ratio(mapRead+mapFn, mapTask),
		"trace.reduce_coverage": ratio(fetchCall+wait+reduceFn, reduceTask),

		"sched.first_map_ms":    ms(jt.firstInput.Sub(jt.start)),
		"sched.map_phase_ms":    ms(jt.lastReady.Sub(jt.start)),
		"sched.tail_ms":         ms(end.Sub(jt.lastReady)),
		"sched.local_ratio":     ratio(c["map.input.blocks.local"], c["map.input.blocks.local"]+c["map.input.blocks.remote"]),
		"sched.attempts_failed": float64(sum(c, attemptCounters)),

		"shuffle.fetch_call_s":    fetchCall,
		"shuffle.wait_s":          wait,
		"shuffle.first_record_ms": median(jt.firstRecMs),
		"shuffle.drain_ms":        median(jt.drainMs),
		"shuffle.close_ms":        median(jt.closeMs),
		"shuffle.ready_us":        median(jt.readyUs),
		"shuffle.jobcomplete_ms":  ms(time.Duration(jt.jobCompleteNs.Load())),
		"shuffle.overlap_ms":      ms(jt.lastReady.Sub(jt.firstRecord)),

		"core.bytes_per_packet": ratio(c["shuffle.rdma.bytes"], c["shuffle.rdma.packets"]),
		"core.cache_hit_ratio":  ratio(c["cache.hits"], c["cache.hits"]+c["cache.misses"]),
		"core.disk_reads":       float64(c["tracker.mapoutput.disk.reads"]),
		"core.responder_busy_s": secs(c["shuffle.rdma.responder.busy.ns"]),
		"core.zerocopy_hits":    float64(c["shuffle.rdma.zerocopy.hits"]),
		"core.fallbacks":        float64(c["shuffle.rdma.zerocopy.fallbacks"] + c["shuffle.rdma.read.fallbacks"]),
		"core.slot_stalls":      float64(c["shuffle.rdma.slot.stalls"]),
		"core.conn_opened":      float64(c["shuffle.rdma.conn.opened"]),
		"core.fault_events":     float64(sum(c, faultCounters)),

		"http.requests":         float64(c["shuffle.http.requests"]),
		"http.bytes_per_packet": ratio(c["shuffle.http.bytes"], c["shuffle.http.packets"]),
		"mrpool.slab_allocs":    float64(c["mr.slab.allocs"]),
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio[T int64 | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
