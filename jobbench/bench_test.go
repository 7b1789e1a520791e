package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rdmamr/internal/mapred"
)

// tiny shrinks a workload's input so every path runs in well under a
// second; engine, reduces and configuration stay as they are.
func tiny(w workload) workload {
	if w.tera {
		w.rows, w.blockSize = 3000, 30_000 // 10 maps
	} else {
		w.bytes, w.blockSize = 2<<20, 512<<10
	}
	return w
}

func checkMetrics(t *testing.T, label string, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", label, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", label, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, d.name)
		} else if m.Unit != d.unit {
			t.Errorf("%s: %s unit %q, want %q", label, d.name, m.Unit, d.unit)
		}
	}
}

// TestWorkloadsTiny runs every workload untraced and traced at tiny
// input: each job validates, and each run emits exactly its metrics.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := tiny(w)
			res, err := measure(w, options{seed: 7, seconds: 0.2}, os.Stderr)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "untraced", res, endToEnd)
			for _, name := range []string{"job_s", "sort_mb_s", "cpu_s", "alloc_mb", "allocs_k", "setup_s", "pass_ratio"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}

			spans := t.TempDir()
			res, err = measure(w, options{seed: 7, seconds: 0.2, trace: true, spans: spans}, os.Stderr)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, "traced", res, perLayer)
			m := res.Metrics
			for _, name := range []string{"map.task_s", "map.fn_s", "reduce.task_s", "shuffle.wait_s",
				"kv.sort_ns_per_rec", "kv.merge_mb_s", "hdfs.read_mb_s", "trace.overhead_ratio"} {
				if m[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m[name].Value)
				}
			}
			// Engine-specific metrics read 0 where the engine does not apply.
			rdmaOnly := []string{"core.bytes_per_packet", "core.zerocopy_hits", "ucr.ctrl_rtt_us",
				"ucr.write_mb_s", "ucr.read_mb_s", "mrpool.alloc_ns", "mrpool.slab_allocs"}
			httpOnly := []string{"http.requests", "http.bytes_per_packet"}
			zero, nonzero := httpOnly, rdmaOnly
			if !w.rdma() {
				zero, nonzero = rdmaOnly, httpOnly
			}
			for _, name := range zero {
				if m[name].Value != 0 {
					t.Errorf("%s = %v on %s, want 0", name, m[name].Value, w.engine)
				}
			}
			for _, name := range nonzero {
				if m[name].Value <= 0 {
					t.Errorf("%s = %v on %s, want > 0", name, m[name].Value, w.engine)
				}
			}

			data, err := os.ReadFile(filepath.Join(spans, w.name+"-seed7.json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Name string `json:"name"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &trace); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, e := range trace.TraceEvents {
				seen[e.Name] = true
			}
			for _, name := range []string{"job", "map input", "fetch", "first record", "drain", "close", "job complete"} {
				if !seen[name] {
					t.Errorf("no %q span in the trace", name)
				}
			}
		})
	}
}

// TestEnginesAgree runs the same TeraSort input on the RDMA and the HTTP
// engine and compares the output files byte for byte.
func TestEnginesAgree(t *testing.T) {
	var outputs [][]byte
	for _, name := range []string{"terasort", "terasort-http"} {
		w, err := lookupWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newBench(tiny(w), 7, engineFor(w))
		if err != nil {
			t.Fatal(err)
		}
		job := b.nextJob()
		if _, err := b.run(job); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, p := range b.cluster.FS().List(job.Output + "/") {
			data, err := b.cluster.FS().ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(data)
		}
		outputs = append(outputs, h.Sum(nil))
		b.close()
	}
	if !bytes.Equal(outputs[0], outputs[1]) {
		t.Fatalf("terasort output %x differs from terasort-http output %x", outputs[0], outputs[1])
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// workloads and metrics this program runs and emits.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", got, want)
	}
	for _, c := range []struct {
		label string
		spec  []struct{ Name, Unit string }
		defs  []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var got []string
		for _, m := range c.spec {
			got = append(got, m.Name+" "+m.Unit)
		}
		var want []string
		for _, d := range c.defs {
			want = append(want, d.name+" "+d.unit)
		}
		if !slices.Equal(got, want) {
			t.Errorf("BENCHMARK.json %s %v, want %v", c.label, got, want)
		}
	}
}

// TestFaultFree checks the fault-free rule names each counter it trips on.
func TestFaultFree(t *testing.T) {
	if err := faultFree(map[string]int64{"shuffle.rdma.bytes": 9, "cache.hits": 3}); err != nil {
		t.Fatalf("clean counters: %v", err)
	}
	err := faultFree(map[string]int64{"shuffle.rdma.reconnects": 2, "reduce.task.attempts.failed": 1})
	if err == nil {
		t.Fatal("faulty counters passed")
	}
	for _, want := range []string{"shuffle.rdma.reconnects=2", "reduce.task.attempts.failed=1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%v does not name %s", err, want)
		}
	}
}

// TestTallyJudge checks how a job counts: a job whose output validates
// but that was not fault-free fails without making the output
// incorrect; a job whose output does not validate makes it incorrect.
func TestTallyJudge(t *testing.T) {
	w, err := lookupWorkload("terasort")
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBench(tiny(w), 7, engineFor(w))
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if err := b.expectParts(); err != nil {
		t.Fatal(err)
	}
	tl := &tally{log: io.Discard}
	for _, tc := range []struct {
		label   string
		spoil   func(job *mapred.Job, res *mapred.JobResult) error
		correct bool
		failed  int
	}{
		{"clean", func(*mapred.Job, *mapred.JobResult) error { return nil }, true, 0},
		{"reconnect", func(_ *mapred.Job, res *mapred.JobResult) error {
			res.Counters["shuffle.rdma.reconnects"]++
			return nil
		}, true, 1},
		{"wrong output", func(job *mapred.Job, _ *mapred.JobResult) error {
			return b.cluster.FS().Delete(job.Output + "/part-r-00000")
		}, false, 2},
	} {
		job := b.nextJob()
		res, err := b.run(job)
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.spoil(job, res); err != nil {
			t.Fatal(err)
		}
		tl.judge(b, job, res, nil)
		if r := tl.result(nil); r.Correct != tc.correct || r.Failed != tc.failed {
			t.Errorf("after %s job: correct=%v failed=%d, want %v and %d", tc.label, r.Correct, r.Failed, tc.correct, tc.failed)
		}
	}
}
