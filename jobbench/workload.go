package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/pkg/rdmamr"
)

// workload is one benchmark input and job. Every setting not named here
// is the configuration default.
type workload struct {
	name string
	// tera selects TeraGen input and a TeraSort job (total-order
	// partitioner, TeraValidate); otherwise RandomWriter input and a Sort
	// job (hash partitioner, multiset validation).
	tera bool
	// rows is the TeraGen row count; bytes the RandomWriter volume.
	rows  int64
	bytes int64
	// blockSize is dfs.block.size. TeraGen writes one file split at
	// block boundaries (the size is a multiple of the 100-byte record);
	// RandomWriter writes one unsplittable file per block.
	blockSize int64
	reduces   int
	engine    string
	// conf holds the non-default keys besides the engine and block size.
	conf map[string]string
}

const nodes = 4

var workloads = []workload{
	{name: "terasort", tera: true, rows: 500_000, blockSize: 4_000_000, reduces: 8, engine: "osu-ib-rdma"},
	{name: "terasort-http", tera: true, rows: 500_000, blockSize: 4_000_000, reduces: 8, engine: "vanilla-http"},
	{name: "sort-varlen", bytes: 64 << 20, blockSize: 4 << 20, reduces: 8, engine: "osu-ib-rdma",
		conf: map[string]string{config.KeyPrefetchCacheCap: strconv.Itoa(16 << 20)}},
	{name: "shuffle-fanin", tera: true, rows: 200_000, blockSize: 260_000, reduces: 32, engine: "osu-ib-rdma"},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// rdma reports whether the workload runs the OSU-IB engine, the only one
// that does core, ucr, verbs and mrpool work.
func (w workload) rdma() bool { return w.engine == "osu-ib-rdma" }

func (w workload) config() *config.Config {
	conf := config.New()
	conf.SetInt(config.KeyBlockSize, w.blockSize)
	conf.SetBool(config.KeyRDMAEnabled, w.rdma())
	for k, v := range w.conf {
		conf.Set(k, v)
	}
	return conf
}

// bench is a started cluster holding one workload's generated input, the
// job template over it, and what a correct output must look like.
type bench struct {
	w       workload
	cluster *mapred.Cluster
	inputs  []string
	inBytes int64
	job     mapred.Job
	want    rdmamr.Checksum
	// parts holds the SHA-256 of every expected part-r file, computed by
	// sorting the input in this process: a correct job reproduces these
	// bytes exactly, whichever shuffle engine ran it.
	parts [][32]byte
	maps  int // map tasks per job, from the warm-up job
	seq   int
}

// newBench starts a cluster, writes the seeded input and assembles the
// job (TeraSort samples its partition split points here). engine is
// normally the workload's own; the traced run passes a decorated one.
func newBench(w workload, seed int64, engine mapred.ShuffleEngine) (*bench, error) {
	cluster, err := mapred.NewCluster(nodes, w.config(), engine)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, cluster: cluster}
	if err := b.load(seed); err != nil {
		cluster.Close()
		return nil, err
	}
	return b, nil
}

func (b *bench) load(seed int64) error {
	w := b.w
	var job *mapred.Job
	var err error
	if w.tera {
		// One file, split by the planner at block boundaries.
		if b.inputs, err = rdmamr.TeraGen(b.cluster, "/in", w.rows, w.rows*100, seed); err != nil {
			return err
		}
		job, b.want, err = rdmamr.TeraSortJob(b.cluster, w.name, b.inputs, "/out", w.reduces)
	} else {
		// Leave room for the run framing and the record that crosses the
		// limit, so every file fits one block and is one map.
		if b.inputs, err = rdmamr.RandomWriter(b.cluster, "/in", w.bytes, w.blockSize-64<<10, seed); err != nil {
			return err
		}
		job, b.want, err = rdmamr.SortJob(b.cluster, w.name, b.inputs, "/out", w.reduces)
	}
	if err != nil {
		return err
	}
	b.job = *job
	for _, p := range b.inputs {
		info, err := b.cluster.FS().Stat(p)
		if err != nil {
			return err
		}
		b.inBytes += info.Size
	}
	return nil
}

func (b *bench) close() { b.cluster.Close() }

// partitioner is the job's partitioner (Sort leaves the default).
func (b *bench) partitioner() kv.Partitioner {
	if b.job.Partitioner != nil {
		return b.job.Partitioner
	}
	return kv.HashPartitioner{}
}

// format is the job's input format (Sort leaves the default).
func (b *bench) format() mapred.InputFormat {
	if b.job.InputFormat != nil {
		return b.job.InputFormat
	}
	return mapred.RunInput{}
}

// readInput returns every input record, in file order.
func (b *bench) readInput() ([]kv.Record, error) {
	var recs []kv.Record
	for _, p := range b.inputs {
		data, err := b.cluster.FS().ReadFile(p)
		if err != nil {
			return nil, err
		}
		it, err := b.format().Records(data)
		if err != nil {
			return nil, err
		}
		for it.Next() {
			recs = append(recs, it.Record())
		}
		if err := it.Err(); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// expectParts computes the expected part-r files: the input partitioned
// with the job's partitioner, each partition sorted stably (map order is
// input order, and equal keys keep it), written as one run. The sort is
// the standard library's, not kv's, so the two cannot share a defect.
func (b *bench) expectParts() error {
	recs, err := b.readInput()
	if err != nil {
		return err
	}
	parts := make([][]kv.Record, b.w.reduces)
	for _, r := range recs {
		p := b.partitioner().Partition(r.Key, b.w.reduces)
		parts[p] = append(parts[p], r)
	}
	b.parts = b.parts[:0]
	for _, part := range parts {
		slices.SortStableFunc(part, func(x, y kv.Record) int { return bytes.Compare(x.Key, y.Key) })
		b.parts = append(b.parts, sha256.Sum256(kv.WriteRun(part)))
	}
	return nil
}

// digest names the expected output: equal digests mean byte-identical
// expected part files.
func (b *bench) digest() string {
	h := sha256.New()
	for _, p := range b.parts {
		h.Write(p[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// nextJob returns a fresh copy of the job template with its own name and
// output directory (names must be unique per cluster).
func (b *bench) nextJob() *mapred.Job {
	b.seq++
	job := b.job
	job.Name = fmt.Sprintf("%s-%04d", b.w.name, b.seq)
	job.Output = fmt.Sprintf("/out/%04d", b.seq)
	return &job
}

func (b *bench) run(job *mapred.Job) (*mapred.JobResult, error) {
	return b.cluster.RunJob(context.Background(), job)
}

// check validates a finished job's output, then deletes it so the
// namespace and heap stay flat across jobs. TeraSort output must be
// globally sorted (TeraValidate); Sort output only a permutation of the
// input. Both must equal the expected part files byte for byte.
func (b *bench) check(job *mapred.Job) error {
	fs := b.cluster.FS()
	defer func() {
		for _, p := range fs.List(job.Output + "/") {
			_ = fs.Delete(p)
		}
	}()
	var err error
	if b.w.tera {
		err = rdmamr.TeraValidate(b.cluster, job.Output, b.want)
	} else {
		err = rdmamr.ValidateMultiset(b.cluster, job.Output, b.want)
	}
	if err != nil {
		return err
	}
	files := fs.List(job.Output + "/")
	if len(files) != len(b.parts) {
		return fmt.Errorf("%d output files, want %d", len(files), len(b.parts))
	}
	for i, p := range files {
		if want := fmt.Sprintf("%s/part-r-%05d", job.Output, i); p != want {
			return fmt.Errorf("output file %s, want %s", p, want)
		}
		data, err := fs.ReadFile(p)
		if err != nil {
			return err
		}
		if got := sha256.Sum256(data); !bytes.Equal(got[:], b.parts[i][:]) {
			return fmt.Errorf("%s differs from the sorted input partition", p)
		}
	}
	return nil
}

// The counters a fault-free job leaves at zero: failed task attempts,
// and every recovery action of the RDMA copier (its fault events).
var (
	attemptCounters = []string{"map.task.attempts.failed", "reduce.task.attempts.failed"}
	faultCounters   = []string{"shuffle.rdma.retries", "shuffle.rdma.reconnects",
		"shuffle.rdma.deadline.exceeded", "shuffle.rdma.blacklist.trips",
		"shuffle.rdma.lost.notices", "shuffle.rdma.conn.strays"}
)

func sum(c map[string]int64, names []string) int64 {
	var n int64
	for _, k := range names {
		n += c[k]
	}
	return n
}

// faultFree returns an error naming every nonzero fault counter.
func faultFree(c map[string]int64) error {
	var bad []string
	for _, k := range append(append([]string(nil), attemptCounters...), faultCounters...) {
		if c[k] != 0 {
			bad = append(bad, fmt.Sprintf("%s=%d", k, c[k]))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("not fault-free: %s", strings.Join(bad, " "))
	}
	return nil
}
