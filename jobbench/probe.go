package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"rdmamr/internal/kv"
	"rdmamr/internal/mrpool"
	"rdmamr/internal/shuffle/wire"
	"rdmamr/internal/ucr"
	"rdmamr/internal/verbs"
)

// Probes time direct calls into the public functions of kv, hdfs, ucr and
// mrpool on the workload's own data: the layer views under the job.

// repeatMedian runs fn n times and returns the median duration.
func repeatMedian(n int, fn func() error) (time.Duration, error) {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds)), nil
}

func mbPerSec(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// firstSplit returns the records of the workload's first map input: one
// block of a splittable file, or a whole unsplittable file.
func (b *bench) firstSplit() ([]kv.Record, error) {
	fs := b.cluster.FS()
	var data []byte
	if b.format().Splittable(fs.BlockSize()) {
		info, err := fs.Stat(b.inputs[0])
		if err != nil {
			return nil, err
		}
		if data, _, err = fs.ReadBlock(info.Blocks[0], ""); err != nil {
			return nil, err
		}
	} else {
		var err error
		if data, err = fs.ReadFile(b.inputs[0]); err != nil {
			return nil, err
		}
	}
	it, err := b.format().Records(data)
	if err != nil {
		return nil, err
	}
	var recs []kv.Record
	for it.Next() {
		recs = append(recs, it.Record())
	}
	return recs, it.Err()
}

// probeKV times the map-side sort (PartitionAndSort with the job's
// partitioner), the run encoder, and the reduce-side merge at the job's
// map fan-in, on one split of the workload.
func (b *bench) probeKV(fanIn int, m metrics) error {
	recs, err := b.firstSplit()
	if err != nil {
		return err
	}
	n := len(recs)
	if n == 0 {
		return fmt.Errorf("first split of %s is empty", b.w.name)
	}
	part, reduces := b.partitioner(), b.w.reduces
	scratch := make([]kv.Record, n)
	sortOnce := func(cmp kv.Comparator) [][]kv.Record {
		copy(scratch, recs)
		return kv.PartitionAndSort(scratch, part, reduces, cmp)
	}
	reps := min(25, 1+200_000/n)
	d, err := repeatMedian(reps, func() error { sortOnce(kv.BytesComparator); return nil })
	if err != nil {
		return err
	}
	m.set("kv.sort_ns_per_rec", float64(d.Nanoseconds())/float64(n))

	var compares int64
	sortOnce(func(a, b []byte) int { compares++; return bytes.Compare(a, b) })
	m.set("kv.sort_compares_per_rec", float64(compares)/float64(n))

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	parts := sortOnce(kv.BytesComparator)
	runtime.ReadMemStats(&ms1)
	m.set("kv.sort_b_per_rec", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(n))

	var runBytes int64
	d, err = repeatMedian(reps, func() error {
		runBytes = 0
		for _, p := range parts {
			runBytes += int64(len(kv.WriteRun(p)))
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("kv.writerun_mb_s", mbPerSec(runBytes, d))

	// Deal the sorted split round-robin into fanIn sorted runs.
	sorted := make([]kv.Record, 0, n)
	for _, p := range parts {
		sorted = append(sorted, p...)
	}
	kv.SortRecords(sorted, kv.BytesComparator)
	fanIn = max(1, min(fanIn, n))
	deal := make([][]kv.Record, fanIn)
	for i, r := range sorted {
		deal[i%fanIn] = append(deal[i%fanIn], r)
	}
	runs := make([][]byte, fanIn)
	var mergeBytes int64
	for i, d := range deal {
		runs[i] = kv.WriteRun(d)
		mergeBytes += int64(len(runs[i]))
	}
	d, err = repeatMedian(reps, func() error {
		_, err := kv.MergeRuns(kv.BytesComparator, runs...)
		return err
	})
	if err != nil {
		return err
	}
	m.set("kv.merge_mb_s", mbPerSec(mergeBytes, d))
	return nil
}

// probeHDFS reads one input file and writes the same bytes to a scratch
// path through the streaming writer.
func (b *bench) probeHDFS(m metrics) error {
	fs := b.cluster.FS()
	var data []byte
	d, err := repeatMedian(5, func() (err error) {
		data, err = fs.ReadFile(b.inputs[0])
		return err
	})
	if err != nil {
		return err
	}
	m.set("hdfs.read_mb_s", mbPerSec(int64(len(data)), d))
	i := 0
	d, err = repeatMedian(5, func() error {
		i++
		path := fmt.Sprintf("/probe/%d", i)
		w, err := fs.Create(path, "")
		if err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		return fs.Delete(path)
	})
	if err != nil {
		return err
	}
	m.set("hdfs.write_mb_s", mbPerSec(int64(len(data)), d))
	return nil
}

// probeTransport measures a fresh two-device fabric: the control-message
// round trip with a shuffle-request-sized message, RDMA write and read
// at chunk bytes, and an mrpool Alloc+Free of chunk bytes.
func probeTransport(chunk int, m metrics) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fab := ucr.NewFabric()
	client, err := fab.NewDevice("probe-client")
	if err != nil {
		return err
	}
	server, err := fab.NewDevice("probe-server")
	if err != nil {
		return err
	}
	ln, err := fab.Listen(server, "probe")
	if err != nil {
		return err
	}
	defer ln.Close()
	cep, err := fab.Connect(ctx, client, server.Name(), "probe")
	if err != nil {
		return err
	}
	defer cep.Close()
	sep, err := ln.Accept(ctx)
	if err != nil {
		return err
	}
	defer sep.Close()

	req := (&wire.DataRequest{JobID: "job_0001_terasort-0001", MapID: 12, ReduceID: 7,
		Offset: 1 << 20, MaxBytes: 128 << 10, MaxRecords: 1024, RemoteAddr: 1 << 32, RKey: 9, Tag: 3}).Encode()
	const batch = 200
	d, err := repeatMedian(7, func() error {
		for i := 0; i < batch; i++ {
			if err := cep.Send(ctx, req); err != nil {
				return err
			}
			if _, err := sep.Recv(ctx); err != nil {
				return err
			}
			if err := sep.Send(ctx, req); err != nil {
				return err
			}
			if _, err := cep.Recv(ctx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("ucr.ctrl_rtt_us", float64(d.Nanoseconds())/1e3/batch)

	local, err := cep.RegisterMemory(make([]byte, chunk))
	if err != nil {
		return err
	}
	remote, err := sep.RegisterMemory(bytes.Repeat([]byte{0xa5}, chunk))
	if err != nil {
		return err
	}
	ops := min(2000, 1+(64<<20)/chunk)
	for _, op := range []struct {
		name string
		fn   func() error
	}{
		{"ucr.write_mb_s", func() error {
			return sep.RDMAWrite(ctx, verbs.SGE{MR: remote, Length: chunk}, local.Addr(), local.RKey())
		}},
		{"ucr.read_mb_s", func() error {
			return cep.RDMARead(ctx, verbs.SGE{MR: local, Length: chunk}, remote.Addr(), remote.RKey())
		}},
	} {
		d, err := repeatMedian(5, func() error {
			for i := 0; i < ops; i++ {
				if err := op.fn(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		m.set(op.name, mbPerSec(int64(chunk)*int64(ops), d))
	}

	pool := mrpool.For(client)
	const allocs = 2000
	d, err = repeatMedian(7, func() error {
		for i := 0; i < allocs; i++ {
			blk, err := pool.Alloc(chunk, "probe")
			if err != nil {
				return err
			}
			blk.Free()
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("mrpool.alloc_ns", float64(d.Nanoseconds())/allocs)
	return nil
}
