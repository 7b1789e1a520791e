package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"rdmamr/internal/config"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
)

// zcConf returns a config for responder tests. cached selects whether
// the tracker caches map output: only cache-resident runs are served
// zero-copy, so an uncached tracker serves every request by staging.
func zcConf(cached bool) *config.Config {
	conf := config.New()
	conf.SetInt(config.KeyBlockSize, 64<<10)
	conf.SetBool(config.KeyCachingEnabled, cached)
	return conf
}

// bigRecs builds n records of roughly size bytes each, so one packet
// spans several scatter-gather ranges.
func bigRecs(n, size int) []kv.Record {
	recs := make([]kv.Record, n)
	for i := range recs {
		recs[i] = kv.Record{
			Key:   []byte(fmt.Sprintf("key-%04d", i)),
			Value: bytes.Repeat([]byte{byte('A' + i%26)}, size),
		}
	}
	return recs
}

// prefetchInto announces mapID and waits for the cache to hold it, then
// deletes the disk copy so subsequent serving can only come from cache.
func prefetchInto(t testing.TB, h *protoHarness, info mapred.JobInfo, mapID int) {
	t.Helper()
	srv := findServer(t, h)
	srv.MapOutputReady(info, mapID)
	waitUntil(t, func() bool { return h.cluster.Counters().Get("cache.prefetched") > 0 })
	tt := h.cluster.Trackers()[0]
	_ = tt.Store().Delete(mapred.MapOutputKey(info.ID, mapID, 0))
}

// waitStagesDrained waits for the responder to return its staging
// regions: releases ride the send-completion path, so the counter can
// lag the round trip briefly. A region that never comes back is a leak.
func waitStagesDrained(t testing.TB, get func(string) int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if get("shuffle.rdma.stage.outstanding") == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%d staging regions leaked", get("shuffle.rdma.stage.outstanding"))
}

func TestZeroCopyServesCacheHitWithoutStaging(t *testing.T) {
	h := newProtoHarness(t, zcConf(true))
	info := h.seedOutput(0, 0, bigRecs(12, 10<<10))
	prefetchInto(t, h, info, 0)

	var got []byte
	offset := int64(0)
	for i := 0; ; i++ {
		if i > 50 {
			t.Fatal("no EOF")
		}
		resp := h.roundTrip(h.request(0, 0, offset, 1024))
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		got = append(got, h.mr.Bytes()[:resp.Bytes]...)
		offset += int64(resp.Bytes)
		if resp.EOF {
			break
		}
	}
	recs, err := kv.DecodeAll(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 12 {
		t.Fatalf("reassembled %d records, want 12", len(recs))
	}
	c := h.cluster.Counters()
	if c.Get("shuffle.rdma.zerocopy.hits") == 0 {
		t.Fatal("cache-resident partition not served zero-copy")
	}
	if c.Get("shuffle.rdma.zerocopy.pinned.bytes") != int64(len(got)) {
		t.Fatalf("pinned.bytes = %d, want %d", c.Get("shuffle.rdma.zerocopy.pinned.bytes"), len(got))
	}
	waitStagesDrained(t, c.Get)
}

func TestZeroCopyColdPartitionFallsBackToStaging(t *testing.T) {
	h := newProtoHarness(t, zcConf(true))
	h.seedOutput(0, 0, bigRecs(3, 1024))
	// First request is cold: nothing cached yet, so the responder must
	// take the staging path and count a fallback — and still serve
	// correct bytes.
	resp := h.roundTrip(h.request(0, 0, 0, 1024))
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	recs, err := kv.DecodeAll(h.mr.Bytes()[:resp.Bytes])
	if err != nil || len(recs) != 3 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
	c := h.cluster.Counters()
	if c.Get("shuffle.rdma.zerocopy.fallbacks") == 0 {
		t.Fatal("cold-partition fallback not counted")
	}
	waitStagesDrained(t, c.Get)
}

func TestUncachedServingNeverTakesZeroCopyPath(t *testing.T) {
	h := newProtoHarness(t, zcConf(false))
	h.seedOutput(0, 0, bigRecs(6, 2048))
	resp := h.roundTrip(h.request(0, 0, 0, 1024))
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	c := h.cluster.Counters()
	if c.Get("shuffle.rdma.zerocopy.hits") != 0 || c.Get("shuffle.rdma.zerocopy.pinned.bytes") != 0 {
		t.Fatal("uncached tracker took the zero-copy path")
	}
	waitStagesDrained(t, c.Get)
}

// chunkWalk fetches a whole partition with the given per-packet record
// cap, returning the concatenated payload plus the exact chunk boundary
// sequence.
func chunkWalk(t *testing.T, h *protoHarness, maxRecords int32) ([]byte, []string) {
	t.Helper()
	var payload []byte
	var chunks []string
	offset := int64(0)
	for i := 0; ; i++ {
		if i > 100 {
			t.Fatal("no EOF")
		}
		resp := h.roundTrip(h.request(0, 0, offset, maxRecords))
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		chunks = append(chunks, fmt.Sprintf("bytes=%d records=%d eof=%v", resp.Bytes, resp.Records, resp.EOF))
		payload = append(payload, h.mr.Bytes()[:resp.Bytes]...)
		offset += int64(resp.Bytes)
		if resp.EOF {
			return payload, chunks
		}
	}
}

// TestZeroCopyBitForBitWithLegacy: a partition walked from the cache
// (zero-copy scatter-gather) and from an uncached tracker (the legacy
// staging copy) yields byte-identical payload streams with identical
// chunk boundaries.
func TestZeroCopyBitForBitWithLegacy(t *testing.T) {
	recs := bigRecs(20, 9000)
	warm := newProtoHarness(t, zcConf(true))
	prefetchInto(t, warm, warm.seedOutput(0, 0, recs), 0)
	zcBytes, zcChunks := chunkWalk(t, warm, 7)
	cold := newProtoHarness(t, zcConf(false))
	cold.seedOutput(0, 0, recs)
	stBytes, stChunks := chunkWalk(t, cold, 7)

	if warm.cluster.Counters().Get("shuffle.rdma.zerocopy.fallbacks") != 0 {
		t.Fatal("cache-resident walk fell back to staging")
	}
	if !bytes.Equal(zcBytes, stBytes) {
		t.Fatalf("payload streams differ (%d vs %d bytes)", len(zcBytes), len(stBytes))
	}
	if len(zcChunks) != len(stChunks) {
		t.Fatalf("chunk counts differ: %v vs %v", zcChunks, stChunks)
	}
	for i := range zcChunks {
		if zcChunks[i] != stChunks[i] {
			t.Fatalf("chunk %d: %s vs %s", i, zcChunks[i], stChunks[i])
		}
	}
}

// TestZeroCopyJobRemovalDuringWalk races cache teardown (JobComplete →
// RemoveJob) against an in-progress chunk walk: every chunk must still
// decode, because pinned views keep evicted bytes registered until their
// sends complete, and de-cached partitions fall back to disk.
func TestZeroCopyJobRemovalDuringWalk(t *testing.T) {
	h := newProtoHarness(t, zcConf(true))
	info := h.seedOutput(0, 0, bigRecs(30, 4000))
	srv := findServer(t, h)
	srv.MapOutputReady(info, 0)
	waitUntil(t, func() bool { return h.cluster.Counters().Get("cache.prefetched") > 0 })

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				srv.JobComplete(info)
				srv.MapOutputReady(info, 0)
			}
		}
	}()
	for round := 0; round < 5; round++ {
		payload, _ := chunkWalk(t, h, 5)
		recs, err := kv.DecodeAll(payload)
		if err != nil {
			t.Fatalf("round %d: corrupt payload under cache churn: %v", round, err)
		}
		if len(recs) != 30 {
			t.Fatalf("round %d: %d records", round, len(recs))
		}
	}
	close(done)
	wg.Wait()
	waitStagesDrained(t, h.cluster.Counters().Get)
}
