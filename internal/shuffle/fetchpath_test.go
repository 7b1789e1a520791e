package shuffle_test

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"rdmamr/internal/chaos"
	"rdmamr/internal/config"
	"rdmamr/internal/core"
	"rdmamr/internal/kv"
	"rdmamr/internal/mapred"
	"rdmamr/internal/mapred/mapredtest"
	"rdmamr/internal/shuffle/httpshuffle"
	"rdmamr/internal/workload"
)

// smallCacheConf is the standard engine test configuration with a
// prefetch cache too small for the job's map output, so some runs are
// served zero-copy from the cache and the rest (cold or evicted) by the
// staging copy.
func smallCacheConf(cacheBytes int64) *config.Config {
	c := engineConf()
	c.SetBool(config.KeyRDMAEnabled, true)
	c.SetInt(config.KeyPrefetchCacheCap, cacheBytes)
	return c
}

// runTeraSortConf is runEngineTeraSort with an injectable configuration
// and engine instance, returning the job result alongside the validated
// checksum so arm-specific counters can be asserted.
func runTeraSortConf(t *testing.T, conf *config.Config, eng mapred.ShuffleEngine, nodes int, rows int64) (workload.Checksum, *mapred.JobResult) {
	t.Helper()
	c, err := mapred.NewCluster(nodes, conf, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return runTeraSortOn(t, c, rows)
}

// runTeraSortOn runs and validates TeraSort on an already-built cluster.
func runTeraSortOn(t *testing.T, c *mapred.Cluster, rows int64) (workload.Checksum, *mapred.JobResult) {
	t.Helper()
	fs := c.FS()
	paths, err := workload.TeraGen(fs, "/in", rows, 16<<10, 99)
	if err != nil {
		t.Fatal(err)
	}
	sample, err := workload.SampleKeys(fs, paths, mapred.TeraInput, 100)
	if err != nil {
		t.Fatal(err)
	}
	part, err := kv.NewTotalOrderPartitioner(kv.SampleSplits(sample, 6))
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.ChecksumInput(fs, paths, mapred.TeraInput)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunJob(ctxT(t), &mapred.Job{
		Name: "ts-arm", Input: paths, Output: "/out",
		InputFormat: mapred.TeraInput, Partitioner: part, NumReduces: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Validate(fs, "/out", kv.BytesComparator, want, true); err != nil {
		t.Fatal(err)
	}
	return want, res
}

// readOutput returns every output file of a finished job by path.
func readOutput(t *testing.T, c *mapred.Cluster, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	for _, path := range c.FS().List(dir) {
		data, err := c.FS().ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = data
	}
	if len(files) == 0 {
		t.Fatalf("no output files under %s", dir)
	}
	return files
}

// TestFetchPathsBitForBit: with a prefetch cache too small to hold the
// map output, the OSU-IB responder serves some runs zero-copy and the
// rest by staging, and the job's output is byte-identical to the
// vanilla HTTP shuffle's on the same input — without absorbing a
// single fault.
func TestFetchPathsBitForBit(t *testing.T) {
	outputs := make(map[string]map[string][]byte)
	for name, run := range map[string]struct {
		conf *config.Config
		eng  mapred.ShuffleEngine
	}{
		"osu-ib-rdma":  {smallCacheConf(128 << 10), core.New()},
		"vanilla-http": {engineConf(), httpshuffle.New()},
	} {
		c, err := mapred.NewCluster(4, run.conf, run.eng)
		if err != nil {
			t.Fatal(err)
		}
		_, res := runTeraSortOn(t, c, 6000)
		mapredtest.AssertFaultFree(t, res)
		if name == "osu-ib-rdma" {
			hits, falls := res.Counters["shuffle.rdma.zerocopy.hits"], res.Counters["shuffle.rdma.zerocopy.fallbacks"]
			t.Logf("zerocopy.hits=%d zerocopy.fallbacks=%d cache.evictions=%d", hits, falls, res.Counters["cache.evictions"])
			if hits == 0 || falls == 0 {
				t.Fatalf("want both paths exercised: zerocopy.hits=%d zerocopy.fallbacks=%d", hits, falls)
			}
		}
		outputs[name] = readOutput(t, c, "/out")
		c.Close()
	}
	rdma, http := outputs["osu-ib-rdma"], outputs["vanilla-http"]
	if len(rdma) != len(http) {
		t.Fatalf("output file counts differ: %d vs %d", len(rdma), len(http))
	}
	for path, want := range http {
		if !bytes.Equal(rdma[path], want) {
			t.Fatalf("output %s differs from vanilla-http", path)
		}
	}
}

// chaosSeed mirrors the copier chaos seed contract: fixed for CI,
// overridable via RDMAMR_CHAOS_SEED.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("RDMAMR_CHAOS_SEED")
	if s == "" {
		return 7
	}
	seed, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("RDMAMR_CHAOS_SEED=%q: %v", s, err)
	}
	t.Logf("chaos seed overridden: %d", seed)
	return seed
}

// reviveKillOnFirstOutput kills the serving side of the first host to
// announce a map output — by construction a host some reducer needs —
// and revives it shortly after, so the shuffle must ride out a dead peer
// without corrupting or hanging (and without needing RecoverMap).
type reviveKillOnFirstOutput struct {
	mapred.ShuffleEngine
	inj  *chaos.Injector
	once sync.Once
}

func (k *reviveKillOnFirstOutput) StartTracker(tt *mapred.TaskTracker) (mapred.TrackerServer, error) {
	inner, err := k.ShuffleEngine.StartTracker(tt)
	if err != nil {
		return nil, err
	}
	return &reviveKillServer{TrackerServer: inner, k: k, host: tt.Host()}, nil
}

type reviveKillServer struct {
	mapred.TrackerServer
	k    *reviveKillOnFirstOutput
	host string
}

func (s *reviveKillServer) MapOutputReady(job mapred.JobInfo, mapID int) {
	s.k.once.Do(func() {
		s.k.inj.KillPeer(s.host)
		time.AfterFunc(300*time.Millisecond, func() { s.k.inj.RevivePeer(s.host) })
	})
	s.TrackerServer.MapOutputReady(job, mapID)
}

// TestEvictingCacheSeededChaos runs TeraSort with the prefetch cache at
// its floor under the full degradation matrix at once: seeded transport
// chaos (severs, drops, delays) and a killed-then-revived peer, while
// evictions race the zero-copy pins of in-flight responses. The
// invariant is the acceptance contract: output validates against the
// input checksum and the job completes.
func TestEvictingCacheSeededChaos(t *testing.T) {
	conf := smallCacheConf(256 << 10)
	// Budget headroom above the fault caps, as in the copier chaos runs.
	conf.SetInt(config.KeyRDMAConnectRetries, 12)
	conf.SetInt(config.KeyRDMARequestTimeout, 5000)

	inj := chaos.New(chaos.Config{
		Seed:         chaosSeed(t),
		DropSendProb: 0.02,
		SeverProb:    0.04,
		DelayProb:    0.05,
		Delay:        200 * time.Microsecond,
		MaxFaults:    10,
	})
	eng := &reviveKillOnFirstOutput{ShuffleEngine: core.New(), inj: inj}
	c, err := mapred.NewCluster(3, conf, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	net := c.Trackers()[0].Fabric().Network()
	net.SetFaultInjector(inj)
	defer net.SetFaultInjector(nil)

	_, res := runTeraSortOn(t, c, 20000)

	if inj.Faults() == 0 {
		t.Fatal("chaos injector never fired; the run proved nothing")
	}
	if res.Counters["shuffle.rdma.zerocopy.hits"] == 0 || res.Counters["cache.evictions"] == 0 {
		t.Fatalf("zero-copy hits and evictions never both happened under chaos: %v", res.Counters)
	}
	drops, fails, severs, delays, refusals := inj.Stats()
	t.Logf("chaos: drops=%d fails=%d severs=%d delays=%d refusals=%d", drops, fails, severs, delays, refusals)
	t.Logf("zerocopy.hits=%d zerocopy.fallbacks=%d evictions=%d reconnects=%d",
		res.Counters["shuffle.rdma.zerocopy.hits"], res.Counters["shuffle.rdma.zerocopy.fallbacks"],
		res.Counters["cache.evictions"], res.Counters["shuffle.rdma.reconnects"])
}
