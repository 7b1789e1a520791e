// Package mapredtest holds job-level assertions shared by the tests of
// several packages.
package mapredtest

import (
	"testing"

	"rdmamr/internal/mapred"
)

// FaultCounters are the job counters that record a fault being absorbed
// somewhere in the shuffle: re-issued requests, re-dialed connections,
// request deadlines, blacklisted hosts, liveness loss notices, and
// responses that arrived for a connection already retired.
var FaultCounters = []string{
	"shuffle.rdma.retries",
	"shuffle.rdma.reconnects",
	"shuffle.rdma.deadline.exceeded",
	"shuffle.rdma.blacklist.trips",
	"shuffle.rdma.lost.notices",
	"shuffle.rdma.conn.strays",
}

// AssertFaultFree fails the test unless every fault counter of res reads
// zero: a job nobody injected faults into must not have healed from any.
func AssertFaultFree(t testing.TB, res *mapred.JobResult) {
	t.Helper()
	for _, name := range FaultCounters {
		if n := res.Counters[name]; n != 0 {
			t.Errorf("fault-free job counted %s = %d", name, n)
		}
	}
}
