package core_test

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"rdmamr/internal/core"
	"rdmamr/internal/mapred"
)

// goroutinesByEntry counts the live goroutines by the function each one
// was started in (the frame just above its "created by" line).
func goroutinesByEntry() map[string]int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	counts := make(map[string]int)
	for _, g := range strings.Split(string(buf), "\n\n") {
		lines := strings.Split(strings.TrimSpace(g), "\n")
		entry := lines[0] // the header, for goroutines without a creator
		for i, l := range lines {
			if strings.HasPrefix(l, "created by ") && i >= 2 {
				entry = lines[i-2]
				if p := strings.LastIndexByte(entry, '('); p > 0 {
					entry = entry[:p]
				}
				break
			}
		}
		counts[entry]++
	}
	return counts
}

// extraGoroutines lists the goroutines running now beyond the baseline.
func extraGoroutines(baseline map[string]int) []string {
	var extra []string
	for entry, n := range goroutinesByEntry() {
		if d := n - baseline[entry]; d > 0 {
			extra = append(extra, fmt.Sprintf("%d × %s", d, entry))
		}
	}
	sort.Strings(extra)
	return extra
}

// TestClusterCloseLeavesNoGoroutines: after an OSU-IB job, closing the
// cluster stops every goroutine it started — the shared connections'
// pumps and QP processors, and each device's receive pump.
func TestClusterCloseLeavesNoGoroutines(t *testing.T) {
	baseline := goroutinesByEntry()
	c, err := mapred.NewCluster(4, rdmaConf(), core.New())
	if err != nil {
		t.Fatal(err)
	}
	runTeraSort(t, c, 2000, 8)
	c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		extra := extraGoroutines(baseline)
		if len(extra) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines left after Cluster.Close:\n%s", strings.Join(extra, "\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}
