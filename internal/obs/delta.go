package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file is the metric-shipping half of the cluster telemetry plane:
// each TaskTracker owns a node-local Registry, a DeltaShipper turns it
// into compact delta snapshots that ride the heartbeat path, and the
// scheduler's ClusterView merges them into per-node totals, a bounded
// time-series ring for rate computation, and a cluster aggregate —
// the input shape a future adaptive transport controller reads.

// Delta is one node's registry movement since its previous shipment:
// counter deltas (only nonzero ones), absolute gauge values, and the
// interval the deltas cover. Histograms intentionally do not ship —
// they stay node-local (served by the node's own snapshot) to keep the
// heartbeat payload compact.
type Delta struct {
	Host     string           `json:"host"`
	Seq      uint64           `json:"seq"`
	At       time.Time        `json:"at"`
	Interval time.Duration    `json:"interval_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
}

// DeltaShipper produces Deltas from a node registry. Each Collect
// diffs the registry against the previous Collect, so shipping the
// results in order reconstructs the node's totals exactly. Safe for
// concurrent use; a nil registry yields empty (but still sequenced)
// deltas, which keeps heartbeat freshness flowing with telemetry off.
type DeltaShipper struct {
	host string
	reg  *Registry

	mu   sync.Mutex
	seq  uint64
	last map[string]int64
	at   time.Time
}

// NewDeltaShipper returns a shipper for host's node registry.
func NewDeltaShipper(host string, reg *Registry) *DeltaShipper {
	return &DeltaShipper{host: host, reg: reg}
}

// Collect produces the next delta as of now. The first Collect reports
// everything accumulated so far (delta from zero).
func (d *DeltaShipper) Collect(now time.Time) *Delta {
	if d == nil {
		return nil
	}
	counters := d.reg.CounterSnapshot()
	gauges := d.reg.GaugeSnapshot()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	out := &Delta{Host: d.host, Seq: d.seq, At: now, Gauges: gauges}
	if !d.at.IsZero() {
		out.Interval = now.Sub(d.at)
	}
	d.at = now
	diff := make(map[string]int64)
	for name, v := range counters {
		if delta := v - d.last[name]; delta != 0 {
			diff[name] = delta
		}
	}
	if len(diff) > 0 {
		out.Counters = diff
	}
	d.last = counters
	return out
}

// nodeView is the scheduler's running picture of one node.
type nodeView struct {
	host   string
	seq    uint64
	lastAt time.Time
	stale  bool
	totals map[string]int64
	gauges map[string]int64
	ring   []*Delta // newest-last window of recent deltas
}

// ClusterView merges per-node Deltas into the scheduler's cluster-wide
// telemetry picture. The per-node ring of recent deltas is the
// time-series sampler: rates (fetch B/s, chunks/s) are computed as
// sum(window deltas)/sum(window intervals), so they describe the recent
// past, not the whole job. Nil-safe like every obs recorder.
type ClusterView struct {
	mu     sync.Mutex
	window int
	nodes  map[string]*nodeView
}

// NewClusterView returns a view retaining the newest window deltas per
// node for rate computation (minimum 2 — a rate needs an interval).
func NewClusterView(window int) *ClusterView {
	if window < 2 {
		window = 2
	}
	return &ClusterView{window: window, nodes: make(map[string]*nodeView)}
}

// Ingest merges one shipped delta. Deltas must arrive in per-node Seq
// order; duplicates and reordered stragglers are dropped (the next
// in-order delta resynchronizes totals because each delta is a diff
// against the shipper's own last snapshot). Ingesting marks the node
// fresh — a heartbeat arrived.
func (v *ClusterView) Ingest(d *Delta) {
	if v == nil || d == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	n := v.nodes[d.Host]
	if n == nil {
		n = &nodeView{host: d.Host, totals: make(map[string]int64), gauges: make(map[string]int64)}
		v.nodes[d.Host] = n
	}
	if d.Seq <= n.seq {
		return
	}
	n.seq = d.Seq
	n.lastAt = d.At
	n.stale = false
	for name, delta := range d.Counters {
		n.totals[name] += delta
	}
	for name, g := range d.Gauges {
		n.gauges[name] = g
	}
	n.ring = append(n.ring, d)
	if len(n.ring) > v.window {
		n.ring = n.ring[len(n.ring)-v.window:]
	}
}

// MarkStale flags a node whose heartbeats expired: its totals stay (the
// last truth the scheduler had) but the report labels them stale.
func (v *ClusterView) MarkStale(host string) {
	if v == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if n := v.nodes[host]; n != nil {
		n.stale = true
	}
}

// Rate returns counter name's recent per-second rate on host, computed
// over the node's delta window (0 when unknown or the window covers no
// time).
func (v *ClusterView) Rate(host, name string) float64 {
	if v == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	n := v.nodes[host]
	if n == nil {
		return 0
	}
	return rateOf(n.ring, name)
}

func rateOf(ring []*Delta, name string) float64 {
	var sum int64
	var span time.Duration
	for _, d := range ring {
		sum += d.Counters[name]
		span += d.Interval
	}
	if span <= 0 {
		return 0
	}
	return float64(sum) / span.Seconds()
}

// NodeReport is one node's telemetry in a ClusterReport.
type NodeReport struct {
	Host   string             `json:"host"`
	Stale  bool               `json:"stale"`
	AgeMs  float64            `json:"age_ms"` // since last ingested delta
	Seq    uint64             `json:"seq"`
	Totals map[string]int64   `json:"totals,omitempty"`
	Gauges map[string]int64   `json:"gauges,omitempty"`
	Rates  map[string]float64 `json:"rates_per_s,omitempty"` // over the delta window
}

// ClusterReport is the /cluster.json payload: every node plus the
// cluster aggregate (stale nodes' totals included, their rates not).
type ClusterReport struct {
	Nodes  []NodeReport       `json:"nodes"`
	Totals map[string]int64   `json:"cluster_totals,omitempty"`
	Rates  map[string]float64 `json:"cluster_rates_per_s,omitempty"`
	Window int                `json:"window"`
}

// Report snapshots the view as of now. Nil receiver → nil.
func (v *ClusterView) Report(now time.Time) *ClusterReport {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	rep := &ClusterReport{Window: v.window, Totals: make(map[string]int64), Rates: make(map[string]float64)}
	hosts := make([]string, 0, len(v.nodes))
	for h := range v.nodes {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		n := v.nodes[h]
		nr := NodeReport{
			Host:   n.host,
			Stale:  n.stale,
			Seq:    n.seq,
			Totals: make(map[string]int64, len(n.totals)),
			Gauges: make(map[string]int64, len(n.gauges)),
			Rates:  make(map[string]float64),
		}
		if !n.lastAt.IsZero() {
			nr.AgeMs = float64(now.Sub(n.lastAt)) / float64(time.Millisecond)
		}
		for name, t := range n.totals {
			nr.Totals[name] = t
			rep.Totals[name] += t
		}
		for name, g := range n.gauges {
			nr.Gauges[name] = g
		}
		names := make(map[string]bool)
		for _, d := range n.ring {
			for name := range d.Counters {
				names[name] = true
			}
		}
		for name := range names {
			r := rateOf(n.ring, name)
			if r != 0 {
				nr.Rates[name] = r
				if !n.stale {
					rep.Rates[name] += r
				}
			}
		}
		rep.Nodes = append(rep.Nodes, nr)
	}
	return rep
}

// JSON renders the report as indented JSON.
func (r *ClusterReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// WriteText renders the report for humans: one block per node with its
// totals and window rates, then the cluster aggregate.
func (r *ClusterReport) WriteText(w io.Writer) {
	if r == nil {
		fmt.Fprintln(w, "(no cluster view)")
		return
	}
	fmt.Fprintf(w, "cluster telemetry (%d nodes, rate window %d deltas)\n", len(r.Nodes), r.Window)
	for _, n := range r.Nodes {
		state := "fresh"
		if n.Stale {
			state = "STALE"
		}
		fmt.Fprintf(w, "\n  %s  [%s, seq %d, age %.0f ms]\n", n.Host, state, n.Seq, n.AgeMs)
		writeSortedInt64(w, "    ", n.Totals)
		for _, name := range sortedKeys(n.Rates) {
			fmt.Fprintf(w, "    %s = %.1f/s\n", name, n.Rates[name])
		}
		for _, name := range sortedKeys(n.Gauges) {
			fmt.Fprintf(w, "    %s = %d (gauge)\n", name, n.Gauges[name])
		}
	}
	if len(r.Totals) > 0 {
		fmt.Fprintf(w, "\n  cluster totals:\n")
		writeSortedInt64(w, "    ", r.Totals)
	}
}

func writeSortedInt64(w io.Writer, indent string, m map[string]int64) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s%s = %d\n", indent, name, m[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Text renders the report as a string.
func (r *ClusterReport) Text() string {
	var sb strings.Builder
	r.WriteText(&sb)
	return sb.String()
}
