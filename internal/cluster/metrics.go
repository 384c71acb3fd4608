package cluster

import (
	"encoding/json"
	"io"
	"net"
	"time"

	"iustitia/internal/ops"
)

// This file federates the per-node structured metrics (internal/ops) at
// the router: the prober piggybacks a METRICS fetch on every successful
// status probe, and the router serves the combined document — its own
// journal depth and frame counters plus every node's last metrics
// snapshot — through the METRICS verb on its admin listener.

// ClusterMetrics is the router's federated metrics document.
type ClusterMetrics struct {
	// Version is the admin protocol version of the router itself; each
	// node's own version rides in its PerNode entry.
	Version int `json:"version"`
	// State is the router's health FSM state.
	State     string `json:"state"`
	Nodes     int    `json:"nodes"`
	Available int    `json:"available"`
	// JournalDepth is the number of sent-but-unacked packets currently
	// held in replay journals across all node senders.
	JournalDepth int `json:"journal_depth"`
	// ConservationGap and Violations mirror the CLUSTER line's
	// cluster-wide law check.
	ConservationGap int `json:"conservation_gap"`
	Violations      int `json:"violations"`
	// SumDegradedShards, SumSwaps, and SumRollbacks aggregate the ops
	// counters over every node with a metrics snapshot — the fleet-wide
	// "is any node serving on its breaker or a rolled-back model" view.
	SumDegradedShards int `json:"sum_degraded_shards"`
	SumSwaps          int `json:"sum_swaps"`
	SumRollbacks      int `json:"sum_rollbacks"`
	// PerNode holds each node's last fetched metrics snapshot, keyed by
	// node name. Nodes that predate the METRICS verb are absent.
	PerNode map[string]*ops.NodeMetrics `json:"per_node"`
}

// JournalDepth sums the current replay-journal entries across all node
// senders.
func (r *Router) JournalDepth() int {
	r.member.RLock()
	defer r.member.RUnlock()
	depth := 0
	for _, s := range r.senders {
		s.mu.Lock()
		depth += s.journal.len()
		s.mu.Unlock()
	}
	return depth
}

// ClusterMetrics assembles the federated document from the health table's
// last-fetched node snapshots.
func (r *Router) ClusterMetrics() ClusterMetrics {
	st := r.Stats()
	cs := r.ClusterStats()
	cm := ClusterMetrics{
		Version:         ops.Version,
		State:           st.State.String(),
		Nodes:           cs.Nodes,
		Available:       cs.Available,
		JournalDepth:    r.JournalDepth(),
		ConservationGap: cs.Gap(),
		Violations:      st.ConservationViolations,
		PerNode:         make(map[string]*ops.NodeMetrics),
	}
	for name, h := range r.probes.view() {
		if h.Metrics == nil {
			continue
		}
		cm.PerNode[name] = h.Metrics
		cm.SumDegradedShards += h.Metrics.Engine.DegradedShards
		cm.SumSwaps += h.Metrics.Swap.Swaps
		cm.SumRollbacks += h.Metrics.Swap.Rollbacks
	}
	return cm
}

// ProbeClusterMetrics fetches a router's federated metrics document
// through its admin listener.
func ProbeClusterMetrics(statusAddr string, timeout time.Duration) (*ClusterMetrics, error) {
	c, err := net.DialTimeout("tcp", statusAddr, timeout)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(timeout))
	if _, err := c.Write([]byte("METRICS\n")); err != nil {
		return nil, err
	}
	doc, err := io.ReadAll(c)
	if err != nil {
		return nil, err
	}
	var cm ClusterMetrics
	if err := json.Unmarshal(doc, &cm); err != nil {
		return nil, err
	}
	return &cm, nil
}
