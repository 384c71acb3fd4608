// Package cluster turns N independent iustitia-serve instances into one
// federated classification service: a consistent-hash ring assigns every
// flow to a node, a status prober tracks each node's ingest health FSM
// through the machine-readable STATUS line, and a frame-level router
// spreads framed-packet traffic across the healthy nodes while asserting
// the cluster-wide conservation law
//
//	Σ Received == Σ Admitted + Σ Quarantined + Σ Shed   (across nodes)
//
// — the federation of the per-node transport law from internal/ingest.
// Rolling restarts hand a drained node's final KindParallelCheckpoint to
// its successor (same node name, resumed state), so the ring's flow→node
// assignment survives the restart and no verdict is lost.
package cluster

import (
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"iustitia/internal/flow"
	"iustitia/internal/packet"
)

// ErrNodeExists is returned (wrapped) by Ring.Add when the node name is
// already on the ring — node names are cluster-unique identities, so a
// duplicate ADD is an operator error, not an idempotent no-op.
var ErrNodeExists = errors.New("cluster: node already on the ring")

// DefaultReplicas is the virtual-node count per physical node. 64 points
// per node keeps the largest/smallest ownership ratio low without making
// ring rebuilds expensive.
const DefaultReplicas = 64

// ringPoint is one virtual node: a position on the 64-bit hash circle and
// the physical node that owns the arc ending there.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring over node names. Flow IDs map to points
// with PointOf; each point is owned by the first virtual node at or after
// it (wrapping). Adding or removing a node moves only the arcs adjacent
// to that node's virtual points — every other flow keeps its owner, which
// is what makes health-driven failover and rolling restarts cheap.
//
// Ring is not safe for concurrent mutation; the router guards it with its
// own lock.
type Ring struct {
	replicas int
	points   []ringPoint // sorted by (hash, node)
	nodes    map[string]struct{}
}

// NewRing builds an empty ring with the given virtual-node count per
// physical node (<= 0 selects DefaultReplicas).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, nodes: make(map[string]struct{})}
}

// pointHash positions virtual node i of a node on the circle: the same
// SHA-1 family as flow IDs, so placement is deterministic across
// processes (a router restart rebuilds the identical ring).
func pointHash(node string, i int) uint64 {
	sum := sha1.Sum([]byte(node + "#" + strconv.Itoa(i)))
	return binary.BigEndian.Uint64(sum[:8])
}

// PointOf maps a flow ID to its position on the circle: the same full
// 64-bit word flow.ParallelEngine reduces for shard routing.
func PointOf(id flow.ID) uint64 {
	return binary.BigEndian.Uint64(id[:8])
}

// PointOfTuple maps a packet 5-tuple to its ring position.
func PointOfTuple(t packet.FiveTuple) uint64 {
	return PointOf(flow.IDOf(t))
}

// Add inserts a node's virtual points. Adding a present node is an error
// (names are cluster-unique identities).
func (r *Ring) Add(node string) error {
	if node == "" {
		return fmt.Errorf("cluster: empty node name")
	}
	if _, ok := r.nodes[node]; ok {
		return fmt.Errorf("%w: %q", ErrNodeExists, node)
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hash: pointHash(node, i), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return nil
}

// Remove deletes a node's virtual points; its arcs fall to the next
// nodes on the circle. Removing an absent node is a no-op.
func (r *Ring) Remove(node string) {
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Clone returns an independent copy of the ring, so a membership change
// can be staged (and its moved arcs computed) before it is published.
func (r *Ring) Clone() *Ring {
	c := &Ring{
		replicas: r.replicas,
		points:   append([]ringPoint(nil), r.points...),
		nodes:    make(map[string]struct{}, len(r.nodes)),
	}
	for n := range r.nodes {
		c.nodes[n] = struct{}{}
	}
	return c
}

// Nodes returns the ring membership, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the physical node count.
func (r *Ring) Len() int { return len(r.nodes) }

// firstAt returns the index of the first virtual point at or after p,
// wrapping to 0 past the last point.
func (r *Ring) firstAt(p uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= p })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Owner returns the node owning point p, or false on an empty ring.
func (r *Ring) Owner(p uint64) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.firstAt(p)].node, true
}

// Candidates returns up to max distinct nodes in ring order starting at
// p's owner — the failover order health-aware routing walks when the
// owner is unavailable.
func (r *Ring) Candidates(p uint64, max int) []string {
	return r.AppendCandidates(nil, p, max)
}

// AppendCandidates is Candidates appending to dst, which must be empty: a
// caller on the packet path passes a stack buffer and allocates nothing.
// Duplicates are found by scanning dst, which holds at most one name per
// physical node.
func (r *Ring) AppendCandidates(dst []string, p uint64, max int) []string {
	if len(r.points) == 0 || max <= 0 {
		return dst
	}
	if max > len(r.nodes) {
		max = len(r.nodes)
	}
	start := r.firstAt(p)
walk:
	for i := 0; i < len(r.points) && len(dst) < max; i++ {
		j := start + i
		if j >= len(r.points) {
			j -= len(r.points)
		}
		n := r.points[j].node
		for _, seen := range dst {
			if seen == n {
				continue walk
			}
		}
		dst = append(dst, n)
	}
	return dst
}

// MovedArc is one contiguous hash segment whose owner differs between two
// rings: every flow whose PointOf falls in [Lo, Hi] (inclusive) moves
// From one node To another.
type MovedArc struct {
	Lo, Hi   uint64
	From, To string
}

// ArcsMoved diffs ownership between two rings and returns the segments
// that changed hands, ordered by Lo. Consistent hashing bounds the result:
// each segment is adjacent to a virtual point of the added or removed
// node, so a single-node membership change moves at most that node's
// replica count worth of arcs (possibly split by the other nodes' points)
// — never the whole keyspace. The router feeds these to the flow-table
// migration so only the affected flows travel.
func ArcsMoved(before, after *Ring) []MovedArc {
	if len(before.points) == 0 || len(after.points) == 0 {
		return nil
	}
	// Ownership is constant on the segments between consecutive boundary
	// hashes of the union of both rings: walk those segments, compare each
	// ring's owner of the segment, and merge adjacent segments that moved
	// the same way.
	bounds := make([]uint64, 0, len(before.points)+len(after.points))
	for _, p := range before.points {
		bounds = append(bounds, p.hash)
	}
	for _, p := range after.points {
		bounds = append(bounds, p.hash)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	uniq := bounds[:0]
	for _, b := range bounds {
		if len(uniq) == 0 || uniq[len(uniq)-1] != b {
			uniq = append(uniq, b)
		}
	}
	var moved []MovedArc
	emit := func(lo, hi uint64) {
		fromOwner, _ := before.Owner(hi)
		toOwner, _ := after.Owner(hi)
		if fromOwner == toOwner {
			return
		}
		if n := len(moved); n > 0 && moved[n-1].Hi+1 == lo &&
			moved[n-1].From == fromOwner && moved[n-1].To == toOwner {
			moved[n-1].Hi = hi
			return
		}
		moved = append(moved, MovedArc{Lo: lo, Hi: hi, From: fromOwner, To: toOwner})
	}
	// [0, uniq[0]] is owned by the owner of the first boundary; each
	// segment (uniq[i-1], uniq[i]] by the owner of its upper bound; and
	// the wrap segment (last, Max] again by the owner of the first
	// boundary (no points lie above last, so ownership wraps).
	emit(0, uniq[0])
	for i := 1; i < len(uniq); i++ {
		emit(uniq[i-1]+1, uniq[i])
	}
	if last := uniq[len(uniq)-1]; last != ^uint64(0) {
		fromOwner, _ := before.Owner(uniq[0])
		toOwner, _ := after.Owner(uniq[0])
		if fromOwner != toOwner {
			moved = append(moved, MovedArc{Lo: last + 1, Hi: ^uint64(0), From: fromOwner, To: toOwner})
		}
	}
	sort.Slice(moved, func(i, j int) bool { return moved[i].Lo < moved[j].Lo })
	return moved
}
