// Package ring is the consistent-hash ring the cluster coordinator routes
// by: canonical spec keys (service.RouteKey) map to workers such that every
// request for one scenario lands on the worker owning that scenario's store
// shard and fit cache, and adding or removing a worker remaps only the keys
// whose arcs that worker touches — the rest of the fleet keeps its
// (expensively warmed) caches.
//
// The hash is sha256 — deterministic across processes, architectures and
// restarts, like every other identity in this repo (store keys hash the
// same way). Each node projects a fixed number of virtual points onto the
// 64-bit ring; a key belongs to the first point clockwise from its hash,
// and the distinct-node successor order from there is the key's failover
// sequence.
package ring

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// pointsPerNode is the virtual-point count per node. 160 points keeps
// first-choice ownership within a few percent of uniform for small fleets
// (the statistical error of consistent hashing shrinks as 1/√points) while
// the whole ring for tens of nodes stays a few kilobytes.
const pointsPerNode = 160

// point is one virtual point: a position on the 64-bit ring owned by a node.
type point struct {
	hash uint64
	node int
}

// Ring is an immutable consistent-hash ring over a fixed node list. Build a
// new Ring to change membership; routing state that must react to failures
// (health, retries) lives in the caller, keyed by the stable node indices.
type Ring struct {
	nodes  []string
	points []point
}

// hash64 is the ring position of a byte string: the first 8 bytes of its
// sha256, big-endian.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// New builds a ring over the given nodes (typically worker addresses).
// Order matters only for the indices Seq and Shares report; the hash
// positions depend on the node strings alone, so two coordinators
// configured with the same workers route identically regardless of flag
// order... as long as they agree on the spelling of each address.
func New(nodes []string) *Ring {
	r := &Ring{
		nodes:  append([]string(nil), nodes...),
		points: make([]point, 0, len(nodes)*pointsPerNode),
	}
	for i, n := range r.nodes {
		for v := 0; v < pointsPerNode; v++ {
			r.points = append(r.points, point{hash: hash64(n + "#" + strconv.Itoa(v)), node: i})
		}
	}
	// Ties (astronomically unlikely with sha256, but cheap to make
	// deterministic) break by node index.
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r
}

// Node returns the node string at index i (the indices Seq yields).
func (r *Ring) Node(i int) string { return r.nodes[i] }

// Seq returns every node index in the key's failover order: the owner of
// the key's successor point first, then each further distinct node
// clockwise. Routing tries Seq[0] and walks down the sequence as nodes turn
// out unhealthy, so a dead worker's whole shard range reroutes to the nodes
// already adjacent on the ring — no re-hashing, no coordination.
func (r *Ring) Seq(key string) []int {
	if len(r.nodes) == 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]int, 0, len(r.nodes))
	seen := make([]bool, len(r.nodes))
	for i := 0; i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// Shares reports the fraction of the 64-bit key space each node owns
// first-choice, in node order. /readyz surfaces it so an operator can see
// shard balance at a glance.
func (r *Ring) Shares() []float64 {
	shares := make([]float64, len(r.nodes))
	if len(r.points) == 0 {
		return shares
	}
	// Point i owns the arc from the previous point (exclusive) to itself
	// (inclusive); the first point also owns the wrap-around arc from the
	// last point through zero.
	prev := r.points[len(r.points)-1].hash
	var total float64
	for _, p := range r.points {
		arc := float64(p.hash - prev) // uint64 arithmetic wraps exactly like the ring does
		shares[p.node] += arc
		total += arc
		prev = p.hash
	}
	if total == 0 {
		return shares
	}
	for i := range shares {
		shares[i] /= total
	}
	return shares
}
