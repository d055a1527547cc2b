package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// DefaultReplicas is the number of virtual points each node contributes to
// a Cluster's ring, and to a Ring when the caller does not choose one. More
// replicas smooth the key distribution (and the re-distribution when a node
// leaves) at the cost of a larger sorted point slice; 64 keeps per-node load
// within a few percent of uniform for small clusters.
const DefaultReplicas = 64

// ringPoint is one virtual node position on the hash circle.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring: each node contributes
// `replicas` virtual points on a 64-bit hash circle, and a key is owned by
// the node of the first point at or clockwise-after the key's hash.
// Immutability is the concurrency story — membership changes build a new
// Ring (cheap at cluster sizes measured in nodes, not thousands), so
// lookups never take a lock.
type Ring struct {
	points []ringPoint
	nodes  []string
}

// NewRing builds a ring over the given nodes with `replicas` virtual
// points per node (values < 1 take DefaultReplicas). Duplicate node names
// are collapsed; the node order does not affect ownership.
func NewRing(nodes []string, replicas int) *Ring {
	if replicas < 1 {
		replicas = DefaultReplicas
	}
	seen := map[string]bool{}
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash: hashString(n + "#" + strconv.Itoa(i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions across nodes are vanishingly rare but must not
		// make ownership depend on insertion order.
		return r.points[i].node < r.points[j].node
	})
	sort.Strings(r.nodes)
	return r
}

// hashString maps a string to its position on the hash circle. SHA-256
// (truncated to 64 bits) rather than a fast non-cryptographic hash: stage
// keys are already hex digests and node names are operator-chosen, so the
// well-mixed distribution matters more than lookup nanoseconds.
func hashString(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owners returns up to n distinct nodes owning the key, in ring order —
// the replica set a key's artifacts live on. The first is the primary, the
// node of the first virtual point at or clockwise-after the key's hash,
// wrapping at the top of the circle; the rest are the successor nodes
// clockwise from it. A ring with fewer than n nodes returns them all; an
// empty ring, none.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n < 1 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hashString(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for j := 0; j < len(r.points) && len(out) < n; j++ {
		p := r.points[(i+j)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// Nodes returns the ring's distinct member names, sorted.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// Len returns the number of distinct nodes on the ring.
func (r *Ring) Len() int { return len(r.nodes) }
