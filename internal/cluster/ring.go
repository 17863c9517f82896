package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per ring member when a
// Ring is built with vnodes <= 0. More virtual nodes smooth the key
// distribution across members at the cost of a larger point table;
// 64 keeps the per-member load within a few percent of even for small
// fleets while the table stays tiny.
const DefaultVNodes = 64

// ringPoint is one virtual node: a position on the hash circle owned
// by a member.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring over named members (worker IDs).
// Each member owns a fixed set of virtual-node positions derived only
// from its name, so adding or removing one member moves only the keys
// that fall in that member's arcs — every other key keeps its owner,
// which is what keeps the per-worker result and plan caches hot across
// membership churn. Ring is not safe for concurrent use; the
// Coordinator guards it with its own mutex.
type Ring struct {
	vnodes  int
	members map[string]bool
	points  []ringPoint // sorted by hash
}

// NewRing returns an empty ring with the given virtual-node count per
// member (DefaultVNodes when vnodes <= 0).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// pointHash positions one virtual node of a member on the circle: the
// member name is FNV-hashed once, then each virtual node is spread by
// a splitmix64 finalizer. Plain FNV over short "name#i" strings
// clusters badly (adjacent suffixes land on adjacent points, skewing
// per-member load 3x and worse); the avalanche step restores a near-
// uniform spread.
func pointHash(member string, vnode int) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, member)
	return mix64(h.Sum64() + uint64(vnode)*0x9E3779B97F4A7C15)
}

// Add inserts a member's virtual nodes; adding a present member is a
// no-op.
func (r *Ring) Add(member string) {
	if r.members[member] {
		return
	}
	r.members[member] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: pointHash(member, i), member: member})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member and its virtual nodes; removing an absent
// member is a no-op.
func (r *Ring) Remove(member string) {
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Owner returns the member owning key — the one whose virtual node is
// first at or clockwise of the key's position. ok is false on an
// empty ring.
func (r *Ring) Owner(key uint64) (member string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0 // wrap around the circle
	}
	return r.points[i].member, true
}

// Successors returns up to n distinct members in ring order starting
// from the key's owner. The coordinator dispatches to the first entry
// and spills to the next on queue-full, so the spill target for a key
// is as stable as its owner.
func (r *Ring) Successors(key uint64, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	return out
}
