// Package registry is the fleet-membership layer for multi-frontend
// scale-out: workers dial into a frontend's Fleet and register (name,
// data-plane address, analysis-derived capacity), renew their
// membership lease with heartbeats, and deregister once drained. Placement goes through a consistent-hash Ring so any frontend
// that sees the same member set computes the same worker for a given
// session key — no coordination between frontends required.
package registry

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring with virtual nodes. The point set is
// a pure function of the member names (FNV-1a over name#vnode), so two
// frontends that agree on membership agree on every lookup, regardless
// of join order. Ring is not synchronized; callers serialize access.
type Ring struct {
	vnodes  int
	members map[string]struct{}
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member string
}

// DefaultVNodes is the virtual-node count per member. 128 keeps the
// max/mean load ratio under ~1.2 for small fleets while a full rebuild
// of a 100-member ring stays well under a millisecond.
const DefaultVNodes = 128

// NewRing returns an empty ring. vnodes <= 0 selects DefaultVNodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]struct{})}
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	// FNV-1a avalanches poorly on short keys with sequential suffixes
	// (exactly what name#vnode is), which skews arc ownership badly;
	// a splitmix64 finalizer restores uniformity.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a member. Adding an existing member is a no-op.
func (r *Ring) Add(member string) {
	if _, ok := r.members[member]; ok {
		return
	}
	r.members[member] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash:   ringHash(member + "#" + strconv.Itoa(i)),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member and its virtual nodes. Removing an unknown
// member is a no-op.
func (r *Ring) Remove(member string) {
	if _, ok := r.members[member]; !ok {
		return
	}
	delete(r.members, member)
	keep := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			keep = append(keep, p)
		}
	}
	r.points = keep
}

// Len reports the member count.
func (r *Ring) Len() int { return len(r.members) }

// Members returns the member names in sorted order.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Lookup maps a key to its owning member: the first virtual node at or
// clockwise of the key's hash. Empty ring returns "".
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(ringHash(key))].member
}

// LookupN walks the ring clockwise from the key's position and returns
// up to n distinct members in preference order. The first entry equals
// Lookup(key); later entries are the deterministic failover order every
// frontend agrees on.
func (r *Ring) LookupN(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	start := r.search(ringHash(key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		m := r.points[(start+i)%len(r.points)].member
		if _, dup := seen[m]; dup {
			continue
		}
		seen[m] = struct{}{}
		out = append(out, m)
	}
	return out
}

// search returns the index of the first point with hash >= h, wrapping
// to 0 past the end.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
