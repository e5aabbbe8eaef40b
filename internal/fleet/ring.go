package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// ring is a deterministic consistent-hash ring over worker names.
//
// Determinism argument (the property the fleet's cache affinity rests
// on): the ring is a pure function of the member set and the replica
// count. Members are sorted before point generation, every point's
// position is fnv64a(member + "#" + replica) — no randomness, no time,
// no map-iteration order — and the point list is sorted with a total
// order (hash, then member index) so even a 64-bit hash collision
// breaks ties identically on every coordinator. Lookups walk the sorted
// point list from fnv64a(key), so for a fixed member set every
// coordinator, on every restart, maps every key to the same worker —
// which is what lets N coordinators share one fleet-wide result cache
// without coordinating with each other.
//
// Removing a worker only reassigns the keys that worker owned (its
// points vanish; all other points keep their positions), and adding it
// back restores exactly the old assignment — a recovered worker
// reclaims its cached keys instead of shuffling the whole fleet.
type ring struct {
	members []string // sorted worker names
	points  []ringPoint
}

// ringPoint is one virtual node: a position on the ring owned by a
// member.
type ringPoint struct {
	hash   uint64
	member int // index into members
}

// ringReplicas is the virtual-node count per worker: enough that
// three workers split keys within a few percent of evenly, cheap enough
// that ring construction is microseconds.
const ringReplicas = 64

// newRing builds the ring for the given member names.
func newRing(members []string) *ring {
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	r := &ring{members: sorted}
	for i, m := range sorted {
		for v := 0; v < ringReplicas; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(m + "#" + strconv.Itoa(v)), member: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].member < r.points[b].member
	})
	return r
}

// hash64 is the ring's position hash (FNV-64a: stable across processes
// and Go versions, unlike maphash).
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// sequence returns up to n distinct members in ring order starting at
// the key's position: the first entry is the key's home worker, the
// rest are its deterministic failover order.
func (r *ring) sequence(key string, n int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.members) {
		n = len(r.members)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// owner returns the key's home worker.
func (r *ring) owner(key string) string {
	seq := r.sequence(key, 1)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}
