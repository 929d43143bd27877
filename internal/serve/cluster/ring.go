package cluster

import (
	"fmt"
	"sort"
)

// fnv64a is the 64-bit FNV-1a hash with a murmur-style finalizer,
// inlined so placement never depends on stdlib internals changing. Raw
// FNV-1a avalanches poorly into the high bits on short sequential keys
// like "stream-7" — the ring orders points by the full 64-bit value, so
// without the finalizer whole shard neighborhoods end up empty.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ring is a consistent-hash ring: every shard contributes vnodes points
// and a key is owned by the first point at or after its hash (wrapping).
// Points sort by (hash, shard) so equal hashes — astronomically rare
// but possible — still order deterministically.
type ring struct {
	hashes []uint64
	shards []int
	n      int // member count
	ids    int // max member shard index + 1 (for walk's seen set)
}

func newRing(shards, vnodes int) *ring {
	members := make([]int, shards)
	for s := range members {
		members[s] = s
	}
	return newRingMembers(members, vnodes)
}

// newRingMembers builds the ring over an explicit member set — the live
// shards after kills, revivals and additions. Each member's points hash
// the same "shard-S-vnode-V" keys as the full ring, so removing a shard
// moves only the keys it owned (the consistent-hashing property online
// ring resizing relies on) and re-adding it restores the prior layout.
func newRingMembers(members []int, vnodes int) *ring {
	r := &ring{
		hashes: make([]uint64, 0, len(members)*vnodes),
		shards: make([]int, 0, len(members)*vnodes),
		n:      len(members),
	}
	type point struct {
		h     uint64
		shard int
	}
	pts := make([]point, 0, len(members)*vnodes)
	for _, s := range members {
		if s >= r.ids {
			r.ids = s + 1
		}
		for v := 0; v < vnodes; v++ {
			pts = append(pts, point{fnv64a(fmt.Sprintf("shard-%d-vnode-%d", s, v)), s})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].shard < pts[j].shard
	})
	for _, p := range pts {
		r.hashes = append(r.hashes, p.h)
		r.shards = append(r.shards, p.shard)
	}
	return r
}

// start returns the ring index owning the key's hash.
func (r *ring) start(key string) int {
	h := fnv64a(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return i
}

// owner returns the shard owning the key.
func (r *ring) owner(key string) int {
	return r.shards[r.start(key)]
}

// walk returns the distinct shards in ring order starting from the
// key's owner: the preference order for load-aware placement overflow.
func (r *ring) walk(key string) []int {
	order := make([]int, 0, r.n)
	seen := make([]bool, r.ids)
	for i, k := r.start(key), 0; k < len(r.hashes) && len(order) < r.n; k++ {
		s := r.shards[(i+k)%len(r.hashes)]
		if !seen[s] {
			seen[s] = true
			order = append(order, s)
		}
	}
	return order
}

// streamKey is the ring key of a stream; the books and tests key
// placement on the same string.
func streamKey(stream int) string { return fmt.Sprintf("stream-%d", stream) }

// loadCap is the per-shard stream cap of a load-capped placement over
// this ring's members: ceil(streams/members) scaled by factor, at
// least 1.
func (r *ring) loadCap(streams int, factor float64) int {
	capPer := (streams + r.n - 1) / r.n
	capPer = int(float64(capPer) * factor)
	if capPer < 1 {
		capPer = 1
	}
	return capPer
}

// capped picks the shard a stream lands on: its hash home unless the
// home already holds capPer streams, in which case the ring walk finds
// the next shard under the cap (the home again when none is). counts
// is indexed by shard and books the placement.
func (r *ring) capped(stream, home, capPer int, counts []int) int {
	tgt := home
	if counts[tgt] >= capPer {
		for _, s := range r.walk(streamKey(stream)) {
			if counts[s] < capPer {
				tgt = s
				break
			}
		}
	}
	counts[tgt]++
	return tgt
}

// place assigns every stream an initial shard through the load-capped
// walk. Homes and owners are returned separately because off-home
// placement pays the hop latency.
func place(r *ring, streams int, factor float64) (home, owner []int) {
	home = make([]int, streams)
	owner = make([]int, streams)
	capPer := r.loadCap(streams, factor)
	counts := make([]int, r.n)
	for i := range home {
		home[i] = r.owner(streamKey(i))
		owner[i] = r.capped(i, home[i], capPer, counts)
	}
	return home, owner
}
