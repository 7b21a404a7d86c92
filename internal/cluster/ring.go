// Package cluster is the distributed sweep tier: a deterministic
// consistent-hash ring placing cache keys on worker shards, and a
// coordinator that fronts the shards with the same HTTP surface a single
// refocus-serve exposes. Placement is by serve.RouteKey — the canonical
// (config, faults) design point, the prefix of every cache key a request
// touches — so every spelling of a design point, whatever networks it
// evaluates, lands on the shard already holding its results, and repeats
// across a whole sweep campaign are cluster-wide cache hits. Failure
// handling composes the serveclient primitives: per-shard circuit
// breakers make a dead shard fail fast, hedged requests cut tail
// latency, and a failed point retries on the ring's next-healthy
// successor, so killing a shard mid-sweep loses nothing.
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the per-shard virtual-node count. 128 keeps the
// placement spread within a few percent of even for small clusters while
// the ring stays tiny (3 shards × 128 = 384 points).
const DefaultVNodes = 128

// ringEntry is one virtual node: a hash position owned by a shard.
type ringEntry struct {
	hash  uint64
	shard int
}

// Ring is a seeded consistent-hash ring over named shards. Construction
// is deterministic: the same (shards, vnodes, seed) triple builds the
// same ring in every process, so a coordinator fleet agrees on placement
// with no coordination traffic. Adding or removing a shard only remaps
// the keys that shard owned (~1/N of the space) — the property the
// rebalance tests pin down. The zero seed is fine; distinct seeds give
// statistically independent placements, letting tests (and blue/green
// topologies) decorrelate rings over the same shard set.
type Ring struct {
	shards  []string
	vnodes  int
	seed    uint64
	entries []ringEntry // sorted by hash
}

// NewRing builds the ring. Shard names must be non-empty and unique;
// vnodes < 1 gets DefaultVNodes.
func NewRing(shards []string, vnodes int, seed uint64) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard")
	}
	if vnodes < 1 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if s == "" {
			return nil, fmt.Errorf("cluster: ring shard name is empty")
		}
		if seen[s] {
			return nil, fmt.Errorf("cluster: duplicate ring shard %q", s)
		}
		seen[s] = true
	}
	r := &Ring{
		shards:  append([]string(nil), shards...),
		vnodes:  vnodes,
		seed:    seed,
		entries: make([]ringEntry, 0, len(shards)*vnodes),
	}
	for i, s := range r.shards {
		for v := 0; v < vnodes; v++ {
			r.entries = append(r.entries, ringEntry{
				hash:  r.hash(fmt.Sprintf("%s#%d", s, v)),
				shard: i,
			})
		}
	}
	sort.Slice(r.entries, func(a, b int) bool {
		if r.entries[a].hash != r.entries[b].hash {
			return r.entries[a].hash < r.entries[b].hash
		}
		// Hash ties (vanishingly rare) break by shard index so the sorted
		// order — and therefore placement — never depends on sort internals.
		return r.entries[a].shard < r.entries[b].shard
	})
	return r, nil
}

// hash is FNV-1a 64 with the ring seed folded into the offset basis (via
// a golden-ratio multiply so seed 0 and 1 diverge everywhere, not in one
// low bit), finished with a murmur3-style mixer. The finalizer matters:
// ring position is the full 64-bit value, and raw FNV-1a has weak
// avalanche into the high bits on short near-identical inputs (shard
// vnode labels differ only in a trailing counter), which clusters
// virtual nodes and skews placement badly.
func (r *Ring) hash(s string) uint64 {
	h := uint64(14695981039346656037) ^ (r.seed * 0x9E3779B97F4A7C15)
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

// Shards returns the shard names in construction order.
func (r *Ring) Shards() []string { return append([]string(nil), r.shards...) }

// find returns the index of the first ring entry at or after key's hash,
// wrapping past the top.
func (r *Ring) find(key string) int {
	h := r.hash(key)
	i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].hash >= h })
	if i == len(r.entries) {
		return 0
	}
	return i
}

// Route returns the shard owning key: the first virtual node clockwise
// from the key's hash.
func (r *Ring) Route(key string) string {
	return r.shards[r.entries[r.find(key)].shard]
}

// Successors returns up to n distinct shards in ring order starting at
// key's owner — the owner first, then the failover candidates a
// coordinator walks when the owner is dead or slow. n > the shard count
// is clamped.
func (r *Ring) Successors(key string, n int) []string {
	if n > len(r.shards) {
		n = len(r.shards)
	}
	if n < 1 {
		n = 1
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i, start := 0, r.find(key); len(out) < n && i < len(r.entries); i++ {
		e := r.entries[(start+i)%len(r.entries)]
		if !seen[e.shard] {
			seen[e.shard] = true
			out = append(out, r.shards[e.shard])
		}
	}
	return out
}
