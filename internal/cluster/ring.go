// Package cluster is the placement layer of the serving fleet: a
// consistent-hash ring that maps every record name to an owner and an
// ordered set of replicas among the fleet's members, plus the membership
// document (Info) the /cluster endpoint serves and clients route by.
//
// The ring is shared verbatim by servers and clients — both sides build it
// from the same member list, and placement is a pure function of that list,
// so a server deciding "is this record mine to serve?" and a client
// deciding "who do I ask for this record?" always agree without any
// coordination traffic. Determinism is load-bearing: the member list may
// arrive in any order (flag order on one server, JSON order on a client)
// and the ring must come out identical, which New guarantees by sorting
// members before placing virtual nodes.
//
// Consistent hashing (vs. mod-N placement) keeps the fleet kill-tolerant
// and growable: removing or adding one member moves only ~1/N of the
// records, so a replica set computed before a membership change still
// mostly holds after it, and a client with a slightly stale ring finds the
// right member on all but a sliver of records (and is redirected by the
// server's 421 on the rest).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-member virtual-node count of every Ring.
// 128 points per member keeps the expected per-member load within a few
// percent of uniform for small fleets while the ring stays tiny (a few KB).
// It is a constant, not a setting: servers and clients build their rings
// independently, so any per-process choice would split placement.
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring over a member set. Build one
// with New; all methods are safe for concurrent use.
type Ring struct {
	members []string // sorted, deduplicated
	points  []point  // sorted by hash
}

// point is one virtual node: a position on the hash circle owned by a
// member (indexed into members to keep the ring compact).
type point struct {
	hash   uint64
	member int
}

// New builds a ring over the given members with DefaultVirtualNodes
// virtual nodes per member. The member list is sorted and deduplicated, so
// any permutation of the same set yields an identical ring. An empty member
// set is an error.
func New(members []string) (*Ring, error) {
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	sorted = dedup(sorted)
	if len(sorted) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	for _, m := range sorted {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member name")
		}
	}
	r := &Ring{
		members: sorted,
		points:  make([]point, 0, len(sorted)*DefaultVirtualNodes),
	}
	for mi, m := range sorted {
		for v := 0; v < DefaultVirtualNodes; v++ {
			r.points = append(r.points, point{hash: hash64(m + "#" + strconv.Itoa(v)), member: mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A hash collision between two members' virtual nodes is broken by
		// member order, keeping the sort — and therefore placement — total
		// and deterministic.
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// hash64 is the ring's point and key hash: FNV-1a 64 passed through a
// splitmix64 finalizer. FNV alone avalanches poorly on short, similar
// strings (member URLs differing in one port digit cluster badly); the
// finalizer fixes the spread. Both stages are stable across processes,
// architectures, and Go releases — unlike maphash — and cross-process
// placement agreement is the whole point.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64()
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Members returns the ring's member set in sorted order. The returned
// slice is shared; callers must not mutate it.
func (r *Ring) Members() []string { return r.members }

// Owner returns the member that owns the given key: the member of the
// first virtual node at or clockwise from the key's hash.
func (r *Ring) Owner(key string) string {
	return r.members[r.points[r.search(key)].member]
}

// Replicas returns the n distinct members responsible for the key, owner
// first, walking clockwise from the key's position. n is clamped to the
// member count. The owner is always element 0, so Replicas(key, 1)[0] ==
// Owner(key).
func (r *Ring) Replicas(key string, n int) []string {
	if n > len(r.members) {
		n = len(r.members)
	}
	if n <= 0 {
		n = 1
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	for i, start := 0, r.search(key); len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// search returns the index of the first point at or clockwise from the
// key's hash (wrapping past the top of the circle).
func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Info is the membership document a fleet server publishes at /cluster and
// a cluster-aware client routes by. It is deliberately tiny: the ring
// itself is never shipped — both sides rebuild it from Members, which
// Ring's determinism makes safe.
type Info struct {
	// Members are the base URLs of every fleet member (including the
	// publishing server), in sorted order.
	Members []string `json:"members"`
	// Replication is the fleet's replica count per record (owner
	// included); 1 means no replication.
	Replication int `json:"replication"`
	// Self is the publishing server's own member URL — which entry of
	// Members answered this request.
	Self string `json:"self"`
	// Epoch fingerprints (Members, Replication): two Infos with equal
	// Epochs describe the same placement, so a client can poll /cluster
	// with If-None-Match and rebuild its ring only when the epoch moves.
	Epoch string `json:"epoch"`
}

// Epoch fingerprints a membership: a stable hash of the sorted member list
// and the replication factor. Any permutation of the same member set
// yields the same epoch.
func Epoch(members []string, replication int) string {
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(replication))
	h.Write(buf[:])
	for _, m := range sorted {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(m)))
		h.Write(buf[:])
		h.Write([]byte(m))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
