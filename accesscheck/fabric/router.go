package fabric

import (
	"fmt"
	"sort"

	"accltl/accesscheck/cachetier"
)

// ringReplicas is the virtual-node count per worker on the hash ring.
// Enough that key ranges spread evenly across a handful of workers;
// removing one worker remaps only its own arcs.
const ringReplicas = 64

// Router assigns routing keys to workers by consistent hashing: each
// worker owns ringReplicas pseudo-random points on a 64-bit ring, and a
// key routes to the owner of the first point at or after its hash. The
// assignment depends only on the key and the worker set, not on request
// order or worker list order, so the same shard of the same check lands on
// the same worker across requests — which is what makes the workers'
// shard-keyed result caches (Fingerprint includes the shard subset) hit.
type Router struct {
	ring []ringEntry
}

type ringEntry struct {
	hash   uint64
	worker string
}

// NewRouter builds a ring over the given workers. An empty worker set is
// allowed and routes nothing (the coordinator handles it as "no healthy
// workers").
func NewRouter(workers []string) *Router {
	r := &Router{ring: make([]ringEntry, 0, len(workers)*ringReplicas)}
	for _, w := range workers {
		for i := 0; i < ringReplicas; i++ {
			r.ring = append(r.ring, ringEntry{hash: hash64(fmt.Sprintf("%s#%d", w, i)), worker: w})
		}
	}
	sort.Slice(r.ring, func(i, j int) bool {
		if r.ring[i].hash != r.ring[j].hash {
			return r.ring[i].hash < r.ring[j].hash
		}
		return r.ring[i].worker < r.ring[j].worker
	})
	return r
}

// Route returns the worker owning the key, or false for an empty ring.
func (r *Router) Route(key string) (string, bool) {
	seq := r.Sequence(key, 1)
	if len(seq) == 0 {
		return "", false
	}
	return seq[0], true
}

// Sequence returns up to n distinct workers in ring order starting at the
// key's owner: the preference order for dispatch — primary first, then the
// hedge/failover candidates. n larger than the worker set returns every
// worker once.
func (r *Router) Sequence(key string, n int) []string {
	if len(r.ring) == 0 || n <= 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; i < len(r.ring) && len(out) < n; i++ {
		e := r.ring[(start+i)%len(r.ring)]
		if seen[e.worker] {
			continue
		}
		seen[e.worker] = true
		out = append(out, e.worker)
	}
	return out
}

// RouteKey builds the affinity routing key for one slice of one check: the
// check's shard-less fingerprint joined to the slice's canonical shard
// key. Keyed this way, the same slice of the same check always routes to
// the same worker, while different slices of one check spread across the
// ring.
func RouteKey(checkFingerprint, shardKey string) string {
	return checkFingerprint + "\x1e" + shardKey
}

// hash64 is cachetier.Hash64 (FNV-1a + avalanche finalizer). A worker's
// result cache is one LRU, so nothing on the worker has to agree with the
// ring; changing the hash only moves keys between workers. The avalanche
// matters because FNV of near-identical strings (one worker's "#0".."#63" vnode
// labels) differs only in the low bits, which would cluster each worker's
// vnodes into one arc and defeat the ring.
func hash64(s string) uint64 { return cachetier.Hash64(s) }
