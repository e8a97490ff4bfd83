package cachetier

import "accltl/accesscheck/cache"

// Sharded is the in-memory tier: the exact-only result LRU, split into
// N cache.LRU shards routed by Hash64 of the key. Within a shard, LRU
// semantics are exactly cache.LRU's, and the eviction callback runs
// outside the shard's lock. With one shard, as the server builds it, the
// tier is one LRU that holds exactly its last capacity admitted entries.
// With more, capacity is divided evenly (shards rounded up to a power of
// two for mask routing), so a full tier forgets a recent key whenever
// recent keys crowd its shard.
type Sharded[V any] struct {
	shards []*cache.LRU[V]
}

// NewSharded builds a sharded LRU of total capacity entries over
// shardCount shards (rounded up to a power of two, min 1), admitting
// values per admit exactly as cache.New does. The shard count is capped
// at the capacity: a tiny cache must not silently grow by ceil-division
// (a 1-entry cache split 8 ways would hold 8 and never evict).
func NewSharded[V any](capacity, shardCount int, admit func(V) bool) *Sharded[V] {
	if shardCount < 1 {
		shardCount = 1
	}
	n := 1
	for n < shardCount {
		n <<= 1
	}
	for n > 1 && n > capacity {
		n >>= 1
	}
	per := (capacity + n - 1) / n
	s := &Sharded[V]{shards: make([]*cache.LRU[V], n)}
	for i := range s.shards {
		s.shards[i] = cache.New(per, admit)
	}
	return s
}

func (s *Sharded[V]) shard(key string) *cache.LRU[V] {
	return s.shards[Hash64(key)&uint64(len(s.shards)-1)]
}

// Get returns the cached value for key, refreshing its recency within
// its shard.
func (s *Sharded[V]) Get(key string) (V, bool) { return s.shard(key).Get(key) }

// Add inserts key → val into its shard, subject to the admission rule.
func (s *Sharded[V]) Add(key string, val V) bool { return s.shard(key).Add(key, val) }

// OnEvict installs fn as the capacity-eviction observer on every
// shard; the disk tier's write-behind hangs off it.
func (s *Sharded[V]) OnEvict(fn func(key string, val V)) {
	for _, sh := range s.shards {
		sh.OnEvict(fn)
	}
}

// Each visits every resident entry across all shards (snapshot per
// shard; fn runs outside the shard locks).
func (s *Sharded[V]) Each(fn func(key string, val V)) {
	for _, sh := range s.shards {
		sh.Each(fn)
	}
}

// Stats sums the per-shard counters: with evenly-spread keys the
// totals match a single LRU of the same aggregate capacity, which the
// tests pin.
func (s *Sharded[V]) Stats() cache.Stats {
	var t cache.Stats
	for _, sh := range s.shards {
		st := sh.Stats()
		t.Size += st.Size
		t.Capacity += st.Capacity
		t.Hits += st.Hits
		t.Misses += st.Misses
		t.Rejected += st.Rejected
		t.Evictions += st.Evictions
	}
	return t
}
