package cachetier

import (
	"fmt"
	"testing"

	"accltl/accesscheck/cache"
)

// shardKeys deterministically buckets generated keys by the shard each
// would land in, returning per-shard key lists of the wanted length.
func shardKeys(t *testing.T, shards, perShard int) [][]string {
	t.Helper()
	out := make([][]string, shards)
	for i := 0; len(out[0]) < perShard || shorter(out, perShard); i++ {
		if i > 1000000 {
			t.Fatal("could not bucket enough keys")
		}
		k := fmt.Sprintf("fp-%d", i)
		s := int(Hash64(k) & uint64(shards-1))
		if len(out[s]) < perShard {
			out[s] = append(out[s], k)
		}
	}
	return out
}

func shorter(b [][]string, want int) bool {
	for _, l := range b {
		if len(l) < want {
			return true
		}
	}
	return false
}

// TestShardedEvictionSumMatchesSingleLock drives a sharded LRU and a
// single-lock LRU of the same total capacity with a key set spread
// evenly across shards: the sharded tier's summed eviction counter must
// equal the single-lock cache's, and total occupancy must match.
func TestShardedEvictionSumMatchesSingleLock(t *testing.T) {
	const (
		shards   = 4
		perShard = 3 // capacity per shard; one extra key each forces exactly one eviction
	)
	capacity := shards * perShard
	buckets := shardKeys(t, shards, perShard+1)

	sh := NewSharded[int](capacity, shards, nil)
	single := cache.New[int](capacity, nil)
	adds := 0
	for _, keys := range buckets {
		for _, k := range keys {
			sh.Add(k, 1)
			single.Add(k, 1)
			adds++
		}
	}
	ss, gs := sh.Stats(), single.Stats()
	if ss.Evictions != gs.Evictions {
		t.Fatalf("sharded evictions %d != single-lock evictions %d", ss.Evictions, gs.Evictions)
	}
	if want := uint64(adds - capacity); ss.Evictions != want {
		t.Fatalf("evictions = %d, want %d", ss.Evictions, want)
	}
	if ss.Size != gs.Size || ss.Size != capacity {
		t.Fatalf("occupancy: sharded %d, single %d, want %d", ss.Size, gs.Size, capacity)
	}
	if ss.Capacity != capacity {
		t.Fatalf("summed capacity %d, want %d", ss.Capacity, capacity)
	}
}

// TestShardedPerShardLRUSemantics pins recency within one shard: a Get
// refreshes an entry so the next eviction in that shard displaces the
// colder one.
func TestShardedPerShardLRUSemantics(t *testing.T) {
	buckets := shardKeys(t, 2, 3)
	keys := buckets[0] // three keys that all land in shard 0 (capacity 2)
	s := NewSharded[string](4, 2, nil)
	s.Add(keys[0], "a")
	s.Add(keys[1], "b")
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("warm entry missing")
	}
	s.Add(keys[2], "c") // shard 0 over capacity: keys[1] is now coldest
	if _, ok := s.Get(keys[1]); ok {
		t.Fatal("coldest entry survived eviction")
	}
	for _, k := range []string{keys[0], keys[2]} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("entry %q wrongly evicted", k)
		}
	}
}

func TestShardedAdmission(t *testing.T) {
	s := NewSharded[int](8, 4, func(v int) bool { return v >= 0 })
	if s.Add("k", -1) {
		t.Fatal("admission rule ignored")
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
	if !s.Add("k", 7) {
		t.Fatal("admissible value refused")
	}
}

func TestShardedEachAndOnEvict(t *testing.T) {
	s := NewSharded[int](4, 4, nil)
	evicted := map[string]int{}
	s.OnEvict(func(k string, v int) { evicted[k] = v })
	for i := 0; i < 12; i++ {
		s.Add(fmt.Sprintf("k%d", i), i)
	}
	seen := map[string]int{}
	s.Each(func(k string, v int) { seen[k] = v })
	size := s.Stats().Size
	if len(seen) != size {
		t.Fatalf("Each visited %d entries, Stats says %d", len(seen), size)
	}
	if want := 12 - size; len(evicted) != want {
		t.Fatalf("OnEvict observed %d evictions, want %d", len(evicted), want)
	}
	for k := range evicted {
		if _, resident := seen[k]; resident {
			t.Fatalf("key %q both evicted and resident", k)
		}
	}
}

// TestShardedTinyCapacityClampsShards: a cache smaller than its shard
// count must not silently grow by per-shard ceil-division — a 1-entry
// cache split 8 ways would hold 8 entries and never evict.
func TestShardedTinyCapacityClampsShards(t *testing.T) {
	for _, tc := range []struct {
		capacity, shards, wantShards, wantCap int
	}{
		{1, 8, 1, 1},
		{2, 8, 2, 2},
		{3, 8, 2, 4}, // odd capacity still rounds per-shard up
		{8, 8, 8, 8},
		{16, 4, 4, 16},
	} {
		s := NewSharded[int](tc.capacity, tc.shards, nil)
		if len(s.shards) != tc.wantShards {
			t.Errorf("NewSharded(%d, %d): %d shards, want %d", tc.capacity, tc.shards, len(s.shards), tc.wantShards)
		}
		if got := s.Stats().Capacity; got != tc.wantCap {
			t.Errorf("NewSharded(%d, %d): capacity %d, want %d", tc.capacity, tc.shards, got, tc.wantCap)
		}
	}
}
