// Package cachetier is the tiered cache subsystem under the check
// server: coordinated layers that let a warm process answer cheaply,
// survive restarts, and scale past a single lock.
//
// The tiers, in probe order — memory shards, disk:
//
//   - The memory tier (Sharded) splits the result LRU into N shards by
//     the same FNV+avalanche hash (Hash64) the fabric router rings
//     with, so cache residency aligns with coordinator routing and
//     shards contend on per-shard locks instead of one global mutex.
//   - The disk tier (DiskTier) is an append-only CRC-checked segment
//     log with an in-memory index, written behind from the memory tier
//     on eviction and at graceful shutdown, recovered by a boot scan,
//     and versioned by the fingerprint scheme so stale formats are
//     discarded loudly rather than served under wrong keys.
//
// Tiered composes the memory and disk layers behind one front;
// Admissible is the single exact-only admission rule every result
// store shares.
package cachetier

// Store is the byte-level persistence seam between cache tiers: the
// in-memory stores sit in front of anything that can hold key → bytes
// durably. DiskTier is the one implementation; tests substitute maps.
// Implementations must be safe for concurrent use.
type Store interface {
	// Get returns the stored value for key, if any.
	Get(key string) ([]byte, bool)
	// Put stores val under key, replacing any previous value. It
	// reports whether the store accepted the write (a full or failed
	// backing medium may refuse; callers treat refusal as a cache
	// miss, never an error).
	Put(key string, val []byte) bool
	// Delete removes key. It reports whether an entry was removed.
	Delete(key string) bool
	// Len is the number of live entries.
	Len() int
}

// Hash64 is the shared key-hash fabric of every tier: FNV-64a over the
// bytes, finished with a murmur-style avalanche so near-identical keys
// (URLs, fingerprints with a shared prefix) spread across the whole
// 64-bit space instead of clustering. The fabric router's consistent
// ring and the sharded memory tier both route with it, which is what
// aligns cache residency with coordinator routing — changing this
// function reshuffles both, so don't.
func Hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
