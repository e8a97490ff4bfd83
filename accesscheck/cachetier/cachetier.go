// Package cachetier is the result store under the check server: an
// exact-only LRU in memory whose evictions are written behind to an
// append-only log on disk, so a warm process answers cheaply and a
// restarted one keeps what its predecessor settled.
//
// The tiers, in probe order — memory, disk:
//
//   - The memory tier (Sharded) is cache.LRU. The server builds it with
//     one shard, so a full tier holds exactly its last CacheSize admitted
//     entries; more shards split the capacity by Hash64 of the key.
//   - The disk tier (DiskTier) is an append-only CRC-checked segment log
//     with an in-memory index, written behind from the memory tier on
//     eviction and at graceful shutdown, recovered by a boot scan, and
//     versioned by the fingerprint scheme so stale formats are discarded
//     loudly rather than served under wrong keys. Records are only ever
//     added: a key's last record is its value.
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
}

// Hash64 is the key hash of the fabric and of a sharded memory tier:
// FNV-64a over the bytes, finished with a murmur-style avalanche so
// near-identical keys (URLs, fingerprints with a shared prefix) spread
// across the whole 64-bit space instead of clustering. The fabric
// router's consistent ring routes with it, and so does a memory tier of
// more than one shard — changing this function reshuffles every key on
// the ring, so don't.
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
