package cachetier

import (
	"io"
	"sync/atomic"

	"accltl/accesscheck/cache"
)

// Tiered fronts a memory tier with an optional persistent
// Store behind it. The coupling is write-behind: values the memory
// tier evicts under capacity pressure — and the residents at graceful
// shutdown, via Flush — are encoded and appended to the store, so a
// restarted process finds everything a warm one ever held.
//
// Reads are deliberately asymmetric: Get consults only memory, and
// Persisted consults only the store, returning raw bytes. Disk hits
// are not promoted back into the memory tier — the server's values are
// encoded one way (result → wire response) and a disk hit is already a
// cheap terminal answer; promotion would need a decoder back to V and
// would double-store what the log can serve directly.
type Tiered[V any] struct {
	mem    *Sharded[V]
	back   Store
	encode func(key string, v V) ([]byte, bool)

	diskHits, diskMisses, flushed atomic.Uint64
}

// NewTiered wires mem to back via encode: encode turns a resident
// value into its persistent form, or reports false for values that
// must not persist (the disk tier's own admission — e.g. only exact
// check results are wire round-trippable). A nil back or encode means
// memory-only: Persisted always misses and Flush is a no-op.
func NewTiered[V any](mem *Sharded[V], back Store, encode func(key string, v V) ([]byte, bool)) *Tiered[V] {
	t := &Tiered[V]{mem: mem, back: back, encode: encode}
	if back != nil && encode != nil {
		mem.OnEvict(func(key string, v V) {
			if b, ok := encode(key, v); ok {
				back.Put(key, b)
			}
		})
	}
	return t
}

// Get serves the memory tier.
func (t *Tiered[V]) Get(key string) (V, bool) { return t.mem.Get(key) }

// Add admits into the memory tier; the value reaches the store only
// when evicted or flushed.
func (t *Tiered[V]) Add(key string, val V) bool { return t.mem.Add(key, val) }

// Persisted serves the persistent tier: the encoded bytes written
// behind for key, if any. Callers decode; see the asymmetry note on
// Tiered.
func (t *Tiered[V]) Persisted(key string) ([]byte, bool) {
	if t.back == nil {
		return nil, false
	}
	b, ok := t.back.Get(key)
	if ok {
		t.diskHits.Add(1)
	} else {
		t.diskMisses.Add(1)
	}
	return b, ok
}

// Flush writes every resident, persistable entry through to the store
// (graceful-shutdown write-behind) and reports how many it wrote.
func (t *Tiered[V]) Flush() int {
	if t.back == nil || t.encode == nil {
		return 0
	}
	n := 0
	t.mem.Each(func(key string, v V) {
		if b, ok := t.encode(key, v); ok && t.back.Put(key, b) {
			n++
		}
	})
	t.flushed.Add(uint64(n))
	return n
}

// Close flushes and, when the store is closeable (DiskTier is), closes
// it. Safe to call on a memory-only Tiered.
func (t *Tiered[V]) Close() error {
	t.Flush()
	if c, ok := t.back.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// MemStats snapshots the memory tier's aggregated counters.
func (t *Tiered[V]) MemStats() cache.Stats { return t.mem.Stats() }

// TierStats is the Tiered-level view: disk probe outcomes and flushes.
type TierStats struct {
	DiskHits, DiskMisses uint64
	Flushed              uint64
}

// Stats snapshots the tier-coupling counters.
func (t *Tiered[V]) Stats() TierStats {
	return TierStats{
		DiskHits:   t.diskHits.Load(),
		DiskMisses: t.diskMisses.Load(),
		Flushed:    t.flushed.Load(),
	}
}

// DiskStats snapshots the persistent tier, when it is a DiskTier;
// ok reports whether there is one.
func (t *Tiered[V]) DiskStats() (DiskStats, bool) {
	dt, ok := t.back.(*DiskTier)
	if !ok {
		return DiskStats{}, false
	}
	return dt.Stats(), true
}
