package cachetier

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// mapStore is an in-memory Store for exercising Tiered without disk.
type mapStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapStore() *mapStore { return &mapStore{m: map[string][]byte{}} }

func (s *mapStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[key]
	return b, ok
}
func (s *mapStore) Put(key string, val []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = val
	return true
}
func (s *mapStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func persistAll(key string, v string) ([]byte, bool) { return []byte(v), true }

func TestTieredWriteBehindOnEviction(t *testing.T) {
	back := newMapStore()
	tr := NewTiered(NewSharded[string](2, 1, nil), back, persistAll)
	for i := 0; i < 5; i++ {
		tr.Add(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	// Capacity 2, 5 distinct adds: the three evicted entries must have
	// been written behind; the two residents must not be on disk yet.
	if back.Len() != 3 {
		t.Fatalf("store holds %d entries after evictions, want 3", back.Len())
	}
	if b, ok := back.Get("k0"); !ok || string(b) != "v0" {
		t.Fatalf("evicted entry not written behind: %q %v", b, ok)
	}
	if _, ok := back.Get("k4"); ok {
		t.Fatal("resident entry reached the store before eviction/flush")
	}
	// The evicted value is reachable through Persisted, not Get.
	if _, ok := tr.Get("k0"); ok {
		t.Fatal("evicted entry still in the memory tier")
	}
	b, ok := tr.Persisted("k0")
	if !ok || string(b) != "v0" {
		t.Fatalf("Persisted(k0) = %q,%v", b, ok)
	}
	st := tr.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("DiskHits = %d, want 1", st.DiskHits)
	}
}

func TestTieredFlushAndClose(t *testing.T) {
	back := newMapStore()
	tr := NewTiered(NewSharded[string](8, 2, nil), back, persistAll)
	tr.Add("a", "1")
	tr.Add("b", "2")
	if n := tr.Flush(); n != 2 {
		t.Fatalf("Flush wrote %d, want 2", n)
	}
	if back.Len() != 2 {
		t.Fatalf("store holds %d after flush, want 2", back.Len())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTieredEncodeGate(t *testing.T) {
	back := newMapStore()
	// Only values not marked volatile persist — the disk tier's own
	// admission (exact-only in the server) rides on the encode gate.
	tr := NewTiered(NewSharded[string](1, 1, nil), back,
		func(key string, v string) ([]byte, bool) {
			if strings.HasPrefix(v, "volatile") {
				return nil, false
			}
			return []byte(v), true
		})
	tr.Add("keep", "durable")
	tr.Add("drop", "volatile thing") // evicts "keep" (capacity 1)
	tr.Flush()                       // flushes "drop", which the gate refuses
	if back.Len() != 1 {
		t.Fatalf("store holds %d, want only the durable entry", back.Len())
	}
	if _, ok := back.Get("keep"); !ok {
		t.Fatal("durable entry missing from the store")
	}
}

func TestTieredMemoryOnly(t *testing.T) {
	tr := NewTiered(NewSharded[string](2, 1, nil), nil, nil)
	tr.Add("a", "1")
	if _, ok := tr.Persisted("a"); ok {
		t.Fatal("memory-only tier claims a persisted entry")
	}
	if n := tr.Flush(); n != 0 {
		t.Fatalf("memory-only Flush wrote %d", n)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.DiskStats(); ok {
		t.Fatal("memory-only tier reports disk stats")
	}
}

func TestTieredFlushServesBothTiers(t *testing.T) {
	back := newMapStore()
	tr := NewTiered(NewSharded[string](4, 1, nil), back, persistAll)
	tr.Add("k", "v")
	tr.Flush()
	if v, ok := tr.Get("k"); !ok || v != "v" {
		t.Fatalf("flushed entry left the memory tier: Get = %q, %v", v, ok)
	}
	if b, ok := tr.Persisted("k"); !ok || string(b) != "v" {
		t.Fatalf("flushed entry not persisted: Persisted = %q, %v", b, ok)
	}
}
