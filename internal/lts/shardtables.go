package lts

// The concurrent tables of the product search (product.go): the striped
// dominance memo and the lowest-shard witness box. The walkers of one search
// share them, and a memo outlives the search when its search is run again.

import "sync"

// Stripes is the number of lock stripes a table shared by the given number
// of concurrent walkers uses: one for a single walker, whose lock is then
// never contended and whose entries share one map, and 64 otherwise, so
// that walkers rarely meet on a stripe. Always a power of two. A table
// outlives its searches when a prepared search runs again (a checkpoint's
// next round, maybe with more walkers), so each search widens it to its own
// walker count before the walkers start (see DominanceMemo.Widen).
func Stripes(walkers int) int {
	if walkers <= 1 {
		return 1
	}
	return 64
}

// DominanceMemo is a concurrent map from search states to the largest
// remaining depth budget a walker has committed to exploring them with,
// striped by a caller-supplied hash (a product search's memo stripes on the
// configuration's incremental instance.Hash, see NewProductMemo).
//
// Sharing the memo across walkers is sound because an entry means "a
// search from this state with at least this much budget was committed to",
// and verdicts are only produced by searches that ran to completion —
// errors and context expiries surface as errors, caps surface as
// truncation. It does make visited-path counts schedule-dependent at two
// or more walkers (whether a walker reaches a node before or after a
// dominating entry lands decides whether the node expands), which is why
// only verdicts, not path counts, are pinned across Parallelism.
//
// A memo starts with one stripe; a search with more walkers widens it
// (see Widen). Stripe maps are made on first use: a small search touches a
// handful of stripes, and the memo is built once per search.
type DominanceMemo[K comparable] struct {
	stripeOf func(K) uint64
	stripes  []dominanceStripe[K]
}

type dominanceStripe[K comparable] struct {
	mu sync.Mutex
	m  map[K]int
}

// NewDominanceMemo builds an empty memo striped by stripeOf.
func NewDominanceMemo[K comparable](stripeOf func(K) uint64) *DominanceMemo[K] {
	return &DominanceMemo[K]{stripeOf: stripeOf, stripes: make([]dominanceStripe[K], 1)}
}

// Widen re-stripes the memo for a search of the given number of walkers
// (see Stripes), moving its entries; it never narrows. The memo must be
// idle: a search calls it before its walkers start.
func (t *DominanceMemo[K]) Widen(walkers int) {
	n := Stripes(walkers)
	if n <= len(t.stripes) {
		return
	}
	old := t.stripes
	t.stripes = make([]dominanceStripe[K], n)
	for i := range old {
		for k, v := range old[i].m {
			st := t.stripe(k)
			if st.m == nil {
				st.m = make(map[K]int)
			}
			st.m[k] = v
		}
	}
}

func (t *DominanceMemo[K]) stripe(k K) *dominanceStripe[K] {
	return &t.stripes[t.stripeOf(k)&uint64(len(t.stripes)-1)]
}

// DominatedOrRecord reports whether k was already committed with at least
// remaining budget; if not, it records the new budget. The check and the
// update are one critical section, so two walkers racing on the same key
// cannot both conclude "dominated".
func (t *DominanceMemo[K]) DominatedOrRecord(k K, remaining int) bool {
	st := t.stripe(k)
	st.mu.Lock()
	prev, ok := st.m[k]
	if ok && prev >= remaining {
		st.mu.Unlock()
		return true
	}
	if st.m == nil {
		st.m = make(map[K]int)
	}
	st.m[k] = remaining
	st.mu.Unlock()
	return false
}

// Remove deletes k's entry, if any. Checkpoint/resume uses it to invalidate
// commitments left by walks that were cut short: DominatedOrRecord records
// pre-order, so a killed walker leaves entries whose subtrees were never
// finished — sound within one run (the kill surfaces as an error or
// truncation), but not for a later run resuming against the same memo.
// Removing a live entry is always sound; it only costs pruning.
func (t *DominanceMemo[K]) Remove(k K) {
	st := t.stripe(k)
	st.mu.Lock()
	delete(st.m, k)
	st.mu.Unlock()
}

// WitnessBox collects candidate witnesses from concurrent walkers,
// preferring the lowest shard index. Shards are indexed in the schema's
// canonical order, so at one walker the kept witness is the first one in
// Explore's order, and at W > 1 the preference keeps the reported witness
// stable whenever scheduling lets the low shards finish (the residual
// nondeterminism is documented on the solvers' Parallelism options).
type WitnessBox[T any] struct {
	mu    sync.Mutex
	has   bool
	shard int
	val   T
}

// Offer submits a candidate found while processing the given shard.
func (w *WitnessBox[T]) Offer(shard int, v T) {
	w.mu.Lock()
	if !w.has || shard < w.shard {
		w.has, w.shard, w.val = true, shard, v
	}
	w.mu.Unlock()
}

// Take returns the best candidate, if any. Callers invoke it after the
// exploration joined, but it is safe concurrently with Offer.
func (w *WitnessBox[T]) Take() (T, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.val, w.has
}
