package lts

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"accltl/internal/access"
	"accltl/internal/instance"
)

// TestProductSearchShardedScrubsCutWalks pins the scrub rule of a
// persistent memo: it keeps no commitment from a walk that was cut short.
// The control is the prefix's own rendering, so every node has its own memo
// key and nothing is ever dominated, and the step fails at its k-th call.
// After the cut, every surviving entry must stand for a subtree the search
// visited in full, as every node of a completed shard does. Checked at one
// walker for every k, and once at four walkers.
func TestProductSearchShardedScrubsCutWalks(t *testing.T) {
	s := tinySchema(t)
	o := Options{Universe: tinyUniverse(t, s), MaxDepth: 3}
	plan, err := NewPlan(s, o)
	if err != nil {
		t.Fatal(err)
	}
	// The reference tree: every prefix the search can reach.
	paths, err := EnumeratePaths(s, o)
	if err != nil {
		t.Fatal(err)
	}
	errCut := errors.New("cut")
	// run searches with a step that fails at its k-th call (never for
	// k = 0) and returns the prefixes stepped without error.
	run := func(walkers, k int) (map[string]bool, *DominanceMemo[ProductKey[string]], error) {
		var (
			calls   atomic.Int64
			mu      sync.Mutex
			visited = map[string]bool{}
		)
		pr := &Product[string, string]{
			Step: func(_ string, p *access.Path, _ *access.TransitionStructure) (string, Move, error) {
				if int(calls.Add(1)) == k {
					return "", Prune, errCut
				}
				node := p.String()
				mu.Lock()
				visited[node] = true
				mu.Unlock()
				return node, Expand, nil
			},
			Key:   func(node string) string { return node },
			Memo:  NewProductMemo[string](),
			Depth: o.MaxDepth,
		}
		_, _, err := pr.Search(context.Background(), plan, walkers, nil)
		return visited, pr.Memo, err
	}
	entries := func(m *DominanceMemo[ProductKey[string]]) []string {
		var out []string
		for i := range m.stripes {
			for k := range m.stripes[i].m {
				out = append(out, k.ctl)
			}
		}
		return out
	}

	visited, memo, err := run(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != len(paths)-1 || len(entries(memo)) != len(visited) {
		t.Fatalf("uncut search stepped %d prefixes and kept %d entries, want %d of each", len(visited), len(entries(memo)), len(paths)-1)
	}
	steps := len(visited)

	check := func(walkers, k int) {
		visited, memo, err := run(walkers, k)
		if !errors.Is(err, errCut) {
			t.Fatalf("W=%d, cut at step %d: err %v", walkers, k, err)
		}
		// A prefix that was never stepped leaves itself and every ancestor
		// unfinished.
		unfinished := map[string]bool{}
		for _, p := range paths {
			if p.Len() == 0 || visited[p.String()] {
				continue
			}
			for n := 1; n <= p.Len(); n++ {
				q := p.Clone()
				q.Truncate(n)
				unfinished[q.String()] = true
			}
		}
		for _, node := range entries(memo) {
			if unfinished[node] {
				t.Errorf("W=%d, cut at step %d: the memo kept %q, whose subtree was not finished", walkers, k, node)
			}
		}
	}
	for k := 1; k <= steps; k++ {
		check(1, k)
	}
	check(4, steps/2)
}

// TestProductSearchOneWalkerMatchesExplore: a one-walker product search
// visits exactly Explore's sequence of (path, configuration) pairs, in
// Explore's order, with the same report, on every cell of the option grid.
// The control never accepts or prunes and the memo is off, so the search
// walks what Explore walks; a witness preference built on shard indexes is
// then the first witness in Explore's order.
func TestProductSearchOneWalkerMatchesExplore(t *testing.T) {
	s := tinySchema(t)
	for _, c := range equivalenceGrid(t, s) {
		t.Run(c.name, func(t *testing.T) {
			var want []visitRecord
			wantRep, err := Explore(s, c.opts, func(p *access.Path, _, conf *instance.Instance) (bool, error) {
				if p.Len() > 0 {
					want = append(want, visitRecord{path: p.String(), conf: conf.Fingerprint()})
				}
				return true, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := NewPlan(s, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			var got []visitRecord
			pr := &Product[int, int]{
				Step: func(_ int, p *access.Path, last *access.TransitionStructure) (int, Move, error) {
					got = append(got, visitRecord{path: p.String(), conf: last.T.After.Fingerprint()})
					return 0, Expand, nil
				},
				Memo:  NewProductMemo[int](),
				Depth: c.opts.MaxDepth,
			}
			gotRep, witness, err := pr.Search(context.Background(), plan, 1, nil)
			if err != nil || witness != nil {
				t.Fatalf("search: witness %v, err %v", witness, err)
			}
			if !sameReportCore(wantRep, gotRep) {
				t.Errorf("report mismatch: Explore %+v, search %+v", wantRep, gotRep)
			}
			if len(want) != len(got) {
				t.Fatalf("visit counts differ: Explore %d, search %d", len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("visit %d differs:\nExplore: %+v\nsearch:  %+v", i, want[i], got[i])
				}
			}
		})
	}
}
